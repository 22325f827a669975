// PDN <-> NoC co-simulation tests: the coupled epoch loop's physics
// (traffic hotspot -> localized droop -> elevated BER on the hot links),
// its determinism (thread-count and epoch-split invariance, mid-run BER
// swaps), checkpoint kill-and-resume bit-identity, and warm-start
// agreement with cold solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "field_walk.hpp"
#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/error.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/cosim/cosim.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/noc/traffic.hpp"
#include "wsp/pdn/wafer_pdn.hpp"

namespace wsp::cosim {
namespace {

class TempFile {
 public:
  explicit TempFile(const char* name) : path_(name) {}
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The coupled 32x32 configuration the physics assertions run on: a
/// center hotspot, link integrity on, and an amplified voltage->BER
/// mapping so millivolt-scale regulated deltas are measurable within a
/// few epochs.
CosimOptions coupled_32x32(noc::TrafficPattern pattern) {
  CosimOptions o;
  o.config = SystemConfig::reduced(32, 32);
  o.seed = 21;
  o.epoch_cycles = 64;
  o.noc.mesh.integrity.enabled = true;
  o.traffic.pattern = pattern;
  o.traffic.injection_rate = 0.05;
  o.traffic.hotspot = {16, 16};
  o.pdn.ldo.line_regulation = 0.1;
  o.ber.floor_ber = 1e-6;
  o.ber.volts_per_decade = 0.003;
  return o;
}

CosimOptions small_options(std::uint64_t epoch_cycles = 32) {
  CosimOptions o;
  o.config = SystemConfig::reduced(8, 8);
  o.seed = 5;
  o.epoch_cycles = epoch_cycles;
  o.noc.mesh.integrity.enabled = true;
  o.traffic.injection_rate = 0.04;
  o.pdn.ldo.line_regulation = 0.1;
  o.ber.floor_ber = 1e-6;
  o.ber.volts_per_decade = 0.003;
  return o;
}

TEST(ActivityPowerMap, IdleTilesDrawTheFloorAndActivityRamps) {
  const SystemConfig cfg = SystemConfig::reduced(4, 4);
  const FaultMap faults(cfg.grid());
  std::vector<noc::TileActivity> delta(16);
  const ActivityScale scale;
  std::vector<double> idle =
      activity_power_map(delta, faults, cfg.tile_peak_power_w, 64, scale);
  for (const double p : idle)
    EXPECT_DOUBLE_EQ(p, cfg.tile_peak_power_w * scale.idle_fraction);
  // Saturating activity on one tile pins it at peak power.
  delta[5].traversals = 100000;
  std::vector<double> hot =
      activity_power_map(delta, faults, cfg.tile_peak_power_w, 64, scale);
  EXPECT_DOUBLE_EQ(hot[5], cfg.tile_peak_power_w);
  EXPECT_GT(hot[5], idle[5]);
}

TEST(ActivityPowerMap, FaultyTilesDrawNothing) {
  const SystemConfig cfg = SystemConfig::reduced(4, 4);
  FaultMap faults(cfg.grid());
  faults.set_faulty({1, 1}, true);
  std::vector<noc::TileActivity> delta(16);
  delta[cfg.grid().index_of({1, 1})].traversals = 1000;
  const std::vector<double> power =
      activity_power_map(delta, faults, cfg.tile_peak_power_w, 64, {});
  EXPECT_DOUBLE_EQ(power[cfg.grid().index_of({1, 1})], 0.0);
}

TEST(ActivityPowerMap, RejectsBadInputs) {
  const SystemConfig cfg = SystemConfig::reduced(4, 4);
  const FaultMap faults(cfg.grid());
  EXPECT_THROW(activity_power_map(std::vector<noc::TileActivity>(3), faults,
                                  1.0, 64, {}),
               Error);
  EXPECT_THROW(activity_power_map(std::vector<noc::TileActivity>(16), faults,
                                  1.0, 0, {}),
               Error);
  ActivityScale bad;
  bad.flits_per_cycle_at_peak = 0.0;
  EXPECT_THROW(activity_power_map(std::vector<noc::TileActivity>(16), faults,
                                  1.0, 64, bad),
               Error);
}

// ------------------------------------------------------ coupled physics

TEST(CosimLoop, HotspotTrafficDeepensLocalDroop) {
  CosimLoop loop(coupled_32x32(noc::TrafficPattern::Hotspot));
  loop.run_epochs(3);
  const TileGrid grid = loop.options().config.grid();
  const pdn::PdnReport& coupled = loop.last_coupled_pdn();
  const pdn::PdnReport& baseline = loop.last_static_pdn();
  ASSERT_EQ(coupled.tiles.size(), grid.tile_count());
  // The hotspot tile sags measurably below the static idle-floor solve...
  const std::size_t hot = grid.index_of({16, 16});
  const double hot_excess =
      baseline.tiles[hot].supply_v - coupled.tiles[hot].supply_v;
  EXPECT_GT(hot_excess, 0.01);
  // ...and deeper than a far corner tile does (localized droop).
  const std::size_t corner = grid.index_of({1, 1});
  const double corner_excess =
      baseline.tiles[corner].supply_v - coupled.tiles[corner].supply_v;
  EXPECT_GT(hot_excess, corner_excess * 1.5);
  // Epoch reports saw the same coupling.
  EXPECT_GT(loop.epochs().back().max_excess_droop_v, 0.01);
  EXPECT_GT(loop.epochs().back().traversals, 0u);
}

TEST(CosimLoop, HotspotRaisesBerOnHotLinksVsStaticBaseline) {
  CosimLoop loop(coupled_32x32(noc::TrafficPattern::Hotspot));
  loop.run_epochs(2);
  const TileGrid grid = loop.options().config.grid();
  // The map the meshes sample in the third epoch (set at the end of the
  // second): the links at the hotspot run a measurably elevated BER.
  const double hot_ber = loop.noc().link_ber().ber({16, 16}, Direction::East);
  EXPECT_GT(hot_ber, loop.options().ber.floor_ber * 2.0);
  // ...higher than a far corner link in the same run (localized), ...
  EXPECT_GT(hot_ber, loop.noc().link_ber().ber({1, 1}, Direction::East));
  // ...and higher than what the static idle-floor baseline would give the
  // same link — an uncoupled campaign would under-estimate this BER.
  const pdn::PdnReport& baseline = loop.last_static_pdn();
  ASSERT_EQ(baseline.tiles.size(), grid.tile_count());
  std::vector<double> static_v(baseline.tiles.size());
  for (std::size_t i = 0; i < static_v.size(); ++i)
    static_v[i] = baseline.tiles[i].regulated_v;
  const noc::LinkBerMap static_ber = noc::LinkBerMap::from_tile_voltages(
      grid, static_v, loop.options().ber);
  EXPECT_GT(hot_ber, static_ber.ber({16, 16}, Direction::East) * 2.0);
}

/// Mean excess droop (static baseline minus coupled supply) over the tiles
/// of rows [y0, y1].
double band_excess_droop(const CosimLoop& loop, int y0, int y1) {
  const TileGrid grid = loop.options().config.grid();
  const pdn::PdnReport& coupled = loop.last_coupled_pdn();
  const pdn::PdnReport& baseline = loop.last_static_pdn();
  double sum = 0.0;
  int n = 0;
  for (int y = y0; y <= y1; ++y)
    for (int x = 0; x < grid.width(); ++x) {
      const std::size_t i = grid.index_of({x, y});
      sum += baseline.tiles[i].supply_v - coupled.tiles[i].supply_v;
      ++n;
    }
  return sum / n;
}

/// Mean eastbound-link BER currently adopted by the meshes over rows
/// [y0, y1].
double band_mean_ber(const CosimLoop& loop, int y0, int y1) {
  const TileGrid grid = loop.options().config.grid();
  double sum = 0.0;
  int n = 0;
  for (int y = y0; y <= y1; ++y)
    for (int x = 0; x + 1 < grid.width(); ++x) {
      sum += loop.noc().link_ber().ber({x, y}, Direction::East);
      ++n;
    }
  return sum / n;
}

/// Static-baseline mean eastbound BER over rows [y0, y1]: the BER the
/// idle-floor PDN solve would predict for the same links.
double band_static_ber(const CosimLoop& loop, int y0, int y1) {
  const TileGrid grid = loop.options().config.grid();
  const pdn::PdnReport& baseline = loop.last_static_pdn();
  std::vector<double> v(baseline.tiles.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = baseline.tiles[i].regulated_v;
  const noc::LinkBerMap map =
      noc::LinkBerMap::from_tile_voltages(grid, v, loop.options().ber);
  double sum = 0.0;
  int n = 0;
  for (int y = y0; y <= y1; ++y)
    for (int x = 0; x + 1 < grid.width(); ++x) {
      sum += map.ber({x, y}, Direction::East);
      ++n;
    }
  return sum / n;
}

TEST(CosimLoop, AllReduceRingConcentratesDroopAndBerAlongTheRingPath) {
  // Confine the collective to the four-row band 14..17; the ring's
  // sustained all-to-successor traffic must sag the supply and raise link
  // BER along that band, not across the whole wafer.  A load-matched
  // uniform-random run (~the same injections/cycle, spread wafer-wide)
  // droops the same central band too — the IR bowl lives there — but far
  // less *selectively*: the directional claim is the concentration ratio,
  // not the absolute sag, because uniform's long paths burn more total
  // traversal power for the same injected packets.
  CosimOptions o = coupled_32x32(noc::TrafficPattern::UniformRandom);
  o.ber.floor_ber = 1e-9;
  o.ber.nominal_v = 1.107;  // knee just above the band's regulated rail
  o.workload.cls = workloads::WorkloadClass::AllReduceRing;
  o.workload.seed = o.seed;
  o.workload.allreduce.chunk_packets = 4;
  o.workload.allreduce.step_cycles = 4;
  o.workload.allreduce.gap_cycles = 0;
  o.workload.allreduce.rect_x0 = 0;
  o.workload.allreduce.rect_y0 = 14;
  o.workload.allreduce.rect_x1 = 31;
  o.workload.allreduce.rect_y1 = 17;
  CosimLoop ring(o);
  ring.run_epochs(3);

  // The ring band droops hard and locally.
  const double band = band_excess_droop(ring, 14, 17);
  const double outside = band_excess_droop(ring, 0, 10);
  EXPECT_GT(band, 0.05);
  EXPECT_GT(band, outside * 2.5)
      << "ring traffic must droop its own band hardest";

  // 128 ring members injecting 1 pkt/cycle ~= 1024 tiles at rate 0.125.
  CosimOptions u = o;
  u.workload = workloads::WorkloadSpec{};
  u.traffic.injection_rate = 0.0125;
  CosimLoop uniform(u);
  uniform.run_epochs(3);
  const double uniform_ratio = band_excess_droop(uniform, 14, 17) /
                               band_excess_droop(uniform, 0, 10);
  EXPECT_GT(band / outside, uniform_ratio * 1.5)
      << "the ring must concentrate droop on its band far more than "
         "load-matched uniform traffic does";

  // The band's links run an elevated BER: above the run's own remote
  // links and above what the static idle-floor baseline predicts for the
  // very same links (an uncoupled campaign would under-estimate it).
  const double band_ber = band_mean_ber(ring, 14, 17);
  EXPECT_GT(band_ber, band_mean_ber(ring, 0, 10) * 2.0);
  EXPECT_GT(band_ber, band_static_ber(ring, 14, 17) * 2.0);
}

TEST(CosimLoop, SpikingHotspotRecoversToIdleFloorWithinAnEpochOfBurstEnd) {
  // One deterministic burst at the wafer center, dying out before the
  // first epoch boundary; no background firing afterwards.  The coupled
  // power and droop must fall back to the idle floor within an epoch of
  // the burst ending.
  CosimOptions o = coupled_32x32(noc::TrafficPattern::UniformRandom);
  o.workload.cls = workloads::WorkloadClass::SpikingBurst;
  o.workload.seed = o.seed;
  o.workload.spiking.background_rate = 0.0;
  o.workload.spiking.burst_rate = 0.0;
  o.workload.spiking.burst_interval = 1;  // fires at cycle 0 ...
  o.workload.spiking.max_bursts = 1;      // ... and never again
  o.workload.spiking.hotspot = {16, 16};
  o.workload.spiking.burst_radius = 4;
  o.workload.spiking.burst_cycles = 40;  // ends mid-epoch (epoch = 64)
  o.workload.spiking.burst_intensity = 0.8;
  CosimLoop loop(o);
  loop.run_epochs(3);
  ASSERT_EQ(loop.epochs().size(), 3u);

  const TileGrid grid = loop.options().config.grid();
  const double idle_floor_w = grid.tile_count() *
                              loop.options().config.tile_peak_power_w *
                              loop.options().scale.idle_fraction;
  const EpochReport& burst_epoch = loop.epochs()[0];
  const EpochReport& settled = loop.epochs()[2];
  // The burst epoch ran hot ...
  EXPECT_GT(burst_epoch.injections, 0u);
  EXPECT_GT(burst_epoch.total_power_w, idle_floor_w + 0.5);
  EXPECT_GT(burst_epoch.max_excess_droop_v, 0.001);
  // ... and one epoch after the avalanche died, the wafer is back at the
  // idle floor: no injections, idle-floor power, no excess droop.
  EXPECT_EQ(settled.injections, 0u);
  EXPECT_NEAR(settled.total_power_w, idle_floor_w, idle_floor_w * 0.01);
  EXPECT_LT(settled.max_excess_droop_v, 1e-3);
  EXPECT_LT(settled.total_power_w, burst_epoch.total_power_w);
}

// ------------------------------------------------------ physics envelope

TEST(CosimLoop, SpikingEpochPowerStaysWithinTheIdleAndPeakEnvelope) {
  // Every healthy tile draws between idle_fraction * peak (no activity) and
  // peak (saturated); faulty tiles draw nothing.  So every epoch's total
  // lies in [healthy * idle_fraction * peak, healthy * peak], bursts or not.
  CosimOptions o = small_options(16);
  o.workload.cls = workloads::WorkloadClass::SpikingBurst;
  o.workload.seed = 3;
  o.workload.spiking.background_rate = 0.02;
  o.workload.spiking.burst_interval = 40;
  o.workload.spiking.burst_intensity = 1.0;
  o.workload.spiking.hotspot = {4, 4};
  FaultMap faults(o.config.grid());
  faults.set_faulty({1, 1}, true);
  faults.set_faulty({6, 2}, true);
  CosimLoop loop(o, faults);
  loop.run_epochs(24);

  const double healthy = static_cast<double>(faults.healthy_count());
  const double peak_w = healthy * o.config.tile_peak_power_w;
  const double floor_w = peak_w * o.scale.idle_fraction;
  const double slack = 1e-9 * peak_w;  // summation rounding only
  bool above_floor = false;
  for (const EpochReport& e : loop.epochs()) {
    EXPECT_GE(e.total_power_w, floor_w - slack) << "epoch " << e.epoch;
    EXPECT_LE(e.total_power_w, peak_w + slack) << "epoch " << e.epoch;
    above_floor = above_floor || e.total_power_w > floor_w + 0.01;
  }
  EXPECT_TRUE(above_floor) << "the spikes never lifted power off the floor";
}

TEST(CosimLoop, StaticReferenceMatchesAColdSolveAndBoundsEveryTileDroop) {
  // Two oracles at every epoch, with the reference solved and then reused:
  // (a) last_static_pdn() agrees with a cold WaferPdn::solve of the
  //     idle-floor map to the solver tolerance;
  // (b) no healthy tile's coupled power is below the idle floor, so no
  //     tile's coupled supply sits above its reference supply, up to the
  //     stopping error of the two solves.
  CosimOptions spiking = small_options(16);
  spiking.workload.cls = workloads::WorkloadClass::SpikingBurst;
  spiking.workload.seed = 9;
  spiking.workload.spiking.background_rate = 0.02;
  spiking.workload.spiking.burst_interval = 40;
  spiking.workload.spiking.hotspot = {4, 4};
  FaultMap faulty(spiking.config.grid());
  faulty.set_faulty({2, 5}, true);
  const std::pair<CosimOptions, FaultMap> cases[] = {
      {small_options(), FaultMap(small_options().config.grid())},
      {spiking, faulty}};
  for (const auto& [o, faults] : cases) {
    const double tol = o.pdn.solver_tol;
    const std::size_t tiles = o.config.grid().tile_count();
    pdn::WaferPdn cold_pdn(o.config, o.pdn);
    const pdn::PdnReport cold = cold_pdn.solve(activity_power_map(
        std::vector<noc::TileActivity>(tiles), faults,
        o.config.tile_peak_power_w, o.epoch_cycles, o.scale));
    CosimLoop loop(o, faults);
    for (int epoch = 0; epoch < 12; ++epoch) {
      loop.run_epochs(1);
      const pdn::PdnReport& ref = loop.last_static_pdn();
      const pdn::PdnReport& coupled = loop.last_coupled_pdn();
      ASSERT_EQ(ref.tiles.size(), tiles);
      for (std::size_t i = 0; i < tiles; ++i) {
        EXPECT_NEAR(ref.tiles[i].supply_v, cold.tiles[i].supply_v, tol)
            << "epoch " << epoch << " tile " << i;
        EXPECT_GE(ref.tiles[i].supply_v - coupled.tiles[i].supply_v,
                  -10 * tol)
            << "epoch " << epoch << " tile " << i;
      }
    }
  }
}

TEST(WaferPdn, MorePowerNeverRaisesTheMinimumSupply) {
  // The plane is a resistive network fed at its edge, so adding load
  // anywhere can only pull every node down.  An elementwise-larger power
  // map never reports a higher min_supply_v, up to the solve's stopping
  // error (the last V-cycle moved no node by more than solver_tol).
  const CosimOptions o = small_options();
  const std::size_t tiles = o.config.grid().tile_count();
  const double peak = o.config.tile_peak_power_w;
  Rng rng(77);
  double deepest_drop = 0.0;
  pdn::WaferPdn pdn(o.config, o.pdn);
  const double slack = 10 * o.pdn.solver_tol;
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<double> lower(tiles), higher(tiles);
    for (std::size_t i = 0; i < tiles; ++i) {
      lower[i] = peak * rng.uniform();
      // Raise a random subset, some tiles by a lot, most not at all.
      higher[i] = lower[i] + (rng.below(4) == 0 ? peak * rng.uniform() : 0);
    }
    const pdn::PdnReport lo = pdn.solve(lower);
    const pdn::PdnReport hi = pdn.solve(higher);
    ASSERT_TRUE(lo.solver_converged && hi.solver_converged);
    EXPECT_LE(hi.min_supply_v, lo.min_supply_v + slack) << "trial " << trial;
    deepest_drop = std::max(deepest_drop, lo.min_supply_v - hi.min_supply_v);
  }
  EXPECT_GT(deepest_drop, 1e-3) << "the added power never showed up";
}

// ------------------------------------------------------------ determinism

TEST(CosimLoop, BitIdenticalAcrossThreadCounts) {
  std::uint32_t serial_fp = 0;
  std::vector<std::uint8_t> serial_report;
  for (const int threads : {1, 2, 8}) {
    exec::set_shared_threads(threads);
    CosimLoop loop(small_options());
    loop.run_epochs(4);
    const std::uint32_t fp = loop.state_fingerprint();
    const std::vector<std::uint8_t> bytes = serialize_report(loop.report());
    if (threads == 1) {
      serial_fp = fp;
      serial_report = bytes;
    } else {
      EXPECT_EQ(fp, serial_fp) << "threads=" << threads;
      EXPECT_EQ(bytes, serial_report) << "threads=" << threads;
    }
  }
  exec::set_shared_threads(0);
}

TEST(CosimLoop, RunSplitIsInvariant) {
  CosimLoop straight(small_options());
  straight.run(96);
  CosimLoop split(small_options());
  split.run(17);
  split.run(40);
  split.run(39);
  EXPECT_EQ(split.state_fingerprint(), straight.state_fingerprint());
  EXPECT_EQ(serialize_report(split.report()),
            serialize_report(straight.report()));
}

// ------------------------------------------------ BER swap (NocSystem)

TEST(StagedBerSwap, AdoptsWhenSetAndTheLastWriterWins) {
  const SystemConfig cfg = SystemConfig::reduced(4, 4);
  const FaultMap faults(cfg.grid());
  noc::NocOptions opt;
  opt.mesh.integrity.enabled = true;
  noc::NocSystem noc(faults, opt);
  // Both meshes hold the map as soon as it is set, before any step.
  noc.set_link_ber(noc::LinkBerMap::uniform(cfg.grid(), 1e-4));
  EXPECT_DOUBLE_EQ(noc.link_ber().ber({1, 1}, Direction::East), 1e-4);
  EXPECT_DOUBLE_EQ(
      noc.network(noc::NetworkKind::YX).link_ber().ber({1, 1}, Direction::East),
      1e-4);
  // Setting twice between steps: the next cycle samples the last map.
  noc.set_link_ber(noc::LinkBerMap::uniform(cfg.grid(), 1e-5));
  noc.set_link_ber(noc::LinkBerMap::uniform(cfg.grid(), 1e-6));
  std::vector<noc::CompletedTransaction> done;
  noc.step(done);
  for (const noc::NetworkKind k : {noc::NetworkKind::XY, noc::NetworkKind::YX})
    EXPECT_DOUBLE_EQ(noc.network(k).link_ber().ber({1, 1}, Direction::East),
                     1e-6);
}

TEST(StagedBerSwap, SurvivesFaultStateChangeBeforeTheBoundary) {
  // Regression for the campaign rebind ordering: the BER rebind now runs
  // after clock re-selection and apply_fault_state.  A map set before (or
  // after) a fault-state change in the same cycle is the one the next
  // cycle samples.
  const SystemConfig cfg = SystemConfig::reduced(4, 4);
  FaultMap faults(cfg.grid());
  noc::NocOptions opt;
  opt.mesh.integrity.enabled = true;
  noc::NocSystem noc(faults, opt);
  noc.set_link_ber(noc::LinkBerMap::uniform(cfg.grid(), 1e-4));
  faults.set_faulty({2, 2}, true);
  noc.apply_fault_state(faults);
  std::vector<noc::CompletedTransaction> done;
  noc.step(done);
  EXPECT_DOUBLE_EQ(noc.link_ber().ber({1, 1}, Direction::East), 1e-4);
}

TEST(StagedBerSwap, AdoptedMapSurvivesCheckpointRoundTrip) {
  // Saved right after set_link_ber, with no step in between.
  const SystemConfig cfg = SystemConfig::reduced(4, 4);
  const FaultMap faults(cfg.grid());
  noc::NocOptions opt;
  opt.mesh.integrity.enabled = true;
  noc::NocSystem a(faults, opt);
  a.set_link_ber(noc::LinkBerMap::uniform(cfg.grid(), 2e-5));
  ckpt::Writer w;
  a.save_state(w);
  noc::NocSystem b(faults, opt);
  ckpt::Reader r(w.bytes());
  b.load_state(r);
  for (const noc::NetworkKind k : {noc::NetworkKind::XY, noc::NetworkKind::YX})
    EXPECT_DOUBLE_EQ(b.network(k).link_ber().ber({1, 1}, Direction::East),
                     2e-5);
}

TEST(StagedBerSwap, RejectsGridMismatch) {
  const SystemConfig cfg = SystemConfig::reduced(4, 4);
  noc::NocOptions opt;
  opt.mesh.integrity.enabled = true;
  noc::NocSystem noc(FaultMap(cfg.grid()), opt);
  try {
    noc.set_link_ber(noc::LinkBerMap(TileGrid(8, 8)));
    FAIL() << "grid mismatch accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "set_link_ber: BER map grid mismatch");
  }
}

TEST(StagedBerSwap, MidRunSwapIsDeterministicAcrossThreads) {
  // An external mid-run swap lands between cycles — never mid-cycle — so
  // the run stays bit-identical at every thread count.
  const auto run_with_swap = [](int threads) {
    exec::set_shared_threads(threads);
    const SystemConfig cfg = SystemConfig::reduced(8, 8);
    const FaultMap faults(cfg.grid());
    noc::NocOptions opt;
    opt.mesh.integrity.enabled = true;
    noc::NocSystem noc(faults, opt);
    noc::TrafficConfig traffic;
    traffic.injection_rate = 0.1;
    const auto gen = workloads::make_synthetic(traffic, faults, Rng(3));
    workloads::TrafficDriver driver(noc, *gen);
    for (int cycle = 0; cycle < 120; ++cycle) {
      // Set before cycle 40's step, so that step samples it.
      if (cycle == 40)
        noc.set_link_ber(noc::LinkBerMap::uniform(cfg.grid(), 1e-3));
      driver.step();
    }
    ckpt::Writer w;
    noc.save_state(w);
    const std::uint32_t fp = ckpt::crc32(w.bytes().data(), w.size());
    exec::set_shared_threads(0);
    return fp;
  };
  const std::uint32_t serial = run_with_swap(1);
  EXPECT_EQ(run_with_swap(2), serial);
  EXPECT_EQ(run_with_swap(8), serial);
}

TEST(CosimLoop, EpochLengthChangesTheCouplingNotTheTrafficRng) {
  // Different epoch lengths re-solve at different boundaries, which feeds
  // back into the BER map: the runs legitimately diverge.  This guards
  // the epoch plumbing: epoch_cycles must matter (a loop that never
  // couples would make these equal).
  CosimOptions a = small_options(16);
  CosimOptions b = small_options(64);
  CosimLoop la(a);
  CosimLoop lb(b);
  la.run(64);
  lb.run(64);
  EXPECT_EQ(la.epochs_completed(), 4u);
  EXPECT_EQ(lb.epochs_completed(), 1u);
}

// ---------------------------------------------------------- checkpointing

TEST(CosimLoop, CheckpointResumeMidEpochIsBitIdentical) {
  TempFile file("cosim_resume_test.ckpt");
  CosimLoop straight(small_options());
  straight.run(150);  // 4 full epochs + 22 cycles into the fifth
  const std::uint32_t want = straight.state_fingerprint();

  CosimLoop killed(small_options());
  killed.run(75);  // mid-epoch: cycle_in_epoch = 11
  killed.save_checkpoint(file.path());

  CosimLoop resumed(small_options());
  resumed.load_checkpoint(file.path());
  EXPECT_EQ(resumed.state_fingerprint(), killed.state_fingerprint());
  resumed.run(75);
  EXPECT_EQ(resumed.state_fingerprint(), want);
  EXPECT_EQ(serialize_report(resumed.report()),
            serialize_report(straight.report()));
}

/// perfbench's coupled run at 16-cycle epochs: 32x32, link integrity on and
/// the amplified voltage->BER mapping of coupled_32x32.
CosimOptions pinned_32x32(workloads::WorkloadClass cls) {
  CosimOptions o = coupled_32x32(noc::TrafficPattern::Hotspot);
  o.epoch_cycles = 16;
  if (cls == workloads::WorkloadClass::SpikingBurst) {
    o.seed = 13;
    workloads::WorkloadSpec& w = o.workload;
    w.cls = cls;
    w.seed = 2021;
    w.spiking.background_rate = 0.002;
    w.spiking.burst_interval = 256;
    w.spiking.hotspot = {16, 16};
    w.spiking.burst_radius = 3;
    w.spiking.burst_cycles = 48;
    w.spiking.burst_intensity = 0.6;
  }
  return o;
}

std::uint32_t report_crc(const CosimLoop& loop) {
  const std::vector<std::uint8_t> bytes = serialize_report(loop.report());
  return ckpt::crc32(bytes.data(), bytes.size());
}

auto latency_fields(const noc::TrafficReport& t) {
  return std::tie(t.cycles, t.issued, t.completed, t.unreachable,
                  t.latency_samples, t.mean_latency, t.p50_latency,
                  t.p95_latency, t.p99_latency, t.max_latency);
}

TEST(CosimLoop, CoupledResultsArePinned) {
  // The coupled loop's results, independent of how its state is held: the
  // report bytes and the latency summary of a straight run, and of two
  // copies resumed into fresh loops, one saved mid-epoch and one saved at
  // an epoch boundary, right after the boundary's set_link_ber.  The
  // spiking run stays at the BER floor; in the Hotspot run epoch 1 derives
  // a map above the floor, so its boundary copy is saved where the map the
  // meshes sample changes.
  struct Case {
    workloads::WorkloadClass cls;
    std::uint64_t epochs;
    std::uint64_t mid_cycle;       ///< mid-epoch save
    std::uint64_t boundary_epoch;  ///< save after this many epochs
    std::uint32_t report_crc;
    noc::TrafficReport latency;
  };
  const Case cases[] = {
      {workloads::WorkloadClass::SpikingBurst, 128, 16 * 20 + 7, 33,
       0x25b73735u,
       {.cycles = 2048, .issued = 9973, .completed = 9947,
        .latency_samples = 9947, .mean_latency = 14.35116115411682,
        .p50_latency = 15, .p95_latency = 21, .p99_latency = 23,
        .max_latency = 28}},
      {workloads::WorkloadClass::Synthetic, 8, 16 * 1 + 9, 2, 0x8b2d5eabu,
       {.cycles = 128, .issued = 6584, .completed = 741,
        .latency_samples = 741, .mean_latency = 49.429149797570851,
        .p50_latency = 44, .p95_latency = 101, .p99_latency = 120,
        .max_latency = 125}},
  };
  for (const Case& c : cases) {
    const CosimOptions o = pinned_32x32(c.cls);
    SCOPED_TRACE(c.cls == workloads::WorkloadClass::Synthetic
                     ? "synthetic hotspot"
                     : "spiking burst");
    ASSERT_LT(c.mid_cycle, c.boundary_epoch * o.epoch_cycles);
    CosimLoop straight(o);
    std::vector<std::vector<std::uint8_t>> saved;
    for (const std::uint64_t at :
         {c.mid_cycle, c.boundary_epoch * o.epoch_cycles}) {
      straight.run(at - straight.now());
      ckpt::Writer w;
      straight.save_state(w);
      saved.push_back(w.bytes());
    }
    straight.run_epochs(c.epochs - straight.epochs_completed());
    const noc::TrafficReport latency = straight.latency_summary();
    if (c.cls == workloads::WorkloadClass::Synthetic) {
      const std::vector<EpochReport>& e = straight.epochs();
      EXPECT_EQ(e[c.boundary_epoch - 2].max_ber, o.ber.floor_ber);
      EXPECT_GT(e[c.boundary_epoch - 1].max_ber, 100 * o.ber.floor_ber);
    }
    EXPECT_EQ(report_crc(straight), c.report_crc)
        << "actual 0x" << std::hex << report_crc(straight);
    EXPECT_EQ(latency_fields(latency), latency_fields(c.latency));

    for (const std::vector<std::uint8_t>& frame : saved) {
      CosimLoop resumed(o);
      ckpt::Reader r(frame);
      resumed.load_state(r);
      EXPECT_TRUE(r.done());
      resumed.run(c.epochs * o.epoch_cycles - resumed.now());
      EXPECT_EQ(serialize_report(resumed.report()),
                serialize_report(straight.report()));
      EXPECT_EQ(latency_fields(resumed.latency_summary()),
                latency_fields(latency));
      EXPECT_EQ(resumed.state_fingerprint(), straight.state_fingerprint());
    }
  }
}

TEST(CosimLoop, CheckpointRejectsForeignFrame) {
  TempFile file("cosim_foreign_test.ckpt");
  ckpt::Writer w;
  w.u64(42);
  ckpt::save_frame_file(file.path(), ckpt::fourcc("XXXX"), 1, w);
  CosimLoop loop(small_options());
  EXPECT_THROW(loop.load_checkpoint(file.path()), ckpt::Error);
}

TEST(CosimLoop, CheckpointRejectsStateVersion2) {
  // Version 2 carried the raw latency vector where version 3 carries the
  // traffic driver's histogram frame, version 3 lacks the option block
  // version 4 leads with, and version 4's histograms retain raw samples
  // where version 5's hold (value, count) runs, and version 9 holds NOCS
  // v6: older COSM frames are refused by their header, before any payload
  // byte is interpreted.
  TempFile file("cosim_v2_test.ckpt");
  CosimLoop source(small_options());
  source.run(40);
  ckpt::Writer w;
  source.save_state(w);
  for (const std::uint32_t version : {2u, 3u, 4u, 9u}) {
    ckpt::save_frame_file(file.path(), ckpt::fourcc("COSM"), version, w);
    CosimLoop loop(small_options());
    try {
      loop.load_checkpoint(file.path());
      FAIL() << "version-" << version << " snapshot accepted";
    } catch (const ckpt::Error& e) {
      EXPECT_EQ(e.kind(), ckpt::ErrorKind::VersionMismatch) << version;
    }
  }
}

TEST(CosimLoop, CheckpointRejectsForeignOptions) {
  // A snapshot resumes only under the options that wrote it: a different
  // epoch length, solver tolerance or idle floor would not reproduce the
  // saver's future.
  TempFile file("cosim_options_test.ckpt");
  CosimLoop source(small_options(16));
  source.run(40);
  source.save_checkpoint(file.path());
  const auto load_error =
      [&](const CosimOptions& o) -> std::optional<ckpt::ErrorKind> {
    CosimLoop loop(o);
    try {
      loop.load_checkpoint(file.path());
    } catch (const ckpt::Error& e) {
      return e.kind();
    }
    return std::nullopt;
  };
  CosimOptions tol = small_options(16);
  tol.pdn.solver_tol *= 2.0;
  CosimOptions idle = small_options(16);
  idle.scale.idle_fraction = 0.4;
  EXPECT_EQ(load_error(small_options(64)), ckpt::ErrorKind::SchemaMismatch);
  EXPECT_EQ(load_error(tol), ckpt::ErrorKind::SchemaMismatch);
  EXPECT_EQ(load_error(idle), ckpt::ErrorKind::SchemaMismatch);
  CosimLoop same(small_options(16));
  same.load_checkpoint(file.path());
  EXPECT_EQ(same.state_fingerprint(), source.state_fingerprint());
}

TEST(CosimLoop, OptionBlockCoversEveryOptionLeaf) {
  // The COSM option block is save_fields(options) right after the "CLOP"
  // tag, and perturbing any single leaf fields() reaches has to move it.
  const CosimOptions base = small_options();
  const auto block = [](const CosimOptions& o) {
    ckpt::Writer w;
    ckpt::save_fields(w, o);
    return w.bytes();
  };
  const std::vector<std::uint8_t> want = block(base);
  ckpt::Writer state;
  CosimLoop(base).save_state(state);
  ASSERT_GE(state.size(), 4 + want.size());
  EXPECT_TRUE(std::equal(want.begin(), want.end(), state.bytes().begin() + 4));
  const std::size_t leaves = for_each_perturbed_leaf(
      base, [&](const CosimOptions& o, std::size_t leaf) {
        EXPECT_NE(block(o), want) << "leaf " << leaf;
      });
  EXPECT_GT(leaves, 100u);
}

// ------------------------------------------------------------- warm start

TEST(WarmStart, WarmAndColdSolvesAgree) {
  const CosimOptions o = small_options();
  pdn::WaferPdn warm_pdn(o.config, o.pdn);
  pdn::WaferPdn cold_pdn(o.config, o.pdn);

  // A drifting sequence of power maps, as an epoch driver would produce.
  const std::size_t tiles = o.config.grid().tile_count();
  std::vector<std::vector<double>> seeds(1);
  for (int epoch = 0; epoch < 4; ++epoch) {
    std::vector<double> power(tiles);
    for (std::size_t i = 0; i < tiles; ++i)
      power[i] = o.config.tile_peak_power_w *
                 (0.3 + 0.1 * static_cast<double>(epoch) +
                  0.01 * static_cast<double>(i % 7));
    std::vector<std::vector<double>> maps{power};
    std::vector<pdn::SolveStats> warm_stats;
    const pdn::PdnReport warm =
        warm_pdn.solve_batch_warm(maps, seeds, &warm_stats)[0];
    const pdn::PdnReport cold = cold_pdn.solve(power);
    ASSERT_TRUE(warm.solver_converged);
    ASSERT_TRUE(cold.solver_converged);
    for (std::size_t i = 0; i < tiles; ++i) {
      EXPECT_NEAR(warm.tiles[i].supply_v, cold.tiles[i].supply_v, 1e-5);
      EXPECT_NEAR(warm.tiles[i].regulated_v, cold.tiles[i].regulated_v, 1e-5);
    }
    if (epoch > 0) {
      // The warm solve re-converges from last epoch's solution in no more
      // V-cycles than a cold start needs.
      std::vector<std::vector<double>> cold_seed(1);
      std::vector<pdn::SolveStats> cold_stats;
      pdn::WaferPdn probe(o.config, o.pdn);
      probe.solve_batch_warm(maps, cold_seed, &cold_stats);
      EXPECT_LE(warm_stats[0].iterations, cold_stats[0].iterations);
    }
  }
}

TEST(WarmStart, BatchColdEqualsSequentialSolves) {
  const CosimOptions o = small_options();
  pdn::WaferPdn pdn_a(o.config, o.pdn);
  pdn::WaferPdn pdn_b(o.config, o.pdn);
  const std::size_t tiles = o.config.grid().tile_count();
  std::vector<std::vector<double>> maps{
      std::vector<double>(tiles, 0.4 * o.config.tile_peak_power_w),
      std::vector<double>(tiles, 0.9 * o.config.tile_peak_power_w)};
  const std::vector<pdn::PdnReport> batch = pdn_a.solve_batch(maps);
  ASSERT_EQ(batch.size(), 2u);
  for (std::size_t m = 0; m < maps.size(); ++m) {
    const pdn::PdnReport single = pdn_b.solve(maps[m]);
    for (std::size_t i = 0; i < tiles; ++i)
      EXPECT_DOUBLE_EQ(batch[m].tiles[i].supply_v, single.tiles[i].supply_v);
  }
}

}  // namespace
}  // namespace wsp::cosim
