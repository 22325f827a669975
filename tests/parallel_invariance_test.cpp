// Thread-count invariance: the determinism contract of the parallel
// execution layer, asserted end to end.  The red-black PDN solve, the
// whole-wafer PDN/thermal reports, the Monte Carlo campaign reports, and
// the NoC stepper must be bit-identical at threads = 1, 2, 8 — the
// contract that keeps every seeded experiment replayable regardless of
// the host machine.  The NoC runs are also pinned to golden CRCs, so the
// cycle semantics themselves (see DESIGN.md "NoC cycle semantics") cannot
// drift unnoticed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/exec/parallel_for.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/noc/mesh_network.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/noc/traffic.hpp"
#include "wsp/obs/report.hpp"
#include "wsp/pdn/resistive_grid.hpp"
#include "wsp/pdn/thermal.hpp"
#include "wsp/pdn/wafer_pdn.hpp"
#include "wsp/resilience/campaign.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace wsp {
namespace {

/// Runs fn() with the shared pool at each thread count and returns the
/// results; restores the environment default afterwards.
template <typename F>
auto at_thread_counts(F&& fn) {
  std::vector<decltype(fn())> results;
  for (const int threads : {1, 2, 8}) {
    exec::set_shared_threads(threads);
    results.push_back(fn());
  }
  exec::set_shared_threads(0);
  return results;
}

TEST(ParallelInvariance, RedBlackSolveVoltagesBitIdentical) {
  const auto runs = at_thread_counts([] {
    pdn::ResistiveGrid g(64, 64);
    g.fill_conductances(3.0, 2.0);
    for (int x = 0; x < 64; ++x) {
      g.set_dirichlet(x, 0, 2.5);
      g.set_dirichlet(x, 63, 2.5);
    }
    for (int y = 8; y < 56; ++y)
      for (int x = 4; x < 60; ++x) g.set_current_sink(x, y, 0.003);
    const pdn::SolveStats stats = g.solve(1e-9);
    EXPECT_TRUE(stats.converged);
    return g.voltages();  // compared bit-for-bit via operator==
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelInvariance, SolveStatsBitIdentical) {
  const auto runs = at_thread_counts([] {
    pdn::ResistiveGrid g(32, 48);
    g.fill_conductances(1.0, 1.5);
    for (int y = 0; y < 48; ++y) g.set_dirichlet(0, y, 1.0);
    for (int x = 1; x < 32; ++x)
      for (int y = 0; y < 48; ++y) g.set_current_sink(x, y, 1e-4);
    const pdn::SolveStats s = g.solve(1e-10);
    return std::tuple{s.iterations, s.residual, s.max_delta_v, s.converged};
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelInvariance, WaferPdnReportBitIdentical) {
  const SystemConfig cfg = SystemConfig::reduced(16, 16);
  const auto runs = at_thread_counts([&] {
    pdn::WaferPdn pdn(cfg, {});
    const pdn::PdnReport r = pdn.solve_uniform(0.9);
    std::vector<double> flat{r.min_supply_v, r.max_supply_v, r.ldo_loss_w,
                             r.delivered_power_w,
                             static_cast<double>(r.tiles_out_of_regulation)};
    for (const pdn::TilePower& t : r.tiles) {
      flat.push_back(t.supply_v);
      flat.push_back(t.regulated_v);
      flat.push_back(t.plane_current_a);
      flat.push_back(t.ldo_loss_w);
    }
    return flat;
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelInvariance, ConstantPowerLoadModelBitIdentical) {
  const SystemConfig cfg = SystemConfig::reduced(12, 12);
  pdn::WaferPdnOptions opt;
  opt.load_model = pdn::LoadModel::ConstantPower;
  const auto runs = at_thread_counts([&] {
    pdn::WaferPdn pdn(cfg, opt);
    const pdn::PdnReport r = pdn.solve_uniform(1.0);
    std::vector<double> flat;
    for (const pdn::TilePower& t : r.tiles) flat.push_back(t.supply_v);
    return flat;
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelInvariance, ThermalReportBitIdentical) {
  const SystemConfig cfg = SystemConfig::reduced(16, 16);
  const auto runs = at_thread_counts([&] {
    pdn::WaferThermal thermal(cfg, {});
    const pdn::ThermalReport r = thermal.solve_uniform(1.0);
    std::vector<double> flat{r.max_c, r.mean_c,
                             static_cast<double>(r.tiles_over_limit)};
    flat.insert(flat.end(), r.tile_temperature_c.begin(),
                r.tile_temperature_c.end());
    return flat;
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

/// Everything in a trial report that could expose cross-trial interference
/// or scheduling leakage, flattened for exact comparison.
std::vector<std::uint64_t> flatten(
    const std::vector<resilience::DegradationReport>& reports) {
  std::vector<std::uint64_t> flat;
  for (const resilience::DegradationReport& r : reports) {
    flat.push_back(r.initial_usable);
    flat.push_back(r.final_usable);
    flat.push_back(r.total_cycles);
    flat.push_back(r.mesh_dropped);
    flat.push_back(r.noc_stats.issued);
    flat.push_back(r.noc_stats.completed);
    flat.push_back(r.noc_stats.lost);
    flat.push_back(r.noc_stats.timeouts);
    flat.push_back(r.events.size());
    for (const resilience::EventOutcome& e : r.events) {
      flat.push_back(e.applied_cycle);
      flat.push_back(e.usable_after);
      flat.push_back(e.newly_unusable);
      flat.push_back(e.recovery_cycles);
      flat.push_back(static_cast<std::uint64_t>(e.recovered));
    }
    for (const resilience::TrajectoryPoint& p : r.trajectory) {
      flat.push_back(p.cycle);
      flat.push_back(p.usable_tiles);
    }
    flat.push_back(static_cast<std::uint64_t>(r.single_system_image));
    flat.push_back(static_cast<std::uint64_t>(r.drained));
  }
  return flat;
}

TEST(ParallelInvariance, CampaignTrialsBitIdentical) {
  resilience::CampaignOptions o;
  o.config = SystemConfig::reduced(8, 8);
  o.seed = 42;
  o.run_cycles = 400;
  o.fault_horizon = 300;
  o.drain_cycles = 20000;
  o.injection_rate = 0.02;
  o.mix.tile_deaths = 2;
  o.mix.link_failures = 1;
  o.mix.ldo_brownouts = 1;
  const resilience::DegradationCampaign campaign(o);

  const auto runs =
      at_thread_counts([&] { return flatten(campaign.run_trials(5)); });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelInvariance, MetricsRegistryAndRunReportBitIdentical) {
  // The folded campaign registry — and its full RunReport serialisation —
  // must be byte-identical at 1, 2, 8 threads: metrics never read the
  // clock, and publish_metrics folds the (thread-invariant) reports in
  // trial order.
  resilience::CampaignOptions o;
  o.config = SystemConfig::reduced(8, 8);
  o.seed = 42;
  o.run_cycles = 400;
  o.fault_horizon = 300;
  o.drain_cycles = 20000;
  o.injection_rate = 0.02;
  o.mix.tile_deaths = 2;
  o.mix.link_failures = 1;
  const resilience::DegradationCampaign campaign(o);

  const auto runs = at_thread_counts([&] {
    obs::MetricsRegistry registry;
    resilience::publish_metrics(campaign.run_trials(5), registry);
    obs::RunReport report("invariance");
    report.add_metrics("campaign", registry);
    return report.to_json();
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelInvariance, CampaignTrialsMatchSequentialSingleRuns) {
  // Trial t of run_trials must equal an independent run() at seed + t —
  // the pool dispatch cannot change what a trial computes.
  resilience::CampaignOptions o;
  o.config = SystemConfig::reduced(8, 8);
  o.seed = 7;
  o.run_cycles = 300;
  o.fault_horizon = 250;
  o.drain_cycles = 20000;
  o.mix.tile_deaths = 2;
  const resilience::DegradationCampaign campaign(o);

  exec::set_shared_threads(8);
  const auto batch = campaign.run_trials(3);
  exec::set_shared_threads(0);

  for (int t = 0; t < 3; ++t) {
    resilience::CampaignOptions solo = o;
    solo.seed = o.seed + static_cast<std::uint64_t>(t);
    const auto single =
        resilience::DegradationCampaign(solo).run();
    EXPECT_EQ(flatten({batch[static_cast<std::size_t>(t)]}),
              flatten({single}));
  }
}

TEST(ParallelInvariance, SharedConstSelectorPlansMatchSerial) {
  // plan() is a pure function of the bound fault state, so one const
  // selector can serve every thread: all ordered pairs planned on it under
  // parallel_for equal the serial plans of a second selector over the same
  // fault state.
  const TileGrid grid(16, 16);
  FaultMap tiles(grid);
  for (const TileCoord c : {TileCoord{5, 5}, TileCoord{10, 10},
                            TileCoord{3, 12}, TileCoord{12, 3}})
    tiles.set_faulty(c);
  LinkFaultSet links(grid);
  links.set_failed({2, 7}, Direction::East);  // row 7 pairs must relay
  links.set_failed({8, 2}, Direction::North);
  const noc::NetworkSelector shared(tiles, links);
  const noc::NetworkSelector serial_sel(tiles, links);

  const std::size_t n = grid.tile_count();
  const auto pair = [&](std::size_t k) {
    return std::pair{grid.coord_of(k / n), grid.coord_of(k % n)};
  };
  exec::set_shared_threads(4);
  std::vector<noc::RoutePlan> parallel(n * n);
  exec::parallel_for(n * n, [&](std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      const auto [src, dst] = pair(k);
      parallel[k] = shared.plan(src, dst);
    }
  });
  exec::set_shared_threads(0);

  std::size_t relayed = 0;
  for (std::size_t k = 0; k < n * n; ++k) {
    const auto [src, dst] = pair(k);
    const noc::RoutePlan serial = serial_sel.plan(src, dst);
    EXPECT_EQ(fields(parallel[k]), fields(serial)) << "pair " << k;
    relayed += serial.relayed;
  }
  EXPECT_GT(relayed, 0u);
}

// ------------------------------------------------------------ NoC stepper

/// Flattened observable output of one seeded mesh workload: the full
/// delivery trace (order included) plus every counter.  Two runs are "the
/// same simulation" iff these vectors are equal element for element.
struct MeshRunResult {
  std::vector<std::uint64_t> trace;
  std::vector<std::uint64_t> stats;
  bool operator==(const MeshRunResult&) const = default;
};

void append_packet(std::vector<std::uint64_t>& trace, const noc::Packet& p) {
  trace.push_back(p.id);
  trace.push_back(static_cast<std::uint64_t>(p.src.x) << 32 |
                  static_cast<std::uint32_t>(p.src.y));
  trace.push_back(static_cast<std::uint64_t>(p.dst.x) << 32 |
                  static_cast<std::uint32_t>(p.dst.y));
  trace.push_back(p.payload);
  trace.push_back(p.injected_cycle);
  trace.push_back(p.delivered_cycle);
}

std::vector<std::uint64_t> flatten(const noc::MeshStats& s) {
  return {s.injected,        s.ejected,        s.dropped_at_fault,
          s.link_traversals, s.cycles,         s.purged_in_dead_router,
          s.corrupted,       s.crc_detected,   s.crc_escapes,
          s.link_retransmits, s.link_error_drops, s.dup_dropped};
}

/// CRC-32 over the trace then the counters, serialised little-endian so
/// the golden constants are host-independent.
std::uint32_t crc_of(const MeshRunResult& r) {
  ckpt::Writer w;
  for (const std::uint64_t v : r.trace) w.u64(v);
  for (const std::uint64_t v : r.stats) w.u64(v);
  return ckpt::crc32(w.bytes().data(), w.size());
}

std::uint32_t crc_of(const std::string& s) {
  return ckpt::crc32(reinterpret_cast<const std::uint8_t*>(s.data()),
                     s.size());
}

/// Drives one XY MeshNetwork on an n x n grid with a seeded random
/// workload for 400 cycles (`per_cycle` injection attempts per cycle for
/// the first 300): random fault map, optional uniform BER.  Checks the
/// per-cycle packet-conservation invariant as it goes and returns the
/// flattened observable output.
MeshRunResult run_mesh_workload(int n, int per_cycle, std::size_t fault_count,
                                double ber, std::uint64_t seed) {
  const TileGrid grid(n, n);
  Rng fault_rng(seed);
  const FaultMap faults =
      FaultMap::random_with_count(grid, fault_count, fault_rng);
  noc::MeshOptions opt;
  opt.integrity.enabled = ber > 0.0;
  noc::MeshNetwork mesh(faults, noc::NetworkKind::XY, opt);
  if (ber > 0.0) mesh.set_link_ber(noc::LinkBerMap::uniform(grid, ber));

  const auto side = static_cast<std::uint64_t>(n);
  Rng rng(seed ^ 0xABCDull);
  std::vector<noc::Packet> ejected;
  std::uint64_t next_id = 1;
  MeshRunResult out;
  for (std::uint64_t cycle = 0; cycle < 400; ++cycle) {
    if (cycle < 300) {
      for (int k = 0; k < per_cycle; ++k) {
        noc::Packet p;
        p.src = {static_cast<int>(rng.below(side)),
                 static_cast<int>(rng.below(side))};
        p.dst = {static_cast<int>(rng.below(side)),
                 static_cast<int>(rng.below(side))};
        p.payload = rng();
        p.injected_cycle = cycle;
        p.id = next_id;
        if (mesh.inject(p)) ++next_id;
      }
    }
    ejected.clear();  // reused, cleared-not-shrunk — the supported pattern
    mesh.step(ejected);
    for (const noc::Packet& p : ejected) append_packet(out.trace, p);
    // Per-cycle packet conservation: the incremental in-flight counter
    // must agree with a from-scratch recount of every queue and link
    // ring, and the global conservation identity must hold.
    EXPECT_EQ(mesh.in_flight(), mesh.recount_in_flight()) << "cycle " << cycle;
    EXPECT_TRUE(mesh.conservation_holds()) << "cycle " << cycle;
  }
  out.stats = flatten(mesh.stats());
  return out;
}

TEST(NocStepper, MeshTraceAndStatsMatchGoldens) {
  // Random fault maps x BER settings, each pinned to the CRC of its
  // delivery trace (order included) and every counter.  The constants
  // were recorded with the former column-band stepper (one band at 12x12,
  // eight at 32x32, every thread count agreeing), so they pin the
  // frozen-credit land -> route -> commit semantics, the per-link BER
  // streams and the tile-order ejections across the move to one serial
  // pass.
  struct Case {
    int n;
    int per_cycle;
    std::size_t faults;
    double ber;
    std::uint64_t seed;
    std::uint32_t golden;
  };
  const Case cases[] = {
      {12, 4, 0, 0.0, 11, 0x745b8ab1u},   // clean wafer, integrity off
      {12, 4, 5, 0.0, 22, 0xd646fb86u},   // faulty tiles, integrity off
      {12, 4, 0, 1e-4, 33, 0xa2c28ce7u},  // noisy links, retransmits active
      {12, 4, 7, 1e-3, 44, 0xff583d74u},  // faults + heavy noise together
      {32, 24, 20, 1e-3, 55, 0x9756ab33u},  // full wafer, all of the above
  };
  for (const Case& c : cases) {
    const auto runs = at_thread_counts(
        [&] { return run_mesh_workload(c.n, c.per_cycle, c.faults, c.ber,
                                       c.seed); });
    ASSERT_FALSE(runs[0].trace.empty());
    EXPECT_EQ(crc_of(runs[0]), c.golden)
        << c.n << "x" << c.n << " seed " << c.seed << ": actual 0x"
        << std::hex << crc_of(runs[0]);
    EXPECT_EQ(runs[1], runs[0]) << "seed " << c.seed << " threads 2";
    EXPECT_EQ(runs[2], runs[0]) << "seed " << c.seed << " threads 8";
  }
}

TEST(NocStepper, NocSystemTrafficAndRegistryMatchGolden) {
  // Full-system check: seeded synthetic traffic through NocSystem (both
  // meshes plus the request/response layer) with a bound MetricsRegistry.
  // The registry's serialised RunReport is pinned to a CRC, and must not
  // move with the thread count.
  Rng fault_rng(99);
  const FaultMap faults =
      FaultMap::random_with_count(TileGrid(16, 16), 4, fault_rng);

  const auto runs = at_thread_counts([&] {
    obs::MetricsRegistry registry;
    noc::NocSystem noc{faults, noc::NocOptions{}, &registry};
    noc::TrafficConfig cfg;
    cfg.injection_rate = 0.02;
    const auto gen = workloads::make_synthetic(cfg, faults, Rng(5));
    const noc::TrafficReport r =
        workloads::run_workload_traffic(noc, *gen, 300).report;
    obs::RunReport report("noc-stepper");
    report.add_metrics("noc", registry);
    return std::tuple{r.issued, r.completed, report.to_json()};
  });
  const auto& [issued, completed, json] = runs[0];
  EXPECT_EQ(issued, 1516u);
  EXPECT_EQ(completed, 1516u);
  EXPECT_EQ(crc_of(json), 0xe90c2442u)
      << "actual 0x" << std::hex << crc_of(json);
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[2], runs[0]);
}

TEST(NocStepper, EjectionBufferReuseMatchesFreshBuffers) {
  // Regression for the ejection-vector reuse contract: step() documents
  // that callers may reuse one cleared-not-shrunk buffer across cycles.
  // Run the same seeded workload twice — once handing step() a fresh
  // vector every cycle, once reusing a single buffer that has grown
  // stale capacity — and require identical traces and stats.
  const TileGrid grid(10, 10);
  Rng fault_rng(7);
  const FaultMap faults = FaultMap::random_with_count(grid, 3, fault_rng);

  const auto drive = [&](bool reuse) {
    noc::MeshNetwork mesh(faults, noc::NetworkKind::YX, {});
    Rng rng(123);
    MeshRunResult out;
    std::vector<noc::Packet> reused;
    for (std::uint64_t cycle = 0; cycle < 250; ++cycle) {
      for (int k = 0; k < 3; ++k) {
        noc::Packet p;
        p.src = {static_cast<int>(rng.below(10)),
                 static_cast<int>(rng.below(10))};
        p.dst = {static_cast<int>(rng.below(10)),
                 static_cast<int>(rng.below(10))};
        p.id = cycle * 8 + static_cast<std::uint64_t>(k) + 1;
        p.payload = rng();
        p.injected_cycle = cycle;
        mesh.inject(p);
      }
      if (reuse) {
        reused.clear();
        mesh.step(reused);
        for (const noc::Packet& p : reused) append_packet(out.trace, p);
      } else {
        std::vector<noc::Packet> fresh;
        mesh.step(fresh);
        for (const noc::Packet& p : fresh) append_packet(out.trace, p);
      }
    }
    out.stats = flatten(mesh.stats());
    return out;
  };

  const MeshRunResult with_reuse = drive(true);
  const MeshRunResult with_fresh = drive(false);
  ASSERT_FALSE(with_reuse.trace.empty());
  EXPECT_EQ(with_reuse.trace, with_fresh.trace);
  EXPECT_EQ(with_reuse.stats, with_fresh.stats);
}

TEST(NocStepper, ConservationHoldsAcrossRuntimeFaults) {
  // Conservation must survive mid-run fault injection (queue purges free
  // their packets exactly once): kill a tile every 50 cycles and recheck
  // the recount identity each time.
  const TileGrid grid(12, 12);
  FaultMap faults(grid);
  noc::MeshNetwork mesh(faults, noc::NetworkKind::XY);

  Rng rng(31);
  std::vector<noc::Packet> ejected;
  for (std::uint64_t cycle = 1; cycle <= 200; ++cycle) {
    for (int k = 0; k < 4; ++k) {
      noc::Packet p;
      p.src = {static_cast<int>(rng.below(12)),
               static_cast<int>(rng.below(12))};
      p.dst = {static_cast<int>(rng.below(12)),
               static_cast<int>(rng.below(12))};
      p.id = cycle * 8 + static_cast<std::uint64_t>(k);
      mesh.inject(p);
    }
    ejected.clear();
    mesh.step(ejected);
    if (cycle % 50 == 0) {
      const TileCoord victim{static_cast<int>(rng.below(12)),
                             static_cast<int>(rng.below(12))};
      faults.set_faulty(victim);
      mesh.apply_fault_state(faults, mesh.link_faults());
      EXPECT_EQ(mesh.in_flight(), mesh.recount_in_flight())
          << "after killing tile at cycle " << cycle;
      EXPECT_TRUE(mesh.conservation_holds()) << "cycle " << cycle;
    }
  }
}

TEST(NocStepper, SparseBurstsMatchGolden) {
  // Event-style traffic on both 32x32 meshes: bursts of 16 injections
  // over 8 cycles, each followed by 120 idle cycles in which every packet
  // lands and every tile drains.  Tiles keep going idle and waking up
  // again, which the dense goldens above (an injection every cycle) never
  // allow.  Idle gaps also see a runtime fault (3 tiles, 1 link) and a
  // snapshot round trip into fresh meshes; bursts see a head corruption
  // and another round trip.  The constant was recorded before the mesh
  // stepped only its active tiles.
  const TileGrid grid(32, 32);
  noc::MeshOptions opt;
  opt.integrity.enabled = true;
  FaultMap faults(grid);
  LinkFaultSet links(grid);
  const noc::NetworkKind kinds[] = {noc::NetworkKind::XY,
                                    noc::NetworkKind::YX};
  std::unique_ptr<noc::MeshNetwork> mesh[2];
  for (int k = 0; k < 2; ++k) {
    mesh[k] = std::make_unique<noc::MeshNetwork>(faults, kinds[k], opt);
    mesh[k]->set_link_ber(noc::LinkBerMap::uniform(grid, 1e-4));
  }
  const auto round_trip = [&] {
    for (int k = 0; k < 2; ++k) {
      ckpt::Writer w;
      mesh[k]->save_state(w);
      auto fresh =
          std::make_unique<noc::MeshNetwork>(FaultMap(grid), kinds[k], opt);
      ckpt::Reader r(w.bytes());
      fresh->load_state(r);
      EXPECT_TRUE(r.done());
      mesh[k] = std::move(fresh);
    }
  };

  constexpr int kBursts = 6;
  constexpr int kBurstCycles = 8;
  constexpr int kGapCycles = 120;
  Rng rng(2020);
  const auto near = [&](int v) {
    return std::clamp(v + static_cast<int>(rng.below(17)) - 8, 0, 31);
  };
  MeshRunResult out;
  std::vector<noc::Packet> ejected;
  std::uint64_t next_id = 1;
  for (int burst = 0; burst < kBursts; ++burst) {
    for (int c = 0; c < kBurstCycles + kGapCycles; ++c) {
      TileCoord last_src{};
      if (c < kBurstCycles) {
        for (int k = 0; k < 2; ++k) {
          noc::Packet p;
          p.src = {static_cast<int>(rng.below(32)),
                   static_cast<int>(rng.below(32))};
          p.dst = {near(p.src.x), near(p.src.y)};
          p.payload = rng();
          p.injected_cycle = mesh[k]->now();
          p.id = next_id;
          if (mesh[k]->inject(p)) {
            ++next_id;
            last_src = p.src;
          }
        }
      }
      if (burst == 2 && c == 3) {
        EXPECT_TRUE(mesh[1]->corrupt_head_packet(last_src).has_value());
      }
      if (burst == 3 && c == 4) round_trip();
      if (burst == 1 && c == kBurstCycles + kGapCycles / 2) {
        for (const TileCoord dead : {TileCoord{5, 9}, TileCoord{17, 17},
                                     TileCoord{26, 3}})
          faults.set_faulty(dead);
        links.set_failed({12, 20}, Direction::East);
        for (auto& m : mesh) m->apply_fault_state(faults, links);
      }
      if (burst == 4 && c == kBurstCycles + kGapCycles / 2) round_trip();
      for (auto& m : mesh) {
        ejected.clear();
        m->step(ejected);
        for (const noc::Packet& p : ejected) append_packet(out.trace, p);
        EXPECT_EQ(m->in_flight(), m->recount_in_flight())
            << "burst " << burst << " cycle " << c;
      }
    }
    for (auto& m : mesh) EXPECT_EQ(m->in_flight(), 0u) << "burst " << burst;
  }
  for (auto& m : mesh) {
    EXPECT_TRUE(m->conservation_holds());
    const std::vector<std::uint64_t> s = flatten(m->stats());
    out.stats.insert(out.stats.end(), s.begin(), s.end());
  }
  ASSERT_FALSE(out.trace.empty());
  EXPECT_EQ(crc_of(out), 0xdaea3aabu) << "actual 0x" << std::hex
                                       << crc_of(out);
}

}  // namespace
}  // namespace wsp
