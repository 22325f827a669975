// Tests for the link-integrity layer: the voltage-aware BER channel, the
// CRC-8 hop protection and NACK/retransmit protocol inside MeshNetwork,
// predictive link retirement (LinkHealthMonitor + the JTAG scrub path),
// the packet-conservation invariant, and the corruption-stat regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "wsp/common/error.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/noc/link_health.hpp"
#include "wsp/noc/link_integrity.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/resilience/campaign.hpp"
#include "wsp/resilience/fault_injector.hpp"
#include "wsp/resilience/fault_schedule.hpp"
#include "wsp/testinfra/link_scrub.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace wsp {
namespace {

// --------------------------------------------------------------- helpers

struct TrafficResult {
  std::vector<noc::CompletedTransaction> done;
  bool drained = false;
};

/// Seeded uniform-random traffic: `cycles` of injection, then a drain.
TrafficResult run_uniform_traffic(noc::NocSystem& noc, const TileGrid& grid,
                                  std::uint64_t cycles, double rate,
                                  std::uint64_t seed) {
  Rng rng(seed);
  TrafficResult r;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    grid.for_each([&](TileCoord src) {
      if (noc.faults().is_faulty(src)) return;
      if (!rng.bernoulli(rate)) return;
      const TileCoord dst = grid.coord_of(rng.below(grid.tile_count()));
      if (dst == src || noc.faults().is_faulty(dst)) return;
      noc.issue(src, dst, noc::PacketType::ReadRequest);
    });
    noc.step(r.done);
  }
  r.drained = noc.drain(r.done);
  return r;
}

void expect_stats_equal(const noc::NocStats& a, const noc::NocStats& b) {
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.unreachable, b.unreachable);
  EXPECT_EQ(a.relayed, b.relayed);
  EXPECT_EQ(a.latency_sum, b.latency_sum);
  EXPECT_EQ(a.latency_max, b.latency_max);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.stale_packets, b.stale_packets);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.crc_detected, b.crc_detected);
  EXPECT_EQ(a.link_retransmits, b.link_retransmits);
  EXPECT_EQ(a.links_retired, b.links_retired);
  EXPECT_EQ(a.escapes, b.escapes);
}

double mean_latency(const std::vector<noc::CompletedTransaction>& done) {
  if (done.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& t : done) sum += static_cast<double>(t.latency());
  return sum / static_cast<double>(done.size());
}

std::uint64_t mesh_dup_dropped(const noc::NocSystem& noc) {
  return noc.network(noc::NetworkKind::XY).stats().dup_dropped +
         noc.network(noc::NetworkKind::YX).stats().dup_dropped;
}

// ----------------------------------------------------------- BER model

TEST(BerModel, Crc8MatchesTheCheckValue) {
  // Standard CRC-8 (poly 0x07, init 0, MSB first) check value.
  const char* msg = "123456789";
  EXPECT_EQ(noc::crc8(reinterpret_cast<const std::uint8_t*>(msg), 9), 0xF4);
}

TEST(BerModel, PacketCrcCoversTheWireImage) {
  noc::Packet p;
  p.src = {1, 2};
  p.dst = {3, 4};
  p.payload = 0xDEADBEEFCAFEF00Dull;
  const std::uint8_t clean = noc::packet_crc(p);
  noc::Packet flipped = p;
  flipped.payload ^= 1;
  EXPECT_NE(noc::packet_crc(flipped), clean);
  // Simulator bookkeeping is not part of the wire image.
  noc::Packet relabeled = p;
  relabeled.id = 999;
  relabeled.injected_cycle = 123;
  EXPECT_EQ(noc::packet_crc(relabeled), clean);
}

TEST(BerModel, VoltageCurveIsMonotoneAndClamped) {
  const noc::BerParams params;
  // At or above nominal: the floor.
  EXPECT_DOUBLE_EQ(noc::ber_from_voltage(params.nominal_v, params),
                   params.floor_ber);
  EXPECT_DOUBLE_EQ(noc::ber_from_voltage(1.3, params), params.floor_ber);
  // One volts_per_decade below nominal costs exactly one decade.
  const double one_down =
      noc::ber_from_voltage(params.nominal_v - params.volts_per_decade,
                            params);
  EXPECT_NEAR(one_down / params.floor_ber, 10.0, 1e-6);
  // Monotone in sag, clamped at max_ber for a collapsed supply.
  double prev = params.floor_ber;
  for (double v = params.nominal_v; v > 0.5; v -= 0.01) {
    const double ber = noc::ber_from_voltage(v, params);
    EXPECT_GE(ber, prev);
    prev = ber;
  }
  EXPECT_DOUBLE_EQ(noc::ber_from_voltage(0.5, params), params.max_ber);
}

TEST(BerModel, PacketErrorProbabilityEdges) {
  EXPECT_DOUBLE_EQ(noc::packet_error_probability(0.0), 0.0);
  EXPECT_DOUBLE_EQ(noc::packet_error_probability(1.0), 1.0);
  const double p = noc::packet_error_probability(1e-4);
  // 1 - (1 - 1e-4)^100 ~= 1 - exp(-0.01) ~= 0.00995.
  EXPECT_NEAR(p, 0.00995, 1e-4);
  EXPECT_GT(noc::packet_error_probability(1e-3), p);
}

TEST(BerModel, LinkBerMapUsesTheWeakerEndpoint) {
  const TileGrid grid(3, 3);
  std::vector<double> v(grid.tile_count(), 1.1);
  v[grid.index_of({1, 1})] = 1.0;  // sagging center tile
  const noc::LinkBerMap map = noc::LinkBerMap::from_tile_voltages(grid, v);
  const double sag_ber = noc::ber_from_voltage(1.0);
  // Every link touching (1,1) is limited by the sagged endpoint — in both
  // travel directions.
  EXPECT_DOUBLE_EQ(map.ber({1, 1}, Direction::East), sag_ber);
  EXPECT_DOUBLE_EQ(map.ber({0, 1}, Direction::East), sag_ber);
  EXPECT_DOUBLE_EQ(map.ber({1, 0}, Direction::North), sag_ber);
  // A link between two healthy tiles sits at the floor.
  EXPECT_DOUBLE_EQ(map.ber({0, 0}, Direction::East),
                   noc::BerParams{}.floor_ber);
  EXPECT_FALSE(map.error_free());
  EXPECT_TRUE(noc::LinkBerMap(grid).error_free());
}

TEST(BerModel, LinkBerMapMatchesThePerLinkOracleByteForByte) {
  // The oracle evaluates the curve per link at min(v_a, v_b), clamped, as
  // set_ber would store it.  Voltages are drawn from a few levels (ties),
  // above nominal (floor) and far below it (max_ber).
  const noc::BerParams params{1.1, 1e-6, 0.003, 0.05};
  const double levels[] = {1.2, 1.1, 1.1 - 1e-12, 1.095, 1.09, 1.0, 0.3};
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  Rng rng(0x0BE5);
  const int shapes[][2] = {{1, 1}, {1, 7}, {7, 1}, {2, 2}, {5, 3}, {16, 16}};
  for (const auto& shape : shapes) {
    const TileGrid grid(shape[0], shape[1]);
    for (int trial = 0; trial < 8; ++trial) {
      SCOPED_TRACE(std::to_string(shape[0]) + "x" + std::to_string(shape[1]) +
                   " trial " + std::to_string(trial));
      std::vector<double> v(grid.tile_count());
      for (double& x : v)
        x = rng.uniform() < 0.5 ? levels[rng.below(std::size(levels))]
                                : 1.08 + 0.03 * rng.uniform();
      const noc::LinkBerMap map =
          noc::LinkBerMap::from_tile_voltages(grid, v, params);
      bool any = false;
      grid.for_each([&](TileCoord c) {
        for (const Direction d : kAllDirections) {
          double ber = 0.0;
          if (const auto n = grid.neighbor(c, d)) {
            ber = std::clamp(
                noc::ber_from_voltage(
                    std::min(v[grid.index_of(c)], v[grid.index_of(*n)]),
                    params),
                0.0, 1.0);
          }
          const double p = noc::packet_error_probability(ber);
          any = any || p > 0.0;
          EXPECT_EQ(bits(map.ber(c, d)), bits(ber));
          EXPECT_EQ(bits(map.packet_error_prob(c, d)), bits(p));
        }
      });
      EXPECT_EQ(map.error_free(), !any);
    }
  }
}

TEST(BerModel, LinkBerMapRejectsNonFiniteVoltages) {
  // A NaN BER fails every `p > 0` and `uniform() < p` test, so the link
  // would silently never err; the map refuses such a voltage instead.
  const TileGrid grid(3, 2);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<double> v(grid.tile_count(), 1.05);
    v[grid.index_of({1, 1})] = bad;
    EXPECT_THROW(noc::LinkBerMap::from_tile_voltages(grid, v), Error) << bad;
  }
}

// ------------------------------------------- channel + CRC + retransmit

TEST(LinkIntegrity, CleanChannelIsBitIdenticalToIntegrityOff) {
  const TileGrid grid(6, 6);
  const FaultMap faults(grid);
  noc::NocOptions base;
  base.response_timeout = 400;

  noc::NocOptions with_integrity = base;
  with_integrity.mesh.integrity.enabled = true;  // BER map defaults to 0

  noc::NocSystem off(faults, base);
  noc::NocSystem on(faults, with_integrity);
  const TrafficResult r_off = run_uniform_traffic(off, grid, 2000, 0.03, 42);
  const TrafficResult r_on = run_uniform_traffic(on, grid, 2000, 0.03, 42);

  EXPECT_TRUE(r_off.drained);
  EXPECT_TRUE(r_on.drained);
  expect_stats_equal(off.stats(), on.stats());
  ASSERT_EQ(r_off.done.size(), r_on.done.size());
  for (std::size_t i = 0; i < r_off.done.size(); ++i) {
    EXPECT_EQ(r_off.done[i].id, r_on.done[i].id);
    EXPECT_EQ(r_off.done[i].complete_cycle, r_on.done[i].complete_cycle);
  }
}

TEST(LinkIntegrity, RetransmissionRepairsCorruptionWithoutLoss) {
  const TileGrid grid(6, 6);
  const FaultMap faults(grid);
  noc::NocOptions opt;
  opt.response_timeout = 400;
  opt.mesh.integrity.enabled = true;

  noc::NocSystem noc(faults, opt);
  noc.set_link_ber(noc::LinkBerMap::uniform(grid, 1e-3));
  const TrafficResult r = run_uniform_traffic(noc, grid, 3000, 0.02, 7);

  const noc::NocStats st = noc.stats();
  EXPECT_TRUE(r.drained);
  EXPECT_GT(st.crc_detected, 0u);
  EXPECT_GT(st.link_retransmits, 0u);
  // Hop-level repair keeps the end-to-end machinery out of it entirely.
  EXPECT_EQ(st.lost, 0u);
  EXPECT_EQ(st.completed, st.issued);
  EXPECT_EQ(mesh_dup_dropped(noc), 0u);
  EXPECT_TRUE(noc.packet_conservation_holds());
}

TEST(LinkIntegrity, HopRecoveryBeatsTheEndToEndTimeoutPath) {
  const TileGrid grid(6, 6);
  const FaultMap faults(grid);
  noc::NocOptions opt;
  opt.response_timeout = 300;
  opt.mesh.integrity.enabled = true;

  noc::NocOptions no_retx = opt;
  no_retx.mesh.integrity.retransmit = false;

  noc::NocSystem with(faults, opt);
  noc::NocSystem without(faults, no_retx);
  const auto ber = noc::LinkBerMap::uniform(grid, 1e-3);
  with.set_link_ber(ber);
  without.set_link_ber(ber);

  const TrafficResult r_with = run_uniform_traffic(with, grid, 3000, 0.02, 7);
  const TrafficResult r_without =
      run_uniform_traffic(without, grid, 3000, 0.02, 7);

  const noc::NocStats a = with.stats();
  const noc::NocStats b = without.stats();
  // Without retransmission every detected error is a drop that costs a
  // full timeout round trip (and can exhaust retries into a loss).
  EXPECT_GT(b.timeouts, a.timeouts);
  const std::uint64_t drops =
      without.network(noc::NetworkKind::XY).stats().link_error_drops +
      without.network(noc::NetworkKind::YX).stats().link_error_drops;
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(a.lost, 0u);
  EXPECT_LT(mean_latency(r_with.done), mean_latency(r_without.done));
  EXPECT_TRUE(r_with.drained);
  EXPECT_TRUE(r_without.drained);
}

TEST(LinkIntegrity, EscapesAreRareRelativeToDetections) {
  const TileGrid grid(5, 5);
  const FaultMap faults(grid);
  noc::NocOptions opt;
  opt.response_timeout = 400;
  opt.mesh.integrity.enabled = true;

  noc::NocSystem noc(faults, opt);
  noc.set_link_ber(noc::LinkBerMap::uniform(grid, 2e-3));
  (void)run_uniform_traffic(noc, grid, 4000, 0.03, 11);

  const noc::NocStats st = noc.stats();
  ASSERT_GT(st.crc_detected, 100u);
  // The CRC aliases with probability 1/256; allow a loose margin.
  EXPECT_LT(st.escapes * 32, st.crc_detected);
}

// ------------------------------------------------ conservation invariant

TEST(LinkIntegrity, PacketConservationHoldsAcrossReplans) {
  const TileGrid grid(6, 6);
  FaultMap faults(grid);
  noc::NocOptions opt;
  opt.response_timeout = 300;
  opt.mesh.integrity.enabled = true;

  noc::NocSystem noc(faults, opt);
  noc.set_link_ber(noc::LinkBerMap::uniform(grid, 5e-4));

  const auto gen =
      workloads::make_synthetic({.injection_rate = 0.02}, faults, Rng(23));
  workloads::TrafficDriver driver(noc, *gen);
  const std::vector<TileCoord> kills = {{2, 3}, {4, 1}, {1, 4}};
  std::size_t next_kill = 0;
  for (std::uint64_t c = 0; c < 3000; ++c) {
    driver.step();
    ASSERT_TRUE(noc.packet_conservation_holds()) << "cycle " << c;
    if (c > 0 && c % 800 == 0 && next_kill < kills.size()) {
      // Mid-run replan: a tile dies, the selector cache is invalidated,
      // packets buffered inside it are purged — all still conserved.
      faults.set_faulty(kills[next_kill++], true);
      noc.apply_fault_state(faults);
      gen->apply_fault_state(faults);
      ASSERT_TRUE(noc.packet_conservation_holds());
    }
  }
  driver.drain();
  EXPECT_TRUE(noc.packet_conservation_holds());
  EXPECT_EQ(noc.stats().replans, kills.size());
}

// -------------------------------------------- corruption stat regression

TEST(LinkIntegrity, InjectedCorruptionIsCountedExactlyOnce) {
  const TileGrid grid(4, 4);
  const FaultMap faults(grid);
  noc::NocOptions opt;
  opt.response_timeout = 200;
  noc::NocSystem noc(faults, opt);

  // Converging traffic so some packet is queued (not link-borne) when the
  // corruption sweep runs.
  const TileCoord srcs[] = {{0, 0}, {3, 0}, {0, 3}, {1, 1}, {2, 0}, {0, 2}};
  for (const TileCoord src : srcs)
    ASSERT_TRUE(noc.issue(src, {3, 3}, noc::PacketType::ReadRequest));
  std::vector<noc::CompletedTransaction> done;
  bool corrupted = false;
  for (int cycle = 0; cycle < 50 && !corrupted; ++cycle) {
    noc.step(done);
    grid.for_each([&](TileCoord t) {
      if (!corrupted && noc.inject_corruption(t)) corrupted = true;
    });
  }
  ASSERT_TRUE(corrupted);

  // Exactly one corruption event: the system-level count must equal the
  // sum of the mesh-level counts (the layer that owns the counter), not
  // double it.
  const std::uint64_t mesh_sum =
      noc.network(noc::NetworkKind::XY).stats().corrupted +
      noc.network(noc::NetworkKind::YX).stats().corrupted;
  EXPECT_EQ(noc.stats().corrupted, 1u);
  EXPECT_EQ(mesh_sum, 1u);
  EXPECT_TRUE(noc.packet_conservation_holds());
  noc.drain(done);
  EXPECT_TRUE(noc.packet_conservation_holds());
}

// ------------------------------------------------------- seeded fuzzing

TEST(LinkIntegrity, SeededFuzzNoDuplicatesNoLivelockBitIdentical) {
  const TileGrid grid(5, 5);
  const double bers[] = {0.0, 1e-4, 1e-3};

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto run_once = [&](std::vector<noc::CompletedTransaction>& done) {
      Rng setup(seed * 977);
      FaultMap faults =
          FaultMap::random_with_probability(grid, 0.06, setup);
      noc::NocOptions opt;
      opt.response_timeout = 300;
      opt.mesh.integrity.enabled = true;
      opt.mesh.integrity.seed = seed * 131;
      noc::NocSystem noc(faults, opt);
      noc.set_link_ber(
          noc::LinkBerMap::uniform(grid, bers[seed % 3]));

      Rng rng(seed);
      const TileCoord kill = grid.coord_of(setup.below(grid.tile_count()));
      for (std::uint64_t c = 0; c < 1500; ++c) {
        grid.for_each([&](TileCoord src) {
          if (noc.faults().is_faulty(src)) return;
          if (!rng.bernoulli(0.03)) return;
          const TileCoord dst =
              grid.coord_of(rng.below(grid.tile_count()));
          if (dst == src || noc.faults().is_faulty(dst)) return;
          noc.issue(src, dst, noc::PacketType::ReadRequest);
        });
        noc.step(done);
        if (c == 700 && faults.is_healthy(kill)) {
          faults.set_faulty(kill, true);
          noc.apply_fault_state(faults);
        }
      }
      const bool drained = noc.drain(done);
      // No livelock: with timeouts armed, every transaction resolves.
      EXPECT_TRUE(drained) << "seed " << seed;
      // Link retransmission is idempotent at the receiver.
      EXPECT_EQ(mesh_dup_dropped(noc), 0u) << "seed " << seed;
      EXPECT_TRUE(noc.packet_conservation_holds()) << "seed " << seed;
      return noc.stats();
    };

    std::vector<noc::CompletedTransaction> done1, done2;
    const noc::NocStats s1 = run_once(done1);
    const noc::NocStats s2 = run_once(done2);

    // No transaction completes twice.
    std::map<std::uint64_t, int> counts;
    for (const auto& t : done1) ++counts[t.id];
    for (const auto& [id, n] : counts)
      EXPECT_EQ(n, 1) << "transaction " << id << " completed " << n
                      << " times (seed " << seed << ")";

    // Identical seeds are bit-identical.
    expect_stats_equal(s1, s2);
    ASSERT_EQ(done1.size(), done2.size()) << "seed " << seed;
    for (std::size_t i = 0; i < done1.size(); ++i) {
      EXPECT_EQ(done1[i].id, done2[i].id);
      EXPECT_EQ(done1[i].complete_cycle, done2[i].complete_cycle);
    }
  }
}

// --------------------------------- selector replans across brownout cycles

TEST(NetworkSelector, PlansFollowBrownoutRestoreCycles) {
  const TileGrid grid(6, 6);
  const FaultMap healthy(grid);
  FaultMap browned(grid);
  browned.set_faulty({3, 2}, true);  // brownout collateral on the row

  noc::NocOptions opt;
  opt.response_timeout = 300;
  noc::NocSystem noc(healthy, opt);

  const TileCoord src{0, 2};
  const TileCoord dst{5, 2};

  std::vector<noc::CompletedTransaction> done;
  for (int cycle = 0; cycle < 2; ++cycle) {
    // Brownout: the direct row is broken; the plan must route around it.
    noc.apply_fault_state(browned);
    const noc::RoutePlan degraded = noc.selector().plan(src, dst);
    ASSERT_TRUE(degraded.reachable);
    for (const TileCoord wp : degraded.waypoints)
      EXPECT_FALSE(browned.is_faulty(wp));
    ASSERT_TRUE(noc.issue(src, dst, noc::PacketType::ReadRequest));
    EXPECT_TRUE(noc.drain(done));

    // Restore: no stale degraded route may survive the rebind — the pair
    // goes back to a direct (two-waypoint) plan and traffic through the
    // previously browned tile works again.
    noc.apply_fault_state(healthy);
    const noc::RoutePlan restored = noc.selector().plan(src, dst);
    ASSERT_TRUE(restored.reachable);
    EXPECT_FALSE(restored.relayed);
    EXPECT_EQ(restored.waypoints.size(), 2u);
    ASSERT_TRUE(noc.issue(src, {3, 2}, noc::PacketType::ReadRequest));
    EXPECT_TRUE(noc.drain(done));
  }
  // Every apply is a replan: 4 applies = 4 replans.
  EXPECT_EQ(noc.stats().replans, 4u);
}

// ----------------------------------------------------- health monitoring

TEST(LinkHealth, MonitorRetiresASustainedHighBerLink) {
  const TileGrid grid(5, 5);
  const FaultMap faults(grid);
  noc::NocOptions opt;
  opt.response_timeout = 400;
  opt.mesh.integrity.enabled = true;
  noc::NocSystem noc(faults, opt);

  noc::LinkBerMap ber(grid);
  ber.set_ber({2, 2}, Direction::East, 8e-3);  // one marginal link
  noc.set_link_ber(ber);

  noc::LinkHealthMonitor monitor(grid);
  std::vector<noc::CompletedTransaction> done;
  // Hammer the marginal link: (2,2) -> (4,2) rides east along the row.
  for (int i = 0; i < 120; ++i) {
    noc.issue({2, 2}, {4, 2}, noc::PacketType::ReadRequest);
    noc.step(done);
  }
  ASSERT_TRUE(noc.drain(done));

  const auto due = monitor.scrub(noc);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].tile, (TileCoord{2, 2}));
  EXPECT_EQ(due[0].dir, Direction::East);
  EXPECT_GE(due[0].errors, noc::LinkHealthMonitor::kMinErrors);
  EXPECT_GE(due[0].traversals, noc::LinkHealthMonitor::kMinTraversals);
  EXPECT_TRUE(monitor.is_retired({2, 2}, Direction::East));
  // Reported once: a second scrub returns nothing new.
  EXPECT_TRUE(monitor.scrub(noc).empty());

  // Retiring reroutes the pair but keeps it reachable.
  ASSERT_TRUE(noc.retire_link({2, 2}, Direction::East));
  EXPECT_EQ(noc.stats().links_retired, 1u);
  const noc::RoutePlan plan = noc.selector().plan({2, 2}, {4, 2});
  EXPECT_TRUE(plan.reachable);
  ASSERT_TRUE(noc.issue({2, 2}, {4, 2}, noc::PacketType::ReadRequest));
  EXPECT_TRUE(noc.drain(done));
  EXPECT_FALSE(noc.retire_link({2, 2}, Direction::East));  // already gone
}

TEST(LinkHealth, JtagScrubPathMatchesDirectScrub) {
  const TileGrid grid(3, 3);
  const FaultMap faults(grid);
  noc::NocOptions opt;
  opt.response_timeout = 400;
  opt.mesh.integrity.enabled = true;
  noc::NocSystem noc(faults, opt);
  noc.set_link_ber(noc::LinkBerMap::uniform(grid, 5e-3));
  (void)run_uniform_traffic(noc, grid, 1200, 0.05, 3);

  // Firmware deposits each tile's packed counters into its scrub SRAM;
  // the host harvests the whole wafer over the unrolled JTAG chain.
  testinfra::LinkScrubChain chain(grid);
  grid.for_each([&](TileCoord tile) {
    chain.deposit(grid.index_of(tile), noc::pack_scrub_words(noc, tile));
  });
  const auto harvested = chain.scrub();
  ASSERT_EQ(harvested.size(), grid.tile_count());
  EXPECT_GT(chain.tck_count(), 0u);

  // The chain transports the words bit-exactly, per tile.
  bool any_nonzero = false;
  grid.for_each([&](TileCoord tile) {
    const auto direct = noc::pack_scrub_words(noc, tile);
    EXPECT_EQ(harvested[grid.index_of(tile)], direct);
    for (const std::uint32_t w : direct) any_nonzero |= w != 0;
  });
  EXPECT_TRUE(any_nonzero);

  // And the monitor decides identically from either transport.
  noc::LinkHealthMonitor via_jtag(grid);
  noc::LinkHealthMonitor direct(grid);
  std::vector<noc::RetiredLink> from_jtag;
  grid.for_each([&](TileCoord tile) {
    const auto links =
        via_jtag.ingest(tile, harvested[grid.index_of(tile)], noc.now());
    from_jtag.insert(from_jtag.end(), links.begin(), links.end());
  });
  const auto from_direct = direct.scrub(noc);
  ASSERT_EQ(from_jtag.size(), from_direct.size());
  for (std::size_t i = 0; i < from_jtag.size(); ++i) {
    EXPECT_EQ(from_jtag[i].tile, from_direct[i].tile);
    EXPECT_EQ(from_jtag[i].dir, from_direct[i].dir);
    EXPECT_EQ(from_jtag[i].errors, from_direct[i].errors);
    EXPECT_EQ(from_jtag[i].traversals, from_direct[i].traversals);
  }
}

TEST(LinkHealth, ScrubWordSaturates) {
  EXPECT_EQ(noc::pack_scrub_word(0, 0), 0u);
  EXPECT_EQ(noc::pack_scrub_word(3, 100), (3u << 16) | 100u);
  EXPECT_EQ(noc::pack_scrub_word(0xFFFF, 0xFFFF), 0xFFFFFFFFu);
  // Past 16 bits of traversals both halves shift right together (here by
  // 5), so the packed ratio is the true one.
  EXPECT_EQ(noc::pack_scrub_word(1u << 20, 1u << 20), 0x80008000u);
  EXPECT_EQ(noc::pack_scrub_word(3u << 18, 1u << 20), 0x60008000u);
  // Errors beyond traversals still saturate their own half.
  EXPECT_EQ(noc::pack_scrub_word(1u << 30, 1u << 20), 0xFFFF8000u);
}

TEST(LinkHealth, SaturatedScrubWordKeepsTheErrorRate) {
  // A busy link's counters overflow 16 bits.  The monitor must judge it by
  // its true error rate: 1,311 errors in 2^24 traversals (7.8e-5) stays
  // in service, and a link at a true 3% rate is retired.
  const TileGrid grid(2, 2);
  const std::uint32_t idle = noc::pack_scrub_word(0, 0);
  noc::LinkHealthMonitor monitor(grid);
  EXPECT_TRUE(monitor
                  .ingest({0, 0},
                          {noc::pack_scrub_word(1311, 1u << 24), idle, idle,
                           idle},
                          100)
                  .empty());
  EXPECT_FALSE(monitor.is_retired({0, 0}, kAllDirections[0]));

  const std::uint64_t traversals = 3'000'000;
  const std::uint64_t errors = traversals * 3 / 100;
  const auto due = monitor.ingest(
      {1, 1}, {idle, noc::pack_scrub_word(errors, traversals), idle, idle},
      200);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].dir, kAllDirections[1]);
  EXPECT_TRUE(monitor.is_retired({1, 1}, kAllDirections[1]));
  // The report carries the scaled counts, whose ratio is the true rate.
  EXPECT_LT(due[0].traversals, 1u << 16);
  EXPECT_NEAR(static_cast<double>(due[0].errors) /
                  static_cast<double>(due[0].traversals),
              0.03, 1e-3);
}

// ------------------------------------------------- campaign integration

TEST(LinkIntegrityCampaign, BerEventRetiresLinkAndKeepsSsi) {
  resilience::CampaignOptions opt;
  opt.config = SystemConfig::reduced(6, 6);
  opt.seed = 5;
  opt.run_cycles = 4000;
  opt.injection_rate = 0.04;
  opt.noc.mesh.integrity.enabled = true;

  // One link's eye collapses at cycle 200: BER jumps five decades above
  // the healthy-plane floor.  No tile ever dies.
  resilience::FaultSchedule schedule;
  resilience::FaultEvent e;
  e.cycle = 200;
  e.kind = RuntimeFaultKind::LinkBerDegradation;
  e.tile = {2, 3};
  e.link = Direction::East;
  e.magnitude = 8e-3;
  schedule.add(e);
  opt.schedule = schedule;

  const resilience::DegradationCampaign campaign(opt);
  const resilience::DegradationReport r1 = campaign.run();

  // The monitor caught the marginal link and retired it pre-failure...
  ASSERT_FALSE(r1.retirements.empty());
  EXPECT_EQ(r1.retirements[0].tile, (TileCoord{2, 3}));
  EXPECT_EQ(r1.retirements[0].dir, Direction::East);
  EXPECT_GE(r1.noc_stats.links_retired, 1u);
  EXPECT_GT(r1.noc_stats.crc_detected, 0u);
  EXPECT_GT(r1.noc_stats.link_retransmits, 0u);
  // ...while the wafer stays a single system image and traffic drains.
  EXPECT_TRUE(r1.single_system_image);
  EXPECT_TRUE(r1.drained);
  EXPECT_EQ(r1.final_usable, r1.initial_usable);

  // Identical seeds remain bit-identical with the integrity layer on.
  const resilience::DegradationReport r2 = campaign.run();
  expect_stats_equal(r1.noc_stats, r2.noc_stats);
  ASSERT_EQ(r1.retirements.size(), r2.retirements.size());
  for (std::size_t i = 0; i < r1.retirements.size(); ++i) {
    EXPECT_EQ(r1.retirements[i].cycle, r2.retirements[i].cycle);
    EXPECT_EQ(r1.retirements[i].errors, r2.retirements[i].errors);
  }
  EXPECT_EQ(r1.trajectory, r2.trajectory);
}

TEST(LinkIntegrityCampaign, RandomScheduleSamplesBerEvents) {
  const TileGrid grid(8, 8);
  resilience::ScheduleMix mix;
  mix.link_ber_degradations = 3;
  Rng rng(17);
  const resilience::FaultSchedule s =
      resilience::FaultSchedule::random(grid, mix, 2000, rng);
  int ber_events = 0;
  for (const resilience::FaultEvent& ev : s.events())
    if (ev.kind == RuntimeFaultKind::LinkBerDegradation) {
      ++ber_events;
      EXPECT_GE(ev.magnitude, 1e-5);
      EXPECT_LE(ev.magnitude, 1e-2);
      EXPECT_TRUE(grid.neighbor(ev.tile, ev.link).has_value());
    }
  EXPECT_EQ(ber_events, 3);
}

}  // namespace
}  // namespace wsp
