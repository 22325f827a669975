// Cycle-level NoC tests: single-network mesh behaviour, dual-network
// request/response pairing (Fig. 7), kernel network selection,
// intermediate-tile relaying, and the transaction layer's ready queues,
// retry options and live-transaction tracking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>

#include "stat_oracles.hpp"
#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/error.hpp"
#include "wsp/noc/mesh_network.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/noc/traffic.hpp"
#include "wsp/obs/metrics.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace wsp::noc {
namespace {

Packet make_packet(TileCoord src, TileCoord dst, std::uint64_t id) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.id = id;
  p.request_id = id;
  return p;
}

// ------------------------------------------------------------ MeshNetwork

TEST(MeshNetwork, DeliversSinglePacket) {
  MeshNetwork net(FaultMap(TileGrid(8, 8)), NetworkKind::XY);
  ASSERT_TRUE(net.inject(make_packet({0, 0}, {5, 0}, 1)));
  std::vector<Packet> out;
  for (int c = 0; c < 50 && out.empty(); ++c) net.step(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(net.stats().ejected, 1u);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(MeshNetwork, LatencyScalesWithHops) {
  // Hop latency = link_latency per hop plus router cycles: a 2x-longer
  // path takes about 2x longer.
  auto latency_for = [](TileCoord dst) {
    MeshNetwork net(FaultMap(TileGrid(16, 16)), NetworkKind::XY,
                    {.input_queue_capacity = 4, .link_latency = 2});
    Packet p = make_packet({0, 0}, dst, 1);
    EXPECT_TRUE(net.inject(p));
    std::vector<Packet> out;
    for (int c = 0; c < 200 && out.empty(); ++c) net.step(out);
    EXPECT_EQ(out.size(), 1u);
    return out[0].delivered_cycle;
  };
  const auto l4 = latency_for({4, 0});
  const auto l8 = latency_for({8, 0});
  EXPECT_GT(l8, l4);
  EXPECT_NEAR(static_cast<double>(l8) / l4, 2.0, 0.5);
}

TEST(MeshNetwork, SelfDeliveryEjectsLocally) {
  MeshNetwork net(FaultMap(TileGrid(4, 4)), NetworkKind::XY);
  ASSERT_TRUE(net.inject(make_packet({2, 2}, {2, 2}, 9)));
  std::vector<Packet> out;
  for (int c = 0; c < 5 && out.empty(); ++c) net.step(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 9u);
}

TEST(MeshNetwork, InOrderDeliveryPerPair) {
  MeshNetwork net(FaultMap(TileGrid(8, 8)), NetworkKind::XY);
  std::vector<Packet> out;
  std::uint64_t id = 1;
  int injected = 0;
  for (int c = 0; c < 400; ++c) {
    if (injected < 50) {
      Packet p = make_packet({0, 3}, {7, 5}, id);
      p.payload = id;
      if (net.inject(p)) {
        ++id;
        ++injected;
      }
    }
    net.step(out);
  }
  for (int c = 0; c < 200; ++c) net.step(out);
  ASSERT_EQ(out.size(), 50u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].payload, i + 1) << "out-of-order delivery";
}

TEST(MeshNetwork, BackpressureBlocksInjection) {
  // Tiny queues + a flood toward one destination: injection must
  // eventually refuse instead of dropping.
  MeshNetwork net(FaultMap(TileGrid(4, 4)), NetworkKind::XY,
                  {.input_queue_capacity = 1, .link_latency = 1});
  int accepted = 0;
  std::vector<Packet> out;
  for (int c = 0; c < 10; ++c) {
    if (net.inject(make_packet({0, 0}, {3, 3}, 100 + c))) ++accepted;
  }
  EXPECT_LT(accepted, 10);
  for (int c = 0; c < 200; ++c) net.step(out);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(accepted));
}

TEST(MeshNetwork, DropsPacketRoutedIntoFaultyTile) {
  FaultMap faults(TileGrid(8, 8));
  faults.set_faulty({4, 0});
  MeshNetwork net(faults, NetworkKind::XY);
  // XY route (0,0)->(7,0) runs straight through the dead tile.
  ASSERT_TRUE(net.inject(make_packet({0, 0}, {7, 0}, 1)));
  std::vector<Packet> out;
  for (int c = 0; c < 100; ++c) net.step(out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(net.stats().dropped_at_fault, 1u);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(MeshNetwork, CannotInjectAtFaultyTile) {
  FaultMap faults(TileGrid(4, 4));
  faults.set_faulty({1, 1});
  MeshNetwork net(faults, NetworkKind::XY);
  EXPECT_FALSE(net.inject(make_packet({1, 1}, {0, 0}, 1)));
}

TEST(MeshNetwork, ThroughputUnderContention) {
  // All tiles firing at one column still drains: conservation check.
  MeshNetwork net(FaultMap(TileGrid(8, 8)), NetworkKind::XY);
  std::vector<Packet> out;
  std::uint64_t id = 1;
  for (int round = 0; round < 20; ++round) {
    for (int y = 0; y < 8; ++y)
      net.inject(make_packet({0, y}, {7, 7 - y}, id++));
    net.step(out);
  }
  for (int c = 0; c < 500; ++c) net.step(out);
  EXPECT_EQ(out.size() + net.stats().dropped_at_fault,
            net.stats().injected);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(MeshNetwork, RotatingPriorityGrantsAllFiveInputsInTurn) {
  // Eight tiles on the cross through (2,2) of a 5x5 XY mesh, and (2,2)
  // itself, keep injecting toward (2,2), so all five of its input FIFOs
  // hold packets for the Local output.  It grants one per cycle, and the
  // rotating priority walks N, E, S, W, Local.  Then the feeders stop one
  // by one, so the priority also has to skip idle inputs and wrap past the
  // last port.  The corners (0,0) and (4,4) deliver to themselves every
  // cycle, so most cycles eject at three tiles, in tile-index order.
  const TileGrid grid(5, 5);
  MeshNetwork net(FaultMap(grid), NetworkKind::XY);
  const TileCoord hot{2, 2};
  const TileCoord feeders[] = {{2, 4}, {2, 3}, {4, 2}, {3, 2}, {0, 2},
                               {1, 2}, {2, 0}, {2, 1}, {2, 2}};
  // Input port of `hot` a packet from `src` arrives on.
  const auto port_letter = [&](TileCoord src) {
    if (src.y > hot.y) return 'N';
    if (src.x > hot.x) return 'E';
    if (src.y < hot.y) return 'S';
    if (src.x < hot.x) return 'W';
    return 'L';
  };
  ckpt::Writer trace;
  std::string ports;
  std::vector<Packet> out;
  std::uint64_t id = 1;
  for (int cycle = 0; cycle < 60 || net.in_flight() != 0; ++cycle) {
    ASSERT_LT(cycle, 300) << "mesh did not drain";
    for (int k = 0; k < 9; ++k)
      if (cycle < 40 + 3 * (k * 5 % 9) &&
          net.inject(make_packet(feeders[k], hot, id)))
        ++id;
    if (cycle < 60) {
      for (const TileCoord c : {TileCoord{0, 0}, TileCoord{4, 4}})
        ASSERT_TRUE(net.inject(make_packet(c, c, id++)));
    }
    out.clear();
    net.step(out);
    for (std::size_t i = 1; i < out.size(); ++i)
      ASSERT_LT(grid.index_of(out[i - 1].dst), grid.index_of(out[i].dst))
          << "cycle " << cycle;
    for (const Packet& p : out) {
      trace.u64(p.id);
      trace.u64(p.delivered_cycle);
      if (p.dst == hot) ports += port_letter(p.src);
    }
  }
  EXPECT_TRUE(net.conservation_holds());

  // Until the link inputs fill, Local is the only requester; from then on
  // every input holds a packet each cycle and wins once every five.  Once
  // Local's feeder stops, the other four take turns until they drain.
  EXPECT_EQ(ports.substr(0, 60),
            "LLNESWLNESWLNESWLNESWLNESWLNESWLNESWLNESWLNESWLNESWLNESWLNES");
  EXPECT_EQ(ports.substr(60),
            "WLNESWLNESWNESWNESWNESWNESWNESWNESWNESWNESWNESWNESWNESWSS");
  // The whole ejection trace (ids and delivery cycles, in ejection order).
  const std::uint32_t crc = ckpt::crc32(trace.bytes().data(), trace.size());
  EXPECT_EQ(crc, 0x44bc4242u) << "actual 0x" << std::hex << crc;
}

struct EdgeRun {
  std::uint32_t crc = 0;
  MeshStats stats;
  int corrupted_calls = 0;  ///< corrupt_head_packet calls that hit a packet
};

/// One edge-case run on an 8x8 grid: seeded random traffic for 160 cycles,
/// then a drain.  Between cycles it kills tile (3,3) and retires the link
/// leaving (5,5) eastward at cycle 60, revives the tile at cycle 80 (its
/// purged FIFOs must not leak credits), corrupts the head packet of a
/// column-4 tile every 5th cycle up to 600 (column 4 never injects, so
/// whatever is buffered there waits on a link port), and at cycle 100
/// saves the mesh and carries on in a fresh mesh loaded from that
/// snapshot.  The CRC-32 covers the ordered ejection trace, then every
/// MeshStats field.
EdgeRun run_edge_case(NetworkKind kind, const MeshOptions& opt, double ber,
                      std::uint64_t seed) {
  const TileGrid grid(8, 8);
  auto mesh = std::make_unique<MeshNetwork>(FaultMap(grid), kind, opt);
  if (ber > 0.0) mesh->set_link_ber(LinkBerMap::uniform(grid, ber));
  Rng rng(seed);
  ckpt::Writer trace;
  EdgeRun run;
  std::vector<Packet> out;
  std::uint64_t id = 1;
  FaultMap faults(grid);
  LinkFaultSet links(grid);
  for (std::uint64_t cycle = 0; cycle < 20000; ++cycle) {
    if (cycle >= 160 && mesh->in_flight() == 0) break;
    if (cycle == 60 || cycle == 80) {
      faults.set_faulty({3, 3}, cycle == 60);
      links.set_failed({5, 5}, Direction::East);
      mesh->apply_fault_state(faults, links);
    }
    if (cycle == 100) {
      ckpt::Writer w;
      mesh->save_state(w);
      // The snapshot holds no fault state or BER map: restore them first.
      auto fresh = std::make_unique<MeshNetwork>(faults, kind, opt);
      fresh->apply_fault_state(faults, links);
      fresh->set_link_ber(mesh->link_ber());
      ckpt::Reader r(w.bytes());
      fresh->load_state(r);
      mesh = std::move(fresh);
    }
    for (int y = 0; cycle % 5 == 0 && cycle < 600 && y < 8; ++y) {
      if (mesh->corrupt_head_packet({4, y})) {
        ++run.corrupted_calls;
        break;
      }
    }
    for (int k = 0; k < 6 && cycle < 160; ++k) {
      Packet p;
      int x = static_cast<int>(rng.below(7));
      p.src = {x >= 4 ? x + 1 : x, static_cast<int>(rng.below(8))};
      // Half the packets eject in column 4, so its Local ports contend and
      // packets queue there on link ports.
      const int dx = rng.below(2) != 0 ? 4 : static_cast<int>(rng.below(8));
      p.dst = {dx, static_cast<int>(rng.below(8))};
      p.payload = rng();
      p.injected_cycle = cycle;
      p.id = id;
      if (mesh->inject(p)) ++id;
    }
    out.clear();
    mesh->step(out);
    for (const Packet& p : out) {
      trace.u64(p.id);
      trace.i32(p.src.x);
      trace.i32(p.src.y);
      trace.i32(p.dst.x);
      trace.i32(p.dst.y);
      trace.u64(p.payload);
      trace.u64(p.injected_cycle);
      trace.u64(p.delivered_cycle);
    }
    if (mesh->recount_in_flight() != mesh->in_flight() ||
        !mesh->conservation_holds()) {
      ADD_FAILURE() << "in-flight recount or conservation broken at cycle "
                    << cycle;
      break;
    }
  }
  EXPECT_EQ(mesh->in_flight(), 0u) << "mesh did not drain";
  run.stats = mesh->stats();
  const MeshStats& s = run.stats;
  for (const std::uint64_t v :
       {s.injected, s.ejected, s.dropped_at_fault, s.link_traversals, s.cycles,
        s.purged_in_dead_router, s.corrupted, s.crc_detected, s.crc_escapes,
        s.link_retransmits, s.link_error_drops, s.dup_dropped})
    trace.u64(v);
  run.crc = ckpt::crc32(trace.bytes().data(), trace.size());
  return run;
}

TEST(MeshNetwork, EdgeCaseTraceBytesArePinned) {
  // Each case pins the ejection order, the delivery cycles and every
  // counter of one corner of the step semantics: one-cycle links and
  // one-slot FIFOs, 70-cycle links whose frames and retries lap the
  // 64-bucket arrival wheel, hop retries and exhausted retransmit budgets,
  // retransmission off, and odd-even routing.  Every run also kills a tile with frames on the
  // wire toward it, corrupts link-port packets between cycles and resumes
  // from a snapshot mid-burst.  The receiver's sequence check rejects
  // nothing on any of these paths; its counter is pinned at zero.
  LinkIntegrityOptions on;
  on.enabled = true;
  LinkIntegrityOptions no_retransmit = on;
  no_retransmit.retransmit = false;
  struct Case {
    const char* name;
    NetworkKind kind;
    MeshOptions opt;
    double ber;
    std::uint32_t golden;
  };
  const Case cases[] = {
      {"latency 1, capacity 1", NetworkKind::YX,
       {.input_queue_capacity = 1, .link_latency = 1}, 0.0, 0xdd8c6f24u},
      {"latency 70", NetworkKind::XY,
       {.input_queue_capacity = 4, .link_latency = 70}, 0.0, 0xcedb161bu},
      {"latency 70, retries", NetworkKind::XY,
       {.input_queue_capacity = 3, .link_latency = 70, .integrity = on}, 2e-3,
       0x7f30e222u},
      {"heavy BER, capacity 2", NetworkKind::XY,
       {.input_queue_capacity = 2, .link_latency = 2, .integrity = on}, 5e-3,
       0x5b4604ceu},
      {"retransmission off", NetworkKind::YX,
       {.input_queue_capacity = 4, .link_latency = 3,
        .integrity = no_retransmit},
       1e-3, 0xb23195b5u},
      {"odd-even", NetworkKind::XY,
       {.input_queue_capacity = 2, .link_latency = 2,
        .adaptive_odd_even = true, .integrity = on},
       3e-3, 0xd9f0ea47u},
  };
  std::uint64_t seed = 1;
  for (const Case& c : cases) {
    const EdgeRun run = run_edge_case(c.kind, c.opt, c.ber, seed++);
    EXPECT_EQ(run.crc, c.golden)
        << c.name << ": actual 0x" << std::hex << run.crc;
    EXPECT_GT(run.corrupted_calls, 0) << c.name;
    EXPECT_EQ(run.stats.corrupted,
              static_cast<std::uint64_t>(run.corrupted_calls))
        << c.name;
    EXPECT_GT(run.stats.dropped_at_fault, 0u) << c.name;
    EXPECT_EQ(run.stats.dup_dropped, 0u) << c.name;
    if (c.opt.integrity.enabled) {
      EXPECT_GT(run.stats.crc_detected, 0u) << c.name;
      // A granted frame is dropped when the CRC catches its first attempt
      // and each of its 4 retries (1 attempt without retransmission), so
      // drops are Binomial(grants, p_detect^attempts).  Demand one only
      // where that law expects at least 14.
      const double p_detect =
          (1.0 - std::pow(1.0 - c.ber, 100.0)) * (1.0 - 1.0 / 256.0);
      const double p_drop =
          std::pow(p_detect, c.opt.integrity.retransmit ? 5.0 : 1.0);
      const std::uint64_t grants =
          run.stats.link_traversals - run.stats.link_retransmits;
      EXPECT_TRUE(oracle::binomial_consistent(grants, p_drop,
                                              run.stats.link_error_drops))
          << c.name << ": " << run.stats.link_error_drops << " drops of "
          << grants << " grants at p = " << p_drop;
      if (static_cast<double>(grants) * p_drop >= 14.0) {
        EXPECT_GT(run.stats.link_error_drops, 0u) << c.name;
      }
      if (c.opt.integrity.retransmit) {
        EXPECT_GT(run.stats.link_retransmits, 0u) << c.name;
      }
    }
  }
}

// ---------------------------------------------------------- NetworkSelector

TEST(NetworkSelector, BalancedPairsUseBothNetworks) {
  const NetworkSelector sel(FaultMap(TileGrid(16, 16)));
  int xy = 0, yx = 0;
  for (int x = 0; x < 16; ++x)
    for (int y = 0; y < 16; ++y) {
      const RoutePlan plan = sel.plan({0, 0}, {x, y});
      if (!plan.reachable) continue;
      ASSERT_EQ(plan.segment_networks.size(), 1u);
      (plan.segment_networks[0] == NetworkKind::XY ? xy : yx)++;
    }
  // Both networks carry a substantial share (paper: "equally utilized").
  EXPECT_GT(xy, 64);
  EXPECT_GT(yx, 64);
}

TEST(NetworkSelector, PlanIsDeterministicPerPair) {
  const NetworkSelector sel(FaultMap(TileGrid(8, 8)));
  const RoutePlan a = sel.plan({1, 2}, {6, 3});
  const RoutePlan b = sel.plan({1, 2}, {6, 3});
  EXPECT_EQ(a.segment_networks, b.segment_networks);
}

TEST(NetworkSelector, PicksTheSurvivingNetwork) {
  FaultMap faults(TileGrid(8, 8));
  faults.set_faulty({4, 0});  // kills XY for (0,0)->(7,3) via corner row
  const NetworkSelector sel(faults);
  const RoutePlan plan = sel.plan({0, 0}, {7, 3});
  ASSERT_TRUE(plan.reachable);
  EXPECT_FALSE(plan.relayed);
  EXPECT_EQ(plan.segment_networks[0], NetworkKind::YX);
}

TEST(NetworkSelector, RelaysWhenBothPathsDie) {
  FaultMap faults(TileGrid(8, 8));
  faults.set_faulty({3, 2});  // same-row blocker
  const NetworkSelector sel(faults);
  const RoutePlan plan = sel.plan({0, 2}, {7, 2});
  ASSERT_TRUE(plan.reachable);
  EXPECT_TRUE(plan.relayed);
  ASSERT_EQ(plan.waypoints.size(), 3u);
  EXPECT_EQ(plan.segment_networks.size(), 2u);
}

// --------------------------------------------------------------- NocSystem

TEST(NocSystem, ReadRoundTripCompletes) {
  NocSystem noc(FaultMap(TileGrid(8, 8)));
  const auto id = noc.issue({1, 1}, {6, 4}, PacketType::ReadRequest, 0xBEEF);
  ASSERT_TRUE(id.has_value());
  std::vector<CompletedTransaction> done;
  ASSERT_TRUE(noc.drain(done));
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, *id);
  EXPECT_EQ(done[0].src, (TileCoord{1, 1}));
  EXPECT_EQ(done[0].dst, (TileCoord{6, 4}));
  EXPECT_GT(done[0].latency(), 0u);
  EXPECT_EQ(noc.stats().completed, 1u);
}

TEST(NocSystem, ResponseUsesComplementaryNetwork) {
  // Fig. 7's protocol rule, observable through per-network stats: one
  // transaction puts exactly one packet on each network.
  NocSystem noc(FaultMap(TileGrid(8, 8)));
  ASSERT_TRUE(noc.issue({0, 0}, {5, 5}, PacketType::ReadRequest).has_value());
  std::vector<CompletedTransaction> done;
  ASSERT_TRUE(noc.drain(done));
  EXPECT_EQ(noc.network(NetworkKind::XY).stats().injected +
                noc.network(NetworkKind::YX).stats().injected,
            2u);
  EXPECT_EQ(noc.network(NetworkKind::XY).stats().injected, 1u);
  EXPECT_EQ(noc.network(NetworkKind::YX).stats().injected, 1u);
}

TEST(NocSystem, RoundTripWorksWheneverOnePathExists) {
  // Kill the XY path; two-way communication must still succeed.
  FaultMap faults(TileGrid(8, 8));
  faults.set_faulty({4, 0});
  NocSystem noc(faults);
  const auto id = noc.issue({0, 0}, {7, 3}, PacketType::WriteRequest);
  ASSERT_TRUE(id.has_value());
  std::vector<CompletedTransaction> done;
  ASSERT_TRUE(noc.drain(done));
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(noc.network(NetworkKind::XY).stats().dropped_at_fault, 0u);
  EXPECT_EQ(noc.network(NetworkKind::YX).stats().dropped_at_fault, 0u);
}

TEST(NocSystem, RelayedTransactionCompletesWithExtraLatency) {
  FaultMap faults(TileGrid(8, 8));
  faults.set_faulty({3, 2});
  NocSystem noc(faults);
  std::vector<CompletedTransaction> done;

  // A clean same-distance pair for comparison.
  NocSystem clean(FaultMap(TileGrid(8, 8)));
  ASSERT_TRUE(clean.issue({0, 2}, {7, 2}, PacketType::ReadRequest));
  std::vector<CompletedTransaction> clean_done;
  ASSERT_TRUE(clean.drain(clean_done));

  ASSERT_TRUE(noc.issue({0, 2}, {7, 2}, PacketType::ReadRequest));
  ASSERT_TRUE(noc.drain(done));
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].relayed);
  EXPECT_EQ(noc.stats().relayed, 1u);
  // The relay costs extra hops plus core cycles at the intermediate tile.
  EXPECT_GT(done[0].latency(), clean_done[0].latency());
}

TEST(NocSystem, UnreachableDestinationRejected) {
  FaultMap faults(TileGrid(8, 8));
  for (TileCoord f : {TileCoord{4, 5}, TileCoord{5, 4}, TileCoord{4, 3},
                      TileCoord{3, 4}})
    faults.set_faulty(f);
  NocSystem noc(faults);
  EXPECT_FALSE(noc.issue({0, 0}, {4, 4}, PacketType::ReadRequest).has_value());
  EXPECT_EQ(noc.stats().unreachable, 1u);
}

TEST(NocSystem, ManyTransactionsAllComplete) {
  NocSystem noc(FaultMap(TileGrid(8, 8)));
  Rng rng(3);
  const TileGrid grid(8, 8);
  int issued = 0;
  std::vector<CompletedTransaction> done;
  for (int i = 0; i < 500; ++i) {
    const TileCoord s = grid.coord_of(rng.below(64));
    const TileCoord d = grid.coord_of(rng.below(64));
    if (noc.issue(s, d, PacketType::ReadRequest, rng()).has_value())
      ++issued;
    noc.step(done);
  }
  ASSERT_TRUE(noc.drain(done));
  EXPECT_EQ(static_cast<int>(done.size()), issued);
  EXPECT_EQ(noc.stats().completed, static_cast<std::uint64_t>(issued));
}

TEST(NocSystem, ZeroLoadRoundTripMatchesClosedForm) {
  // The one-packet extreme: each ordered pair of a fault-free 8x8 wafer is
  // issued alone on an idle system.  From the documented cycle semantics
  // (DESIGN.md "NoC cycle semantics"):
  //   * issue() at cycle c queues the request for cycle c, and step c
  //     injects it and routes it out of the source in the same cycle;
  //   * a grant at cycle t lands at t + link_latency, and the landing tile
  //     routes it onward, or ejects it, in that same cycle: each hop costs
  //     link_latency and ejection costs nothing;
  //   * the destination answers kServiceLatency cycles after the request
  //     ejects, over the same tiles on the complementary network.
  // So the round trip is 2 * hops * link_latency + kServiceLatency.
  const TileGrid grid(8, 8);
  const NocOptions opt;
  NocSystem noc{FaultMap(grid), opt};
  std::vector<CompletedTransaction> done;
  std::uint64_t pairs = 0;
  for (std::size_t s = 0; s < grid.tile_count(); ++s) {
    for (std::size_t d = 0; d < grid.tile_count(); ++d) {
      if (s == d) continue;
      const TileCoord src = grid.coord_of(s);
      const TileCoord dst = grid.coord_of(d);
      const auto hops =
          static_cast<std::uint64_t>(std::abs(dst.x - src.x) +
                                     std::abs(dst.y - src.y));
      const std::uint64_t expected =
          2 * hops * static_cast<std::uint64_t>(opt.mesh.link_latency) +
          NocSystem::kServiceLatency;
      done.clear();
      ASSERT_TRUE(noc.issue(src, dst, PacketType::ReadRequest));
      ASSERT_TRUE(noc.drain(done));
      ASSERT_EQ(done.size(), 1u);
      EXPECT_EQ(done[0].latency(), expected)
          << "(" << src.x << "," << src.y << ") -> (" << dst.x << ","
          << dst.y << ")";
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 4032u);
  EXPECT_EQ(noc.stats().completed, pairs);
  EXPECT_EQ(noc.network(NetworkKind::XY).in_flight() +
                noc.network(NetworkKind::YX).in_flight(),
            0u);
}

TEST(NocSystem, ZeroLoadRelayedRoundTripMatchesClosedForm) {
  // The same one-packet extreme on a faulty wafer, where some pairs need a
  // relay.  Each segment is a minimal XY or YX route, so its hops are the
  // Manhattan distance between its waypoints.  The relay tile re-injects
  // the request, and later the response, kRelayLatency cycles after it
  // ejects, so a relayed round trip is
  //   2 * (hops over both segments) * link_latency + kServiceLatency
  //     + 2 * kRelayLatency.
  const TileGrid grid(8, 8);
  FaultMap faults(grid);
  faults.set_faulty({3, 3}, true);
  faults.set_faulty({5, 2}, true);
  const NocOptions opt;
  NocSystem noc{faults, opt};
  std::vector<CompletedTransaction> done;
  std::uint64_t pairs = 0;
  std::uint64_t relayed = 0;
  for (std::size_t s = 0; s < grid.tile_count(); ++s) {
    for (std::size_t d = 0; d < grid.tile_count(); ++d) {
      const TileCoord src = grid.coord_of(s);
      const TileCoord dst = grid.coord_of(d);
      if (s == d || faults.is_faulty(src) || faults.is_faulty(dst)) continue;
      const RoutePlan plan = noc.selector().plan(src, dst);
      if (!plan.reachable) continue;
      std::uint64_t hops = 0;
      for (std::size_t w = 0; w + 1 < plan.waypoints.size(); ++w)
        hops += static_cast<std::uint64_t>(
            std::abs(plan.waypoints[w + 1].x - plan.waypoints[w].x) +
            std::abs(plan.waypoints[w + 1].y - plan.waypoints[w].y));
      const std::uint64_t expected =
          2 * hops * static_cast<std::uint64_t>(opt.mesh.link_latency) +
          NocSystem::kServiceLatency +
          (plan.relayed ? 2 * NocSystem::kRelayLatency : 0);
      done.clear();
      ASSERT_TRUE(noc.issue(src, dst, PacketType::ReadRequest));
      ASSERT_TRUE(noc.drain(done));
      ASSERT_EQ(done.size(), 1u);
      EXPECT_EQ(done[0].relayed, plan.relayed);
      EXPECT_EQ(done[0].latency(), expected)
          << "(" << src.x << "," << src.y << ") -> (" << dst.x << ","
          << dst.y << ")" << (plan.relayed ? " relayed" : "");
      ++pairs;
      relayed += plan.relayed ? 1 : 0;
    }
  }
  EXPECT_EQ(pairs, 3782u);
  EXPECT_EQ(relayed, 196u);
  EXPECT_EQ(noc.stats().completed, pairs);
}

TEST(NocSystem, LittlesLawHoldsExactlyOverADrainedRun) {
  // Little's law as a conservation identity over a run that starts idle
  // and drains.  Boundary convention: issue() before step c stamps
  // issue_cycle = c, and a completion handled during step c' leaves the
  // live set inside that step.  So inflight_transactions() sampled after
  // every step counts a transaction after the steps of cycles c .. c'-1:
  // exactly c' - c = latency() times.  Summed over the run, the in-flight
  // samples therefore equal noc.latency's sum — mean in flight equals
  // throughput times mean latency, with no rounding.
  const TileGrid grid(8, 8);
  const FaultMap faults(grid);
  NocSystem noc(faults);
  TrafficConfig cfg;
  cfg.injection_rate = 0.1;
  const auto gen = workloads::make_synthetic(cfg, faults, Rng(17));
  workloads::TrafficDriver driver(noc, *gen);
  std::uint64_t inflight_sum = 0;
  for (int c = 0; c < 1500; ++c) {
    driver.step();
    inflight_sum += noc.inflight_transactions();
  }
  std::vector<CompletedTransaction> done;
  for (int c = 0; c < 10000 && noc.inflight_transactions() > 0; ++c) {
    noc.step(done);
    inflight_sum += noc.inflight_transactions();
  }
  ASSERT_EQ(noc.inflight_transactions(), 0u);

  const NocStats stats = noc.stats();
  EXPECT_GT(stats.completed, 5000u);
  EXPECT_EQ(stats.completed, stats.issued);
  const obs::Histogram& latency = noc.metrics().histogram("noc.latency");
  EXPECT_EQ(latency.count(), stats.completed);
  EXPECT_EQ(inflight_sum, latency.sum());
}

TEST(NocSystem, RejectsResponseTypeAtIssue) {
  NocSystem noc(FaultMap(TileGrid(4, 4)));
  EXPECT_THROW(noc.issue({0, 0}, {1, 1}, PacketType::ReadResponse), Error);
}

TEST(NocSystem, RetryBackoffThatOverflowsIsRejected) {
  // The last retry waits retry_backoff_base << (max_retries - 1) cycles;
  // the options are refused unless that fits in 64 bits.
  const FaultMap faults(TileGrid(4, 4));
  NocOptions opt;
  opt.response_timeout = 100;
  opt.retry_backoff_base = 1;
  opt.max_retries = 64;  // 1 << 63: the largest backoff that fits
  EXPECT_NO_THROW(NocSystem(faults, opt));
  opt.max_retries = 65;
  try {
    NocSystem noc(faults, opt);
    FAIL() << "a 1 << 64 backoff was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("retry backoff overflows 64 bits"),
              std::string::npos)
        << e.what();
  }
  opt.retry_backoff_base = 32;
  opt.max_retries = 60;  // 32 << 59 needs 65 bits
  EXPECT_THROW(NocSystem(faults, opt), Error);
  opt.response_timeout = 0;  // no timeout, no retries: nothing to overflow
  EXPECT_NO_THROW(NocSystem(faults, opt));
}

TEST(NocSystem, BacklogAtOneTileDoesNotDelayAnother) {
  // Tile A queues 12 requests behind its 4-deep local FIFO; tile B, later
  // in the service order and on the same network, still injects in the
  // same cycle, and A's requests arrive in issue order.
  const TileGrid grid(8, 8);
  NocSystem noc{FaultMap(grid)};
  const TileCoord a{1, 2};
  const TileCoord a_dst{6, 5};
  const TileCoord b{5, 6};
  const NetworkKind net = noc.selector().plan(a, a_dst).segment_networks[0];
  TileCoord b_dst{0, 0};
  for (std::size_t t = 0; t < grid.tile_count(); ++t)
    if (grid.coord_of(t) != b &&
        noc.selector().plan(b, grid.coord_of(t)).segment_networks[0] == net) {
      b_dst = grid.coord_of(t);
      break;
    }
  ASSERT_NE(b_dst, b);
  std::vector<std::uint64_t> a_payloads;
  noc.set_delivery_listener([&](const Packet& p) {
    if (p.src == a) a_payloads.push_back(p.payload);
  });

  for (std::uint64_t i = 0; i < 12; ++i)
    ASSERT_TRUE(noc.issue(a, a_dst, PacketType::WriteRequest, i));
  ASSERT_TRUE(noc.issue(b, b_dst, PacketType::ReadRequest));
  std::vector<CompletedTransaction> done;
  noc.step(done);
  std::vector<TileActivity> activity;
  noc.take_tile_activity(activity);
  EXPECT_EQ(activity[grid.index_of(b)].injections, 1u);
  EXPECT_GT(activity[grid.index_of(a)].injections, 0u);
  EXPECT_LT(activity[grid.index_of(a)].injections, 12u);

  ASSERT_TRUE(noc.drain(done));
  EXPECT_EQ(done.size(), 13u);
  std::vector<std::uint64_t> in_order(12);
  for (std::uint64_t i = 0; i < 12; ++i) in_order[i] = i;
  EXPECT_EQ(a_payloads, in_order);
}

TEST(NocSystem, TakeTileActivityReturnsTheCountsSinceTheLastTake) {
  // Two equal systems: one taken every 10 cycles, one taken once.  The
  // takes add up to the single one, and a take right after a take is zero.
  const TileGrid grid(8, 8);
  NocOptions opt;
  opt.mesh.integrity.enabled = true;
  NocSystem often(FaultMap(grid), opt);
  NocSystem once(FaultMap(grid), opt);
  for (NocSystem* noc : {&often, &once})
    noc->set_link_ber(LinkBerMap::uniform(grid, 2e-3));
  Rng rng(9);
  std::vector<CompletedTransaction> done;
  std::vector<TileActivity> take;
  std::vector<TileActivity> sum(grid.tile_count());
  for (int c = 1; c <= 60; ++c) {
    const TileCoord src = grid.coord_of(rng.below(grid.tile_count()));
    const TileCoord dst = grid.coord_of(rng.below(grid.tile_count()));
    for (NocSystem* noc : {&often, &once}) {
      noc->issue(src, dst, PacketType::ReadRequest);
      noc->step(done);
    }
    if (c % 10 != 0) continue;
    often.take_tile_activity(take);
    ASSERT_EQ(take.size(), grid.tile_count());
    for (std::size_t t = 0; t < take.size(); ++t) {
      sum[t].injections += take[t].injections;
      sum[t].traversals += take[t].traversals;
      sum[t].retransmits += take[t].retransmits;
    }
    often.take_tile_activity(take);
    const TileActivity zero{};
    for (const TileActivity& a : take) EXPECT_EQ(fields(a), fields(zero));
  }
  once.take_tile_activity(take);
  std::uint64_t injections = 0, retransmits = 0;
  for (std::size_t t = 0; t < take.size(); ++t) {
    EXPECT_EQ(fields(take[t]), fields(sum[t])) << "tile " << t;
    injections += take[t].injections;
    retransmits += take[t].retransmits;
  }
  EXPECT_GT(injections, 60u);
  EXPECT_GT(retransmits, 0u);
}

TEST(NocSystem, DeliveryListenerMayIssue) {
  // Each delivery issues the next transaction of a 200-long chain from
  // inside the listener, so the transaction table grows while a delivery
  // is being handled.
  const TileGrid grid(8, 8);
  NocSystem noc{FaultMap(grid)};
  Rng rng(5);
  std::vector<std::uint64_t> chain;
  noc.set_delivery_listener([&](const Packet& p) {
    if (chain.size() == 200) return;
    const auto id =
        noc.issue(p.dst, grid.coord_of(rng.below(grid.tile_count())),
                  PacketType::WriteRequest, chain.size());
    ASSERT_TRUE(id);
    chain.push_back(*id);
  });
  chain.push_back(*noc.issue({0, 0}, {7, 7}, PacketType::ReadRequest));
  std::vector<CompletedTransaction> done;
  ASSERT_TRUE(noc.drain(done));
  ASSERT_EQ(done.size(), 200u);
  for (std::size_t i = 0; i < chain.size(); ++i)
    EXPECT_TRUE(std::any_of(done.begin(), done.end(),
                            [&](const auto& ct) { return ct.id == chain[i]; }))
        << i;
}

TEST(NocSystem, InflightTrackingMatchesBruteForceAcrossIdWindowGrowth) {
  // One transaction is stranded (no timeout; its destination dies with
  // the request in flight) while 3,000 later ids are issued.  A burst of
  // 1,100 requests in one cycle fills the id window, which must grow past
  // its 1,024 initial ids; once the burst has drained, the few live ids
  // no longer justify a wider window and the stranded id must leave it.
  // Throughout, is_inflight answers as a record of issues and completions.
  const TileGrid grid(8, 8);
  FaultMap faults(grid);
  NocSystem noc(faults);
  std::vector<CompletedTransaction> done;
  std::vector<bool> issued(1, false);  // by id
  const auto stranded = noc.issue({0, 0}, {7, 7}, PacketType::ReadRequest);
  ASSERT_TRUE(stranded);
  issued.resize(*stranded + 1);
  issued[*stranded] = true;
  noc.step(done);
  noc.step(done);
  faults.set_faulty({7, 7});
  noc.apply_fault_state(faults);

  auto check = [&] {
    std::vector<bool> live = issued;
    live.resize(noc.next_transaction_id() + 1, false);
    for (const CompletedTransaction& ct : done) live[ct.id] = false;
    std::size_t count = 0;
    for (std::uint64_t id = 0; id < live.size(); ++id) {
      ASSERT_EQ(noc.is_inflight(id), live[id]) << "id " << id;
      count += live[id];
    }
    const NocStats s = noc.stats();
    EXPECT_EQ(noc.inflight_transactions(), count);
    EXPECT_EQ(count, s.issued - s.completed - s.lost);
  };
  Rng rng(41);
  while (noc.next_transaction_id() < *stranded + 3000) {
    for (int k = 0; k < (noc.now() == 10 ? 1100 : 3); ++k) {
      const auto id =
          noc.issue(grid.coord_of(rng.below(grid.tile_count())),
                    grid.coord_of(rng.below(grid.tile_count())),
                    PacketType::ReadRequest);
      if (!id) continue;
      issued.resize(*id + 1);
      issued[*id] = true;
    }
    noc.step(done);
    if (noc.now() % 100 == 0) check();
  }
  EXPECT_FALSE(noc.drain(done, 2000));
  check();
  EXPECT_EQ(noc.inflight_transactions(), 1u);
  EXPECT_TRUE(noc.is_inflight(*stranded));

  // A snapshot sizes the window of the system it loads into.
  ckpt::Writer w;
  noc.save_state(w);
  NocSystem loaded{FaultMap(grid)};
  ckpt::Reader r(w.bytes());
  loaded.load_state(r);
  EXPECT_TRUE(loaded.is_inflight(*stranded));
  EXPECT_EQ(loaded.inflight_transactions(), 1u);
  ckpt::Writer again;
  loaded.save_state(again);
  EXPECT_EQ(again.bytes(), w.bytes());
}

// ----------------------------------------------------------------- traffic

/// `cycles` cycles of the synthetic `cfg` stream seeded `seed`, through
/// the workload traffic driver (drained).
TrafficReport run_synthetic(NocSystem& noc, const TrafficConfig& cfg,
                            std::uint64_t cycles, std::uint64_t seed) {
  const auto gen = workloads::make_synthetic(cfg, noc.faults(), Rng(seed));
  return workloads::run_workload_traffic(noc, *gen, cycles).report;
}

TEST(Traffic, UniformRandomReportIsConsistent) {
  NocSystem noc(FaultMap(TileGrid(8, 8)));
  TrafficConfig cfg;
  cfg.injection_rate = 0.01;
  const TrafficReport r = run_synthetic(noc, cfg, 500, 5);
  EXPECT_EQ(r.issued, r.completed + r.unreachable);
  EXPECT_EQ(r.unreachable, 0u);
  EXPECT_GT(r.mean_latency, 0.0);
  EXPECT_LE(r.mean_latency, static_cast<double>(r.max_latency));
  // Percentiles are ordered and bracket the distribution.
  EXPECT_GT(r.p50_latency, 0u);
  EXPECT_LE(r.p50_latency, r.p95_latency);
  EXPECT_LE(r.p95_latency, r.p99_latency);
  EXPECT_LE(r.p99_latency, r.max_latency);
}

TEST(Traffic, DualNetworksBeatSingleUnderLoad) {
  // The second DoR network roughly doubles usable bandwidth; at an
  // injection rate past single-network saturation, mean latency must be
  // clearly lower with both networks (here: compare the same offered load
  // against a single-network system built by only issuing XY requests —
  // approximated by halving the injection rate for the dual system).
  const TileGrid grid(8, 8);
  NocSystem dual{FaultMap(grid)};
  TrafficConfig heavy;
  heavy.injection_rate = 0.08;
  const TrafficReport r_dual = run_synthetic(dual, heavy, 600, 7);
  // All traffic forced through one network by pairing each request with
  // its response on the complement but issuing every pair on XY: emulate
  // by doubling the rate on the dual system and comparing saturation.
  NocSystem stressed{FaultMap(grid)};
  TrafficConfig heavier = heavy;
  heavier.injection_rate = 0.16;
  const TrafficReport r_stressed = run_synthetic(stressed, heavier, 600, 7);
  // Throughput keeps scaling before saturation: the dual fabric absorbed
  // 2x the offered load with sub-2x latency growth.
  EXPECT_GT(r_stressed.throughput, r_dual.throughput * 1.5);
  EXPECT_LT(r_stressed.mean_latency, r_dual.mean_latency * 4.0);
}

TEST(Traffic, PatternsProduceValidDestinations) {
  const FaultMap faults(TileGrid(8, 8));
  Rng rng(9);
  for (const auto pattern :
       {TrafficPattern::UniformRandom, TrafficPattern::Transpose,
        TrafficPattern::BitComplement, TrafficPattern::Hotspot,
        TrafficPattern::NearNeighbor}) {
    TrafficConfig cfg;
    cfg.pattern = pattern;
    cfg.hotspot = {3, 3};
    for (int i = 0; i < 200; ++i) {
      const TileCoord src = faults.grid().coord_of(rng.below(64));
      const TileCoord dst = pick_destination(faults, src, cfg, rng);
      EXPECT_TRUE(faults.grid().contains(dst)) << to_string(pattern);
    }
  }
}

TEST(Traffic, HotspotConcentratesTraffic) {
  const FaultMap faults(TileGrid(8, 8));
  Rng rng(13);
  TrafficConfig cfg;
  cfg.pattern = TrafficPattern::Hotspot;
  cfg.hotspot_fraction = 0.5;
  cfg.hotspot = {4, 4};
  int hot = 0;
  for (int i = 0; i < 1000; ++i) {
    const TileCoord dst = pick_destination(faults, {0, 0}, cfg, rng);
    if (dst == cfg.hotspot) ++hot;
  }
  EXPECT_NEAR(hot, 500, 70);
}

}  // namespace
}  // namespace wsp::noc
