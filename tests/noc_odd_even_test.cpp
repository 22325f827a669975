// Tests for the odd-even turn-model extension (the paper's future-work
// routing scheme, Sec. VI footnote): turn-rule compliance, deadlock
// freedom of the channel-dependency graph, fault tolerance vs DoR, and
// agreement between the analysis and the cycle-level adaptive simulator.
#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "noc_oracles.hpp"
#include "wsp/noc/connectivity.hpp"
#include "wsp/noc/mesh_network.hpp"
#include "wsp/noc/odd_even.hpp"

namespace wsp::noc {
namespace {

TEST(OddEven, EjectsAtDestination) {
  const RouteChoices c = odd_even_route({0, 0}, {3, 3}, {3, 3});
  EXPECT_TRUE(c.eject);
  EXPECT_EQ(c.count, 0);
}

TEST(OddEven, AlwaysOffersAnOption) {
  // For every (src, cur, dst) triple on an 8x8 mesh where cur lies inside
  // the minimal rectangle, the ROUTE function offers at least one output.
  const TileGrid grid(8, 8);
  grid.for_each([&](TileCoord src) {
    grid.for_each([&](TileCoord dst) {
      if (src == dst) return;
      const int x0 = std::min(src.x, dst.x), x1 = std::max(src.x, dst.x);
      const int y0 = std::min(src.y, dst.y), y1 = std::max(src.y, dst.y);
      for (int x = x0; x <= x1; ++x)
        for (int y = y0; y <= y1; ++y) {
          const TileCoord cur{x, y};
          if (cur == dst) continue;
          const RouteChoices c = odd_even_route(src, cur, dst);
          ASSERT_GT(c.count, 0)
              << to_string(src) << " " << to_string(cur) << " "
              << to_string(dst);
        }
    });
  });
}

TEST(OddEven, ChoicesAreMinimal) {
  // Every offered direction strictly reduces the Manhattan distance.
  const TileGrid grid(8, 8);
  Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const TileCoord src = grid.coord_of(rng.below(64));
    const TileCoord dst = grid.coord_of(rng.below(64));
    const TileCoord cur = grid.coord_of(rng.below(64));
    if (src == dst || cur == dst) continue;
    const RouteChoices c = odd_even_route(src, cur, dst);
    for (int i = 0; i < c.count; ++i)
      EXPECT_EQ(hop_distance(step(cur, c.dirs[i]), dst),
                hop_distance(cur, dst) - 1);
  }
}

TEST(OddEven, TurnRulesRespected) {
  // Walk every allowed path for every pair on a 7x7 mesh and check the
  // turn restrictions: EN/ES only in odd columns (or the source column),
  // NW/SW only in even columns.
  const TileGrid grid(7, 7);
  grid.for_each([&](TileCoord src) {
    grid.for_each([&](TileCoord dst) {
      if (src == dst) return;
      // BFS over (tile, incoming direction) states.
      std::set<std::pair<std::size_t, int>> seen;
      std::queue<std::pair<TileCoord, int>> frontier;
      frontier.push({src, -1});
      while (!frontier.empty()) {
        const auto [cur, in] = frontier.front();
        frontier.pop();
        const RouteChoices c = odd_even_route(src, cur, dst);
        for (int i = 0; i < c.count; ++i) {
          const Direction out = c.dirs[i];
          if (in >= 0) {
            const auto in_dir = static_cast<Direction>(in);
            const bool en_es =
                in_dir == Direction::East &&
                (out == Direction::North || out == Direction::South);
            const bool nw_sw =
                (in_dir == Direction::North || in_dir == Direction::South) &&
                out == Direction::West;
            if (en_es) {
              EXPECT_TRUE((cur.x & 1) != 0 || cur.x == src.x)
                  << "EN/ES turn in even non-source column " << cur.x;
            }
            if (nw_sw) {
              EXPECT_TRUE((cur.x & 1) == 0)
                  << "NW/SW turn in odd column " << cur.x;
            }
          }
          const TileCoord next = step(cur, out);
          if (!grid.contains(next) || next == dst) continue;
          const auto key =
              std::make_pair(grid.index_of(next), static_cast<int>(out));
          if (seen.insert(key).second)
            frontier.push({next, static_cast<int>(out)});
        }
      }
    });
  });
}

TEST(OddEven, ChannelDependencyGraphAcyclic) {
  // The turn model's whole point: no cyclic channel dependencies, hence
  // deadlock freedom without virtual channels.
  EXPECT_TRUE(channel_dependency_graph_is_acyclic(6, 6));
  EXPECT_TRUE(channel_dependency_graph_is_acyclic(5, 7));
}

TEST(OddEven, FullConnectivityWithoutFaults) {
  const FaultMap healthy(TileGrid(8, 8));
  const OddEvenStats stats = census_odd_even(healthy);
  EXPECT_EQ(stats.disconnected, 0u);
  EXPECT_EQ(stats.healthy_pairs, 64u * 63u);
}

TEST(OddEven, RoutesAroundAFaultThatKillsXY) {
  FaultMap faults(TileGrid(8, 8));
  faults.set_faulty({2, 0});
  // XY from (0,0) to (4,3) dies in the row segment; odd-even can climb
  // early.
  EXPECT_FALSE(path_is_healthy(faults, {0, 0}, {4, 3}, NetworkKind::XY));
  EXPECT_TRUE(odd_even_connected(faults, {0, 0}, {4, 3}));
}

TEST(OddEven, MinimalRoutingCannotEscapeSameRowBlockers) {
  // Like DoR, *minimal* odd-even keeps same-row pairs in their row; a
  // blocker between them disconnects the pair (Wu's protocol adds
  // non-minimal escapes; documented limitation).
  FaultMap faults(TileGrid(8, 8));
  faults.set_faulty({3, 2});
  EXPECT_FALSE(odd_even_connected(faults, {0, 2}, {7, 2}));
}

TEST(OddEven, BeatsSingleDoROnRandomFaultMaps) {
  Rng rng(11);
  const TileGrid grid(16, 16);
  double oe = 0.0, xy = 0.0;
  for (int t = 0; t < 10; ++t) {
    const FaultMap faults = FaultMap::random_with_count(grid, 8, rng);
    oe += census_odd_even(faults).pct();
    xy += census_disconnection(faults).single_pct();
  }
  EXPECT_LT(oe, xy);  // adaptivity pays
}

TEST(OddEven, EndpointsMustBeHealthy) {
  FaultMap faults(TileGrid(4, 4));
  faults.set_faulty({0, 0});
  EXPECT_FALSE(odd_even_connected(faults, {0, 0}, {3, 3}));
  EXPECT_FALSE(odd_even_connected(faults, {3, 3}, {0, 0}));
  EXPECT_TRUE(odd_even_connected(faults, {1, 1}, {1, 1}));
}

// ------------------------------------------------ cycle-level adaptive sim

Packet packet_to(TileCoord src, TileCoord dst, std::uint64_t id) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.id = id;
  return p;
}

TEST(OddEvenMesh, DeliversOnHealthyMesh) {
  MeshOptions opt;
  opt.adaptive_odd_even = true;
  MeshNetwork net(FaultMap(TileGrid(8, 8)), NetworkKind::XY, opt);
  std::uint64_t id = 1;
  const TileGrid grid(8, 8);
  Rng rng(5);
  int injected = 0;
  std::vector<Packet> out;
  for (int i = 0; i < 300; ++i) {
    const TileCoord s = grid.coord_of(rng.below(64));
    const TileCoord d = grid.coord_of(rng.below(64));
    if (s == d) continue;
    if (net.inject(packet_to(s, d, id++))) ++injected;
    net.step(out);
  }
  for (int c = 0; c < 500; ++c) net.step(out);
  EXPECT_EQ(static_cast<int>(out.size()), injected);
  EXPECT_EQ(net.stats().dropped_at_fault, 0u);
}

TEST(OddEvenMesh, AdaptsAroundFaultDoRWouldHit) {
  FaultMap faults(TileGrid(8, 8));
  faults.set_faulty({2, 0});

  // DoR XY drops the packet at the dead tile...
  MeshNetwork dor(faults, NetworkKind::XY);
  ASSERT_TRUE(dor.inject(packet_to({0, 0}, {4, 3}, 1)));
  std::vector<Packet> out;
  for (int c = 0; c < 100; ++c) dor.step(out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(dor.stats().dropped_at_fault, 1u);

  // ...the adaptive router walks around it.
  MeshOptions opt;
  opt.adaptive_odd_even = true;
  MeshNetwork oe(faults, NetworkKind::XY, opt);
  ASSERT_TRUE(oe.inject(packet_to({0, 0}, {4, 3}, 2)));
  out.clear();
  for (int c = 0; c < 100; ++c) oe.step(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(oe.stats().dropped_at_fault, 0u);
}

TEST(OddEvenMesh, DeliveryImpliesAnalysisConnectivity) {
  // The simulator follows one greedy preference among the allowed paths,
  // so sim delivery must imply the BFS analysis says "connected".
  Rng rng(23);
  const TileGrid grid(8, 8);
  const FaultMap faults = FaultMap::random_with_count(grid, 10, rng);
  MeshOptions opt;
  opt.adaptive_odd_even = true;
  for (int trial = 0; trial < 200; ++trial) {
    const TileCoord s = grid.coord_of(rng.below(64));
    const TileCoord d = grid.coord_of(rng.below(64));
    if (s == d || faults.is_faulty(s) || faults.is_faulty(d)) continue;
    MeshNetwork net(faults, NetworkKind::XY, opt);
    if (!net.inject(packet_to(s, d, 1))) continue;
    std::vector<Packet> out;
    for (int c = 0; c < 200 && out.empty(); ++c) net.step(out);
    if (!out.empty()) {
      EXPECT_TRUE(odd_even_connected(faults, s, d))
          << to_string(s) << "->" << to_string(d);
    }
  }
}

// Property: deadlock-free under saturation — everything injected drains.
class OddEvenSaturation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OddEvenSaturation, AllTrafficDrains) {
  MeshOptions opt;
  opt.adaptive_odd_even = true;
  opt.input_queue_capacity = 2;
  MeshNetwork net(FaultMap(TileGrid(6, 6)), NetworkKind::XY, opt);
  Rng rng(GetParam());
  const TileGrid grid(6, 6);
  std::uint64_t id = 1;
  std::vector<Packet> out;
  for (int c = 0; c < 300; ++c) {
    for (int k = 0; k < 4; ++k) {
      const TileCoord s = grid.coord_of(rng.below(36));
      const TileCoord d = grid.coord_of(rng.below(36));
      if (!(s == d)) net.inject(packet_to(s, d, id++));
    }
    net.step(out);
  }
  for (int c = 0; c < 2000 && net.in_flight() > 0; ++c) net.step(out);
  EXPECT_EQ(net.in_flight(), 0u);
  EXPECT_EQ(out.size(), net.stats().injected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OddEvenSaturation,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace wsp::noc
