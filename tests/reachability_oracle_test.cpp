// Oracle tests for the near-linear reachability machinery behind the
// campaign's post-burst census and the bring-up single-system-image check:
// each fast path is checked against the direct computation it replaced, on
// seeded random tile+link fault maps.
//   * link-aware run ids    vs a dor_path walk with per-link checks;
//   * reachable_pairs()     vs an all-pairs plan().reachable count and the
//                           pairwise census it replaced;
//   * census_disconnection  vs the pairwise census it replaced;
//   * plan()'s relay choice vs find_intermediate's pair_connectivity walk;
//   * per-distinct-row JTAG screening vs one locate_first_faulty per row.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "noc_oracles.hpp"
#include "wsp/arch/bringup.hpp"
#include "wsp/common/error.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/noc/connectivity.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/noc/routing.hpp"
#include "wsp/testinfra/dap_chain.hpp"

namespace wsp::noc {
namespace {

struct RandomFaults {
  FaultMap tiles;
  LinkFaultSet links;
};

/// Each tile fails with probability `tile_p`; `link_count` random directed
/// links (repeats allowed) fail on top.
RandomFaults random_faults(const TileGrid& grid, double tile_p,
                           std::size_t link_count, Rng& rng) {
  RandomFaults f{FaultMap::random_with_probability(grid, tile_p, rng),
                 LinkFaultSet(grid)};
  while (link_count > 0) {
    const TileCoord from = grid.coord_of(rng.below(grid.tile_count()));
    const Direction d = kAllDirections[rng.below(4)];
    if (!grid.neighbor(from, d)) continue;
    f.links.set_failed(from, d);
    --link_count;
  }
  return f;
}

/// The direct definition: every tile of the DoR path healthy, and every
/// hop's link alive in both travel directions.
bool walk_clear(const RandomFaults& f, TileCoord a, TileCoord b,
                NetworkKind kind) {
  const std::vector<TileCoord> path = dor_path(a, b, kind);
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (f.tiles.is_faulty(path[i])) return false;
    if (i + 1 == path.size()) break;
    const Direction d = next_hop(path[i], b, kind).dir;
    if (f.links.is_failed(path[i], d) ||
        f.links.is_failed(path[i + 1], opposite(d)))
      return false;
  }
  return true;
}

struct OracleCase {
  int width;
  int height;
  double tile_p;
  std::size_t links;
  int trials = 3;  ///< random maps drawn per case
};

// Square maps, single-row and single-column strips (every run across the
// strip is one tile long), a tall rectangle, and a full-size wafer whose
// runs are cut only by failed links (one map: its all-pairs checks cost
// as much as all the others together).
const OracleCase kCases[] = {
    {8, 8, 0.05, 6},   {8, 8, 0.20, 16},   {16, 16, 0.05, 24},
    {16, 16, 0.15, 60}, {1, 9, 0.10, 2},   {9, 1, 0.10, 2},
    {5, 17, 0.10, 12},  {32, 32, 0.0, 40, 1}};

TEST(ReachabilityOracle, LinkAwareRunIdsMatchThePathWalk) {
  Rng rng(101);
  for (const OracleCase& c : kCases) {
    const TileGrid grid(c.width, c.height);
    for (int trial = 0; trial < c.trials; ++trial) {
      const RandomFaults f = random_faults(grid, c.tile_p, c.links, rng);
      const NetworkSelector an(f.tiles, f.links);
      std::size_t cut = 0;
      for (std::size_t i = 0; i < grid.tile_count(); ++i)
        for (std::size_t j = 0; j < grid.tile_count(); ++j) {
          const TileCoord a = grid.coord_of(i), b = grid.coord_of(j);
          const bool xy = walk_clear(f, a, b, NetworkKind::XY);
          const bool yx = walk_clear(f, a, b, NetworkKind::YX);
          ASSERT_EQ(an.xy_connected(a, b), xy)
              << to_string(a) << " -> " << to_string(b);
          ASSERT_EQ(an.yx_connected(a, b), yx)
              << to_string(a) << " -> " << to_string(b);
          if (!xy && f.tiles.is_healthy(a) && f.tiles.is_healthy(b)) ++cut;
        }
      EXPECT_GT(cut, 0u);  // the maps really do cut paths
    }
  }
}

TEST(ReachabilityOracle, TileOnlyAnalyzerEqualsEmptyLinkSet) {
  // The tile-only constructor is the link-aware one with nothing failed.
  Rng rng(7);
  const TileGrid grid(8, 8);
  const FaultMap tiles = FaultMap::random_with_probability(grid, 0.15, rng);
  const NetworkSelector plain(tiles);
  const NetworkSelector linked(tiles, LinkFaultSet(grid));
  for (std::size_t i = 0; i < grid.tile_count(); ++i)
    for (std::size_t j = 0; j < grid.tile_count(); ++j) {
      const TileCoord a = grid.coord_of(i), b = grid.coord_of(j);
      EXPECT_EQ(plain.xy_connected(a, b), linked.xy_connected(a, b));
      EXPECT_EQ(plain.yx_connected(a, b), linked.yx_connected(a, b));
    }
}

TEST(ReachabilityOracle, ReachablePairsMatchesAllPairsPlans) {
  Rng rng(202);
  bool saw_relay = false, saw_unreachable = false;
  for (const OracleCase& c : kCases) {
    const TileGrid grid(c.width, c.height);
    for (int trial = 0; trial < c.trials; ++trial) {
      const RandomFaults f = random_faults(grid, c.tile_p, c.links, rng);
      const NetworkSelector fast(f.tiles, f.links);
      const PairReachability got = fast.reachable_pairs();

      const NetworkSelector brute(f.tiles, f.links);
      const std::vector<TileCoord> healthy = f.tiles.healthy_tiles();
      std::size_t pairs = 0, reachable = 0;
      for (const TileCoord a : healthy)
        for (const TileCoord b : healthy) {
          if (a == b) continue;
          ++pairs;
          const RoutePlan p = brute.plan(a, b);
          reachable += p.reachable;
          saw_relay |= p.relayed;
          saw_unreachable |= !p.reachable;
        }
      EXPECT_EQ(got.pairs, pairs);
      EXPECT_EQ(got.reachable, reachable);
      const PairReachability pairwise =
          pairwise_reachable_pairs(fast);
      EXPECT_EQ(pairwise.pairs, pairs);
      EXPECT_EQ(pairwise.reachable, reachable);
      // Counting again after plans are cached changes nothing.
      EXPECT_EQ(brute.reachable_pairs().reachable, reachable);
    }
  }
  // The maps exercise both the relay closure and true disconnection.
  EXPECT_TRUE(saw_relay);
  EXPECT_TRUE(saw_unreachable);
}

TEST(ReachabilityOracle, CensusMatchesPairwise) {
  // The Fig. 6 census counts by popcounts over the run reach sets; the
  // pairwise loop makes three path checks per ordered pair.  Every count
  // must agree, on strips, rectangles and squares at 0-30 % faults.
  const auto counts = [](const DisconnectionStats& s) {
    return std::vector<std::size_t>{
        s.healthy_pairs, s.disconnected_single_xy,
        s.disconnected_single_roundtrip, s.disconnected_dual,
        s.disconnected_dual_same_row_col};
  };
  const std::pair<int, int> sizes[] = {{1, 1},  {2, 2},   {1, 9},
                                       {9, 1},  {5, 17},  {13, 29},
                                       {16, 16}, {32, 32}};
  Rng rng(505);
  std::size_t same_rc = 0;
  for (const auto& [w, h] : sizes)
    for (const double p : {0.0, 0.05, 0.1, 0.2, 0.3}) {
      const FaultMap faults =
          FaultMap::random_with_probability(TileGrid(w, h), p, rng);
      const DisconnectionStats fast = census_disconnection(faults);
      ASSERT_EQ(counts(fast), counts(pairwise_census_disconnection(faults)))
          << w << "x" << h << " at p = " << p;
      same_rc += fast.disconnected_dual_same_row_col;
    }
  EXPECT_GT(same_rc, 0u);  // the maps do cut same-line pairs
}

TEST(ReachabilityOracle, RelayChoiceMatchesFindIntermediate) {
  // On tile-only fault maps, find_intermediate's path walks are the direct
  // definition of plan()'s relay: same candidates, same fewest-added-hops
  // rule, same row-major tie-break.
  Rng rng(404);
  std::size_t relayed = 0, unreachable = 0;
  for (int map = 0; map < 200; ++map) {
    const int side = 4 + static_cast<int>(rng.below(9));  // 4x4 .. 12x12
    const TileGrid grid(side, side);
    const FaultMap faults =
        FaultMap::random_with_probability(grid, 0.2 * rng.uniform(), rng);
    const NetworkSelector selector(faults);
    const std::vector<TileCoord> healthy = faults.healthy_tiles();
    for (const TileCoord a : healthy)
      for (const TileCoord b : healthy) {
        if (a == b || pair_connectivity(faults, a, b).connected()) continue;
        const RoutePlan p = selector.plan(a, b);
        const std::optional<TileCoord> mid = find_intermediate(faults, a, b);
        ASSERT_EQ(p.reachable, mid.has_value())
            << "map " << map << ": " << to_string(a) << " -> "
            << to_string(b);
        if (!mid) {
          ++unreachable;
          continue;
        }
        ++relayed;
        ASSERT_TRUE(p.relayed);
        ASSERT_EQ(p.waypoints.size(), 3u);
        ASSERT_EQ(p.waypoints[1], *mid)
            << "map " << map << ": " << to_string(a) << " -> "
            << to_string(b);
      }
  }
  // The maps exercise both relayed and truly disconnected pairs.
  EXPECT_GT(relayed, 0u);
  EXPECT_GT(unreachable, 0u);
}

TEST(ReachabilityOracle, DegenerateMapsAndGridMismatch) {
  const TileGrid grid(4, 4);
  FaultMap all_dead(grid);
  grid.for_each([&](TileCoord c) { all_dead.set_faulty(c); });
  EXPECT_EQ(NetworkSelector(all_dead).reachable_pairs().pairs, 0u);

  FaultMap one_left = all_dead;
  one_left.set_faulty({2, 1}, false);
  EXPECT_EQ(NetworkSelector(one_left).reachable_pairs().pairs, 0u);

  const PairReachability clean =
      NetworkSelector(FaultMap(grid)).reachable_pairs();
  EXPECT_EQ(clean.pairs, 16u * 15u);
  EXPECT_EQ(clean.reachable, clean.pairs);

  EXPECT_THROW(
      NetworkSelector(FaultMap(grid), LinkFaultSet(TileGrid(3, 4))),
      Error);
}

TEST(ReachabilityOracle, ScreeningTcksMatchOneChainPerRow) {
  Rng rng(303);
  for (const OracleCase& c : kCases) {
    if (c.tile_p == 0.0) continue;  // the screen looks for faulty tiles
    const SystemConfig cfg = SystemConfig::reduced(c.width, c.height);
    for (const bool broadcast : {true, false}) {
      const FaultMap faults =
          FaultMap::random_with_probability(cfg.grid(), c.tile_p, rng);
      arch::BringupOptions opt;
      opt.use_broadcast_loading = broadcast;

      std::uint64_t expected = 0;
      for (int y = 0; y < cfg.array_height; ++y) {
        std::vector<bool> row(static_cast<std::size_t>(cfg.array_width));
        for (int x = 0; x < cfg.array_width; ++x)
          row[static_cast<std::size_t>(x)] = faults.is_faulty({x, y});
        testinfra::WaferTestChain chain(cfg.array_width, cfg.cores_per_tile,
                                        row);
        chain.set_broadcast(broadcast);
        (void)chain.locate_first_faulty(&expected);
      }
      EXPECT_EQ(arch::run_bringup(cfg, faults, opt).screening_tcks, expected);
    }
  }
}

}  // namespace
}  // namespace wsp::noc
