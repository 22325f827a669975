// Tests for Sec. VI routing: dimension-ordered paths, pair connectivity
// (the fast analyzer vs brute-force path walking) and the Fig. 6 census.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "noc_oracles.hpp"
#include "wsp/common/error.hpp"
#include "wsp/noc/connectivity.hpp"
#include "wsp/noc/routing.hpp"

namespace wsp::noc {
namespace {

TEST(Dor, NextHopXYGoesHorizontalFirst) {
  EXPECT_EQ(next_hop({0, 0}, {3, 2}, NetworkKind::XY).dir, Direction::East);
  EXPECT_EQ(next_hop({3, 0}, {3, 2}, NetworkKind::XY).dir, Direction::North);
  EXPECT_EQ(next_hop({5, 5}, {2, 5}, NetworkKind::XY).dir, Direction::West);
}

TEST(Dor, NextHopYXGoesVerticalFirst) {
  EXPECT_EQ(next_hop({0, 0}, {3, 2}, NetworkKind::YX).dir, Direction::North);
  EXPECT_EQ(next_hop({0, 2}, {3, 2}, NetworkKind::YX).dir, Direction::East);
  EXPECT_EQ(next_hop({5, 5}, {5, 1}, NetworkKind::YX).dir, Direction::South);
}

TEST(Dor, EjectAtDestination) {
  EXPECT_TRUE(next_hop({4, 4}, {4, 4}, NetworkKind::XY).eject);
  EXPECT_TRUE(next_hop({4, 4}, {4, 4}, NetworkKind::YX).eject);
}

TEST(Dor, PathLengthIsManhattanPlusOne) {
  for (const auto kind : {NetworkKind::XY, NetworkKind::YX}) {
    const auto path = dor_path({1, 2}, {6, 7}, kind);
    EXPECT_EQ(path.size(),
              static_cast<std::size_t>(hop_distance({1, 2}, {6, 7})) + 1);
    EXPECT_EQ(path.front(), (TileCoord{1, 2}));
    EXPECT_EQ(path.back(), (TileCoord{6, 7}));
    // Consecutive tiles are mesh neighbours.
    for (std::size_t i = 1; i < path.size(); ++i)
      EXPECT_EQ(hop_distance(path[i - 1], path[i]), 1);
  }
}

TEST(Dor, XYAndYXPathsAreTileDisjointOffRowColumn) {
  // The foundation of the dual-network resiliency: for src/dst not sharing
  // a row or column, the two paths share only the endpoints.
  const TileCoord src{2, 3}, dst{7, 9};
  const auto xy = dor_path(src, dst, NetworkKind::XY);
  const auto yx = dor_path(src, dst, NetworkKind::YX);
  int shared = 0;
  for (const TileCoord& a : xy)
    for (const TileCoord& b : yx)
      if (a == b) ++shared;
  EXPECT_EQ(shared, 2);  // src and dst only
}

TEST(Dor, SameRowPathsCoincide) {
  const auto xy = dor_path({1, 4}, {6, 4}, NetworkKind::XY);
  const auto yx = dor_path({1, 4}, {6, 4}, NetworkKind::YX);
  EXPECT_EQ(xy, yx);
}

TEST(Dor, RequestResponsePairTraverseSameTiles) {
  // Fig. 7: request X-Y from A to B, response Y-X from B to A — the
  // response path is the request path reversed.
  const TileCoord a{2, 3}, b{9, 6};
  auto req = dor_path(a, b, NetworkKind::XY);
  const auto resp = dor_path(b, a, NetworkKind::YX);
  std::reverse(req.begin(), req.end());
  EXPECT_EQ(req, resp);
}

TEST(Dor, PathHealthRespectsFaults) {
  FaultMap faults(TileGrid(8, 8));
  faults.set_faulty({4, 0});
  EXPECT_FALSE(path_is_healthy(faults, {0, 0}, {7, 0}, NetworkKind::XY));
  // YX from (0,0) to (7,0) is the same row: also blocked.
  EXPECT_FALSE(path_is_healthy(faults, {0, 0}, {7, 0}, NetworkKind::YX));
  // An off-row destination dodges it on YX.
  EXPECT_FALSE(path_is_healthy(faults, {0, 0}, {7, 3}, NetworkKind::XY) &&
               faults.is_faulty({4, 0}));
  EXPECT_TRUE(path_is_healthy(faults, {0, 0}, {7, 3}, NetworkKind::YX));
}

TEST(Dor, FaultyEndpointsAreDisconnected) {
  FaultMap faults(TileGrid(8, 8));
  faults.set_faulty({0, 0});
  const PairConnectivity pc = pair_connectivity(faults, {0, 0}, {5, 5});
  EXPECT_FALSE(pc.connected());
}

TEST(Intermediate, FindsRelayForBlockedRowPair) {
  // Same-row pair with a fault between them: both direct paths die, but a
  // one-step dogleg exists.
  FaultMap faults(TileGrid(8, 8));
  faults.set_faulty({3, 2});
  const TileCoord src{0, 2}, dst{7, 2};
  EXPECT_FALSE(pair_connectivity(faults, src, dst).connected());
  const auto mid = find_intermediate(faults, src, dst);
  ASSERT_TRUE(mid.has_value());
  EXPECT_TRUE(pair_connectivity(faults, src, *mid).connected());
  EXPECT_TRUE(pair_connectivity(faults, *mid, dst).connected());
  // The best relay adds only 2 hops (one row over and back).
  const int extra = hop_distance(src, *mid) + hop_distance(*mid, dst) -
                    hop_distance(src, dst);
  EXPECT_EQ(extra, 2);
}

TEST(Intermediate, NoneWhenDestinationIsWalledIn) {
  FaultMap faults(TileGrid(8, 8));
  for (TileCoord f : {TileCoord{4, 5}, TileCoord{5, 4}, TileCoord{4, 3},
                      TileCoord{3, 4}})
    faults.set_faulty(f);
  EXPECT_FALSE(find_intermediate(faults, {0, 0}, {4, 4}).has_value());
}

// ------------------------------------------------------ analyzer validity

class AnalyzerVsBruteForce
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(AnalyzerVsBruteForce, AgreeOnAllPairs) {
  const auto [seed, nfaults] = GetParam();
  Rng rng(seed);
  const TileGrid grid(9, 9);
  const FaultMap faults = FaultMap::random_with_count(
      grid, static_cast<std::size_t>(nfaults), rng);
  const NetworkSelector an(faults);
  grid.for_each([&](TileCoord s) {
    grid.for_each([&](TileCoord d) {
      EXPECT_EQ(an.xy_connected(s, d),
                path_is_healthy(faults, s, d, NetworkKind::XY))
          << to_string(s) << "->" << to_string(d);
      EXPECT_EQ(an.yx_connected(s, d),
                path_is_healthy(faults, s, d, NetworkKind::YX))
          << to_string(s) << "->" << to_string(d);
    });
  });
}

INSTANTIATE_TEST_SUITE_P(
    RandomMaps, AnalyzerVsBruteForce,
    ::testing::Combine(::testing::Values(3, 17, 2026),
                       ::testing::Values(0, 1, 5, 20)));

// ------------------------------------------------------------ Fig.6 census

TEST(Fig6, NoFaultsNothingDisconnected) {
  const DisconnectionStats stats =
      census_disconnection(FaultMap(TileGrid(16, 16)));
  EXPECT_EQ(stats.disconnected_single_xy, 0u);
  EXPECT_EQ(stats.disconnected_dual, 0u);
  EXPECT_EQ(stats.healthy_pairs, 256u * 255u);
}

TEST(Fig6, DualNeverWorseThanSingle) {
  Rng rng(8);
  for (int t = 0; t < 10; ++t) {
    const FaultMap faults =
        FaultMap::random_with_count(TileGrid(16, 16), 8, rng);
    const DisconnectionStats stats = census_disconnection(faults);
    EXPECT_LE(stats.disconnected_dual, stats.disconnected_single_xy);
  }
}

TEST(Fig6, PaperHeadlineAtFiveFaults) {
  // Paper: with 5 faulty chiplets on the 32x32 wafer, a single DoR network
  // disconnects >12% of pairs; two networks reduce it to <2%.  The >12%
  // figure matches round-trip accounting (request and response take
  // different single-network paths); one-way path counting gives ~9%.
  Rng rng(42);
  const TileGrid grid(32, 32);
  double single = 0.0, roundtrip = 0.0, dual = 0.0;
  const int trials = 15;
  for (int t = 0; t < trials; ++t) {
    const DisconnectionStats stats =
        census_disconnection(FaultMap::random_with_count(grid, 5, rng));
    single += stats.single_pct();
    roundtrip += stats.single_roundtrip_pct();
    dual += stats.dual_pct();
  }
  single /= trials;
  roundtrip /= trials;
  dual /= trials;
  EXPECT_GT(single, 8.0);
  EXPECT_LT(single, 25.0);
  EXPECT_GT(roundtrip, 12.0);  // the paper's >12%
  EXPECT_GE(roundtrip, single);
  EXPECT_LT(dual, 2.0);        // paper: <2%
}

TEST(Fig6, SingleFaultOnlyDisconnectsSameRowColumnPairs) {
  // The exact version of the paper's "the paths that still get
  // disconnected with two DoR networks mostly connect pairs in the same
  // row/column": with ONE fault it is a theorem — the only pairs losing
  // both paths share the fault's row or column with each other.
  Rng rng(7);
  const TileGrid grid(32, 32);
  for (int t = 0; t < 10; ++t) {
    const DisconnectionStats stats =
        census_disconnection(FaultMap::random_with_count(grid, 1, rng));
    EXPECT_EQ(stats.disconnected_dual, stats.disconnected_dual_same_row_col);
  }
}

TEST(Fig6, SameRowColumnPairsRemainOverrepresentedAtFiveFaults) {
  // At higher fault counts cross-blocking (fault A kills the X-Y path,
  // fault B the Y-X path) adds off-row/column casualties, but same-row/
  // column pairs stay heavily over-represented: they are ~6 % of all
  // pairs yet a much larger share of the disconnected ones.
  Rng rng(7);
  const TileGrid grid(32, 32);
  std::size_t dual = 0, same_rc = 0;
  for (int t = 0; t < 10; ++t) {
    const DisconnectionStats stats =
        census_disconnection(FaultMap::random_with_count(grid, 5, rng));
    dual += stats.disconnected_dual;
    same_rc += stats.disconnected_dual_same_row_col;
  }
  ASSERT_GT(dual, 0u);
  const double share = static_cast<double>(same_rc) / dual;
  const double baseline = 62.0 / 1023.0;  // same-row/col share of all pairs
  EXPECT_GT(share, 2.0 * baseline);
}

TEST(Fig6, SweepIsMonotoneInFaultCount) {
  Rng rng(11);
  const auto points =
      fig6_sweep(TileGrid(16, 16), {1, 3, 5, 8, 12}, 10, rng);
  ASSERT_EQ(points.size(), 5u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].mean_single_pct, points[i - 1].mean_single_pct);
    EXPECT_GE(points[i].mean_dual_pct, points[i - 1].mean_dual_pct);
  }
  for (const auto& p : points)
    EXPECT_LT(p.mean_dual_pct, p.mean_single_pct);
}

TEST(Fig6, SweepRejectsFewerThanOneTrial) {
  // Each mean divides by `trials`: zero would give NaN, a negative count
  // zeros.
  Rng rng(1);
  for (const int trials : {0, -2}) {
    try {
      (void)fig6_sweep(TileGrid(4, 4), {1}, trials, rng);
      FAIL() << "trials = " << trials << " accepted";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "fig6_sweep: trials must be at least 1");
    }
  }
}

TEST(Fig6, CensusCountsArePinned) {
  // All five counts of seeded maps, recorded from the pairwise census
  // (three path checks per ordered pair): any other way of counting must
  // reproduce them exactly.  Counts are {healthy pairs, single XY, single
  // round trip, dual, dual same row/column}.
  struct Pin {
    int width, height;
    std::size_t faults;
    std::uint64_t seed;
    DisconnectionStats want;
  };
  const auto counts = [](const DisconnectionStats& s) {
    return std::vector<std::size_t>{
        s.healthy_pairs, s.disconnected_single_xy,
        s.disconnected_single_roundtrip, s.disconnected_dual,
        s.disconnected_dual_same_row_col};
  };
  const Pin pins[] = {
      {32, 32, 0, 1, {1047552, 0, 0, 0, 0}},
      {32, 32, 1, 2, {1045506, 18113, 35690, 536, 536}},
      {32, 32, 5, 3, {1037342, 108471, 202646, 14296, 3312}},
      {32, 32, 20, 4, {1007012, 338973, 540568, 137378, 11006}},
      {16, 16, 8, 5, {61256, 19900, 31498, 8302, 1246}},
      {1, 1, 0, 6, {0, 0, 0, 0, 0}},
      {1, 9, 2, 7, {42, 32, 32, 32, 32}},
      {9, 1, 2, 8, {42, 22, 22, 22, 22}},
      {5, 17, 9, 9, {5700, 2298, 3520, 1076, 322}},
  };
  for (const Pin& p : pins) {
    Rng rng(p.seed);
    const FaultMap faults = FaultMap::random_with_count(
        TileGrid(p.width, p.height), p.faults, rng);
    EXPECT_EQ(counts(census_disconnection(faults)), counts(p.want))
        << p.width << "x" << p.height << " with " << p.faults << " faults";
  }

  // A fully dead row and column on top of random faults.
  Rng rng(10);
  FaultMap cross = FaultMap::random_with_count(TileGrid(12, 10), 6, rng);
  for (int x = 0; x < 12; ++x) cross.set_faulty({x, 4});
  for (int y = 0; y < 10; ++y) cross.set_faulty({7, y});
  EXPECT_EQ(counts(census_disconnection(cross)),
            counts({8930, 6789, 6946, 6632, 902}));

  // The sweep's means, to the last bit.
  Rng sweep_rng(11);
  const std::vector<Fig6Point> sweep =
      fig6_sweep(TileGrid(16, 16), {1, 5, 12}, 4, sweep_rng);
  ASSERT_EQ(sweep.size(), 3u);
  const double want[3][3] = {
      {3.7810714837115946, 7.3475374401729194, 0.21460552725027018},
      {16.150199203187249, 28.758565737051793, 3.5418326693227087},
      {36.254469405653374, 55.439182351750659, 17.069756459556096}};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sweep[i].mean_single_pct, want[i][0]) << i;
    EXPECT_EQ(sweep[i].mean_single_roundtrip_pct, want[i][1]) << i;
    EXPECT_EQ(sweep[i].mean_dual_pct, want[i][2]) << i;
  }
}

}  // namespace
}  // namespace wsp::noc
