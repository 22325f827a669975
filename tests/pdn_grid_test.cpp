// Tests for the resistive-grid nodal solver against hand-solvable circuits
// and closed-form discrete solutions on uniform sheets.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "wsp/common/error.hpp"
#include "wsp/pdn/resistive_grid.hpp"

namespace wsp::pdn {
namespace {

constexpr std::array<bool, 4> kSouth = {false, false, true, false};
constexpr std::array<bool, 4> kWestEast = {false, true, false, true};
constexpr std::array<bool, 4> kAllEdges = {true, true, true, true};

/// Solves `sink` from a zero seed into a fresh voltage vector.
std::vector<double> solve(ResistiveGrid& g, const std::vector<double>& sink,
                          double tol, SolveStats* stats = nullptr) {
  std::vector<double> v(g.node_count(), 0.0);
  const SolveStats s = g.solve(sink, v, tol);
  EXPECT_TRUE(s.converged);
  if (stats != nullptr) *stats = s;
  return v;
}

TEST(ResistiveGrid, RejectsDegenerateGrids) {
  const GridSheet ok = {.width = 2, .height = 2, .gx = 1.0, .gy = 1.0,
                        .powered_edges = kSouth, .edge_v = 1.0};
  EXPECT_NO_THROW(ResistiveGrid{ok});
  GridSheet bad = ok;
  bad.width = 1;
  EXPECT_THROW(ResistiveGrid{bad}, Error);
  bad = ok;
  bad.height = 1;
  EXPECT_THROW(ResistiveGrid{bad}, Error);
}

TEST(ResistiveGrid, OhmsLawSingleSink) {
  // A 2x2 sheet fed at its west column: each free node hangs off its
  // supply through one 2-S edge.  Equal 1 A draws leave the vertical edge
  // between them idle, so each drops exactly 0.5 V.
  ResistiveGrid g({.width = 2, .height = 2, .gx = 2.0, .gy = 3.0,
                   .powered_edges = {false, false, false, true},
                   .edge_v = 1.0});
  std::vector<double> sink(4, 0.0);
  sink[g.index(1, 0)] = 1.0;
  sink[g.index(1, 1)] = 1.0;
  const std::vector<double> v = solve(g, sink, 1e-12);
  EXPECT_NEAR(v[g.index(1, 0)], 0.5, 1e-9);
  EXPECT_NEAR(v[g.index(1, 1)], 0.5, 1e-9);
  // KCL at the supply: it must deliver exactly the sink current.
  EXPECT_NEAR(g.total_supply_current(v, sink), 2.0, 1e-9);
  // P = I^2 / G = 0.5 W dissipated in each of the two loaded edges.
  EXPECT_NEAR(g.dissipated_power(v), 1.0, 1e-9);
}

TEST(ResistiveGrid, SymmetricLoadGivesSymmetricSolution) {
  ResistiveGrid g({.width = 9, .height = 9, .gx = 1.0, .gy = 1.0,
                   .powered_edges = kAllEdges, .edge_v = 1.0});
  std::vector<double> sink(g.node_count(), 0.0);
  sink[g.index(4, 4)] = 0.1;
  const std::vector<double> v = solve(g, sink, 1e-11);
  auto at = [&](int x, int y) { return v[g.index(x, y)]; };
  // 4-fold symmetry of the Laplace solution.
  EXPECT_NEAR(at(3, 4), at(5, 4), 1e-8);
  EXPECT_NEAR(at(4, 3), at(4, 5), 1e-8);
  EXPECT_NEAR(at(2, 4), at(4, 2), 1e-8);
  // The minimum sits at the sink.
  for (int y = 1; y < 8; ++y)
    for (int x = 1; x < 8; ++x) EXPECT_GE(at(x, y), at(4, 4) - 1e-9);
}

TEST(ResistiveGrid, MaximumPrincipleNoSinks) {
  // With no current sinks every node sits at the edge voltage; with only
  // injections no node falls below it (discrete maximum principle).
  ResistiveGrid g({.width = 6, .height = 6, .gx = 1.0, .gy = 1.0,
                   .powered_edges = {true, false, true, false},
                   .edge_v = 1.5});
  for (const double v : solve(g, std::vector<double>(36, 0.0), 1e-11))
    EXPECT_NEAR(v, 1.5, 1e-9);
  std::vector<double> inject(36, 0.0);
  inject[g.index(2, 3)] = -0.2;
  inject[g.index(5, 1)] = -0.1;
  for (const double v : solve(g, inject, 1e-11)) EXPECT_GE(v, 1.5 - 1e-9);
}

TEST(ResistiveGrid, CurrentConservationManySinks) {
  ResistiveGrid g({.width = 12, .height = 12, .gx = 3.0, .gy = 2.0,
                   .powered_edges = kSouth, .edge_v = 2.5});
  std::vector<double> sink(g.node_count(), 0.0);
  double total_load = 0.0;
  for (int y = 2; y < 11; ++y)
    for (int x = 1; x < 11; ++x) {
      sink[g.index(x, y)] = 0.01;
      total_load += 0.01;
    }
  const std::vector<double> v = solve(g, sink, 1e-11);
  EXPECT_NEAR(g.total_supply_current(v, sink), total_load, 1e-5);
}

TEST(ResistiveGrid, DeeperNodesDroopMore) {
  // Edge-fed grid with uniform load: voltage decreases monotonically with
  // distance from the powered edge.
  ResistiveGrid g({.width = 8, .height = 8, .gx = 1.0, .gy = 1.0,
                   .powered_edges = kSouth, .edge_v = 1.0});
  std::vector<double> sink(g.node_count(), 0.0);
  for (int y = 1; y < 8; ++y)
    for (int x = 0; x < 8; ++x) sink[g.index(x, y)] = 0.001;
  const std::vector<double> v = solve(g, sink, 1e-11);
  for (int y = 1; y < 7; ++y)
    EXPECT_GT(v[g.index(4, y)], v[g.index(4, y + 1)]);
}

TEST(ResistiveGrid, SolverSeedsFromPreviousSolution) {
  ResistiveGrid g({.width = 10, .height = 10, .gx = 1.0, .gy = 1.0,
                   .powered_edges = kSouth, .edge_v = 1.0});
  std::vector<double> sink(g.node_count(), 0.0);
  sink[g.index(5, 5)] = 0.01;
  std::vector<double> v(g.node_count(), 0.0);
  const SolveStats cold = g.solve(sink, v, 1e-10);
  ASSERT_TRUE(cold.converged);
  // Re-solving the identical system from the converged state is ~free.
  const SolveStats warm = g.solve(sink, v, 1e-10);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 2);
}

TEST(ResistiveGrid, ResidualReportsKirchhoffCurrentLaw) {
  // SolveStats.residual is the max nodal current-balance error in amperes
  // (not the per-cycle voltage update).  Recompute KCL by hand at every
  // non-Dirichlet node and compare.
  ResistiveGrid g({.width = 8, .height = 8, .gx = 2.0, .gy = 3.0,
                   .powered_edges = kSouth, .edge_v = 1.5});
  std::vector<double> sink(g.node_count(), 0.0);
  for (int y = 1; y < 8; ++y)
    for (int x = 0; x < 8; ++x) sink[g.index(x, y)] = 0.002;
  SolveStats stats;
  const std::vector<double> v = solve(g, sink, 1e-12, &stats);
  ASSERT_TRUE(stats.converged);

  auto at = [&](int x, int y) { return v[g.index(x, y)]; };
  double max_kcl = 0.0;
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      if (g.sheet().is_dirichlet(x, y)) continue;
      double balance = -sink[g.index(x, y)];
      if (x > 0) balance += 2.0 * (at(x - 1, y) - at(x, y));
      if (x < 7) balance += 2.0 * (at(x + 1, y) - at(x, y));
      if (y > 0) balance += 3.0 * (at(x, y - 1) - at(x, y));
      if (y < 7) balance += 3.0 * (at(x, y + 1) - at(x, y));
      max_kcl = std::max(max_kcl, std::abs(balance));
    }
  // Same quantity, modulo FP association in the by-hand recomputation.
  EXPECT_NEAR(stats.residual, max_kcl, 1e-12);
  // Converged to 1e-12 V updates => nodal balances are tight in amperes.
  EXPECT_LT(stats.residual, 1e-9);
  // And it is NOT the voltage update (which is reported separately).
  EXPECT_GE(stats.max_delta_v, 0.0);
  EXPECT_LT(stats.max_delta_v, 1e-12);
}

TEST(ResistiveGrid, StripMatchesDiscreteParabola) {
  // Closed form: with only the west and east columns held at V0 and a
  // uniform sink s on every other node, no current flows vertically and
  // each row is the discrete parabola V_k = V0 - (s/2g) k (W-1-k) — its
  // second difference is exactly s/g, so it satisfies every nodal balance.
  // Sizes cover the direct-solve-only, two-level and deep hierarchies.
  constexpr double kV0 = 2.5;
  constexpr double kSink = 0.004;
  constexpr double kG = 3.0;
  for (const auto& [w, h] : {std::pair{5, 3}, std::pair{17, 8},
                            std::pair{40, 9}, std::pair{64, 64}}) {
    ResistiveGrid g({.width = w, .height = h, .gx = kG, .gy = 0.7,
                     .powered_edges = kWestEast, .edge_v = kV0});
    std::vector<double> sink(g.node_count(), 0.0);
    double total_sink = 0.0;
    for (int y = 0; y < h; ++y)
      for (int x = 1; x < w - 1; ++x) {
        sink[g.index(x, y)] = kSink;
        total_sink += kSink;
      }
    SolveStats stats;
    const std::vector<double> v = solve(g, sink, 1e-12, &stats);
    ASSERT_TRUE(stats.converged) << w << "x" << h;
    double max_err = 0.0;
    for (int y = 0; y < h; ++y)
      for (int k = 0; k < w; ++k) {
        const double exact = kV0 - kSink / (2.0 * kG) * k * (w - 1 - k);
        max_err = std::max(max_err, std::abs(v[g.index(k, y)] - exact));
      }
    EXPECT_LT(max_err, 1e-9) << w << "x" << h;
    // Power balance: the edge columns supply exactly what the sinks draw.
    EXPECT_NEAR(g.total_supply_current(v, sink), total_sink,
                1e-9 * total_sink)
        << w << "x" << h;
  }
}

TEST(ResistiveGrid, InvalidArgumentsThrow) {
  const GridSheet ok = {.width = 4, .height = 4, .gx = 1.0, .gy = 1.0,
                        .powered_edges = kSouth, .edge_v = 1.0};
  GridSheet bad = ok;
  bad.gx = 0.0;  // every edge must conduct
  EXPECT_THROW(ResistiveGrid{bad}, Error);
  bad = ok;
  bad.gy = -1.0;
  EXPECT_THROW(ResistiveGrid{bad}, Error);
  bad = ok;
  bad.powered_edges = {};  // nothing grounds the sheet
  EXPECT_THROW(ResistiveGrid{bad}, Error);
  bad.shunt_g = 0.5;  // ... until a shunt does
  EXPECT_NO_THROW(ResistiveGrid{bad});

  ResistiveGrid g(ok);
  std::vector<double> sink(g.node_count(), 0.0);
  std::vector<double> v(g.node_count(), 0.0);
  EXPECT_THROW(g.solve(sink, v, 0.0), Error);
  std::vector<double> short_v(g.node_count() - 1, 0.0);
  EXPECT_THROW(g.solve(sink, short_v), Error);
}

}  // namespace
}  // namespace wsp::pdn
