// Tests for the resistive-grid nodal solver against hand-solvable circuits
// and closed-form discrete solutions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "wsp/common/error.hpp"
#include "wsp/pdn/resistive_grid.hpp"

namespace wsp::pdn {
namespace {

TEST(ResistiveGrid, RejectsDegenerateGrids) {
  EXPECT_THROW(ResistiveGrid(1, 5), Error);
  EXPECT_NO_THROW(ResistiveGrid(2, 2));
}

TEST(ResistiveGrid, VoltageDividerTwoNodes) {
  // 2x2 grid used as a 1-D divider: fix (0,0)=1V, (1,0)=0V via two equal
  // resistors to a middle... simplest: 3x2, chain of two 1-ohm resistors,
  // midpoint must sit at 0.5 V.
  ResistiveGrid g(3, 2);
  g.fill_conductances(1.0, 0.0);  // horizontal chain only
  g.set_dirichlet(0, 0, 1.0);
  g.set_dirichlet(2, 0, 0.0);
  const SolveStats stats = g.solve(1e-10);
  EXPECT_TRUE(stats.converged);
  EXPECT_NEAR(g.voltage(1, 0), 0.5, 1e-8);
}

TEST(ResistiveGrid, OhmsLawSingleSink) {
  // One source node, one load node, single 2-S conductance between them:
  // drawing 1 A must drop 0.5 V.
  ResistiveGrid g(2, 2);
  g.set_conductance_east(0, 0, 2.0);
  g.set_dirichlet(0, 0, 1.0);
  g.set_current_sink(1, 0, 1.0);
  const SolveStats stats = g.solve(1e-12);
  EXPECT_TRUE(stats.converged);
  EXPECT_NEAR(g.voltage(1, 0), 0.5, 1e-9);
  // KCL at the supply: it must deliver exactly the sink current.
  EXPECT_NEAR(g.total_supply_current(), 1.0, 1e-6);
  // P = I^2 / G = 0.5 W dissipated in the resistor.
  EXPECT_NEAR(g.dissipated_power(), 0.5, 1e-6);
}

TEST(ResistiveGrid, SymmetricLoadGivesSymmetricSolution) {
  ResistiveGrid g(9, 9);
  g.fill_conductances(1.0, 1.0);
  for (int x = 0; x < 9; ++x) {
    g.set_dirichlet(x, 0, 1.0);
    g.set_dirichlet(x, 8, 1.0);
  }
  for (int y = 0; y < 9; ++y) {
    g.set_dirichlet(0, y, 1.0);
    g.set_dirichlet(8, y, 1.0);
  }
  g.set_current_sink(4, 4, 0.1);
  ASSERT_TRUE(g.solve(1e-11).converged);
  // 4-fold symmetry of the Laplace solution.
  EXPECT_NEAR(g.voltage(3, 4), g.voltage(5, 4), 1e-8);
  EXPECT_NEAR(g.voltage(4, 3), g.voltage(4, 5), 1e-8);
  EXPECT_NEAR(g.voltage(2, 4), g.voltage(4, 2), 1e-8);
  // The minimum sits at the sink.
  for (int y = 1; y < 8; ++y)
    for (int x = 1; x < 8; ++x)
      EXPECT_GE(g.voltage(x, y), g.voltage(4, 4) - 1e-9);
}

TEST(ResistiveGrid, MaximumPrincipleNoSinks) {
  // With no current sinks, interior voltages must lie between the
  // boundary extremes (discrete maximum principle).
  ResistiveGrid g(6, 6);
  g.fill_conductances(1.0, 1.0);
  for (int x = 0; x < 6; ++x) {
    g.set_dirichlet(x, 0, 1.0);
    g.set_dirichlet(x, 5, 2.0);
  }
  ASSERT_TRUE(g.solve(1e-11).converged);
  for (int y = 1; y < 5; ++y)
    for (int x = 0; x < 6; ++x) {
      EXPECT_GE(g.voltage(x, y), 1.0 - 1e-9);
      EXPECT_LE(g.voltage(x, y), 2.0 + 1e-9);
    }
}

TEST(ResistiveGrid, CurrentConservationManySinks) {
  ResistiveGrid g(12, 12);
  g.fill_conductances(3.0, 2.0);
  for (int x = 0; x < 12; ++x) g.set_dirichlet(x, 0, 2.5);
  double total_load = 0.0;
  for (int y = 2; y < 11; ++y)
    for (int x = 1; x < 11; ++x) {
      g.set_current_sink(x, y, 0.01);
      total_load += 0.01;
    }
  ASSERT_TRUE(g.solve(1e-11).converged);
  EXPECT_NEAR(g.total_supply_current(), total_load, 1e-5);
}

TEST(ResistiveGrid, DeeperNodesDroopMore) {
  // Edge-fed grid with uniform load: voltage decreases monotonically with
  // distance from the powered edge.
  ResistiveGrid g(8, 8);
  g.fill_conductances(1.0, 1.0);
  for (int x = 0; x < 8; ++x) g.set_dirichlet(x, 0, 1.0);
  for (int y = 1; y < 8; ++y)
    for (int x = 0; x < 8; ++x) g.set_current_sink(x, y, 0.001);
  ASSERT_TRUE(g.solve(1e-11).converged);
  for (int y = 1; y < 7; ++y)
    EXPECT_GT(g.voltage(4, y), g.voltage(4, y + 1));
}

TEST(ResistiveGrid, SolverSeedsFromPreviousSolution) {
  ResistiveGrid g(10, 10);
  g.fill_conductances(1.0, 1.0);
  for (int x = 0; x < 10; ++x) g.set_dirichlet(x, 0, 1.0);
  g.set_current_sink(5, 5, 0.01);
  const SolveStats cold = g.solve(1e-10);
  ASSERT_TRUE(cold.converged);
  // Re-solving the identical system from the converged state is ~free.
  const SolveStats warm = g.solve(1e-10);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 2);
}

TEST(ResistiveGrid, ResidualReportsKirchhoffCurrentLaw) {
  // SolveStats.residual is the max nodal current-balance error in amperes
  // (not the per-cycle voltage update).  Recompute KCL by hand at every
  // non-Dirichlet node and compare.
  ResistiveGrid g(8, 8);
  g.fill_conductances(2.0, 3.0);
  for (int x = 0; x < 8; ++x) g.set_dirichlet(x, 0, 1.5);
  for (int y = 1; y < 8; ++y)
    for (int x = 0; x < 8; ++x) g.set_current_sink(x, y, 0.002);
  const SolveStats stats = g.solve(1e-12);
  ASSERT_TRUE(stats.converged);

  double max_kcl = 0.0;
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      if (g.is_dirichlet(x, y)) continue;
      double balance = -g.current_sink(x, y);
      if (x > 0) balance += 2.0 * (g.voltage(x - 1, y) - g.voltage(x, y));
      if (x < 7) balance += 2.0 * (g.voltage(x + 1, y) - g.voltage(x, y));
      if (y > 0) balance += 3.0 * (g.voltage(x, y - 1) - g.voltage(x, y));
      if (y < 7) balance += 3.0 * (g.voltage(x, y + 1) - g.voltage(x, y));
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
  // Closed form: with only the x=0 and x=W-1 columns held at V0 and a
  // uniform sink s on every other node, no current flows vertically and
  // each row is the discrete parabola V_k = V0 - (s/2g) k (W-1-k) — its
  // second difference is exactly s/g, so it satisfies every nodal balance.
  // Sizes cover the direct-solve-only, two-level and deep hierarchies.
  constexpr double kV0 = 2.5;
  constexpr double kSink = 0.004;
  constexpr double kG = 3.0;
  for (const auto& [w, h] : {std::pair{5, 3}, std::pair{17, 8},
                            std::pair{40, 9}, std::pair{64, 64}}) {
    ResistiveGrid g(w, h);
    g.fill_conductances(kG, 0.7);
    double total_sink = 0.0;
    for (int y = 0; y < h; ++y) {
      g.set_dirichlet(0, y, kV0);
      g.set_dirichlet(w - 1, y, kV0);
      for (int x = 1; x < w - 1; ++x) {
        g.set_current_sink(x, y, kSink);
        total_sink += kSink;
      }
    }
    ASSERT_TRUE(g.solve(1e-12).converged)
        << w << "x" << h;
    double max_err = 0.0;
    for (int y = 0; y < h; ++y)
      for (int k = 0; k < w; ++k) {
        const double exact = kV0 - kSink / (2.0 * kG) * k * (w - 1 - k);
        max_err = std::max(max_err, std::abs(g.voltage(k, y) - exact));
      }
    EXPECT_LT(max_err, 1e-9) << w << "x" << h;
    // Power balance: the edge columns supply exactly what the sinks draw.
    EXPECT_NEAR(g.total_supply_current(), total_sink, 1e-9 * total_sink)
        << w << "x" << h;
  }
}

TEST(ResistiveGrid, InvalidArgumentsThrow) {
  ResistiveGrid g(4, 4);
  EXPECT_THROW(g.set_conductance_east(3, 0, 1.0), Error);  // off the edge
  EXPECT_THROW(g.set_conductance_north(0, 3, 1.0), Error);
  EXPECT_THROW(g.set_conductance_east(0, 0, -1.0), Error);
  EXPECT_THROW(g.solve(0.0), Error);
}

}  // namespace
}  // namespace wsp::pdn
