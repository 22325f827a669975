// Tests for the geometric multigrid PDN solver against oracles that share
// no code with it: a test-local dense Gaussian elimination on small mixed
// Dirichlet/shunt/sink/injection grids, the discrete eigen-expansion of a
// uniformly loaded Dirichlet square, and power balance on the paper's
// wafer.  Also grid-size-independent V-cycle counts, batched multi-RHS
// equivalence, and bit-identical results at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/pdn/resistive_grid.hpp"
#include "wsp/pdn/thermal.hpp"
#include "wsp/pdn/wafer_pdn.hpp"

namespace wsp::pdn {
namespace {

/// Edge-supplied power plane: Dirichlet ring at 2.5 V, uniform interior
/// draw — the wafer solve's structure at grid level.
ResistiveGrid make_plane(int n) {
  ResistiveGrid g(n, n);
  g.fill_conductances(5.0, 5.0);
  for (int i = 0; i < n; ++i) {
    g.set_dirichlet(i, 0, 2.5);
    g.set_dirichlet(i, n - 1, 2.5);
    g.set_dirichlet(0, i, 2.5);
    g.set_dirichlet(n - 1, i, 2.5);
  }
  for (int y = 1; y < n - 1; ++y)
    for (int x = 1; x < n - 1; ++x) g.set_current_sink(x, y, 0.02);
  return g;
}

/// A small resistor-grid problem written down once and then handed both to
/// ResistiveGrid and to the dense oracle.  Edge conductances come from
/// functions of the edge's position so every edge differs.
struct OracleCase {
  int w = 0;
  int h = 0;
  double (*g_east)(int x, int y) = nullptr;
  double (*g_north)(int x, int y) = nullptr;
  std::vector<std::tuple<int, int, double>> dirichlet;       // x, y, volts
  std::vector<std::tuple<int, int, double, double>> shunts;  // x, y, S, v_ref
  std::vector<std::tuple<int, int, double>> sinks;           // x, y, amperes

  ResistiveGrid build() const {
    ResistiveGrid g(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x + 1 < w; ++x)
        g.set_conductance_east(x, y, g_east(x, y));
    for (int y = 0; y + 1 < h; ++y)
      for (int x = 0; x < w; ++x)
        g.set_conductance_north(x, y, g_north(x, y));
    for (const auto& [x, y, v] : dirichlet) g.set_dirichlet(x, y, v);
    for (const auto& [x, y, gs, vr] : shunts) g.set_shunt(x, y, gs, vr);
    for (const auto& [x, y, a] : sinks) g.set_current_sink(x, y, a);
    return g;
  }

  /// Nodal voltages by dense Gaussian elimination with partial pivoting on
  /// the full node-by-node system: a Dirichlet row pins its node, every
  /// other row is the node's Kirchhoff current balance.
  std::vector<double> dense_solve() const {
    const int n = w * h;
    auto at = [&](int x, int y) { return y * w + x; };
    std::vector<std::vector<double>> a(n, std::vector<double>(n + 1, 0.0));
    std::vector<char> pinned(n, 0);
    for (const auto& [x, y, v] : dirichlet) {
      pinned[at(x, y)] = 1;
      a[at(x, y)][at(x, y)] = 1.0;
      a[at(x, y)][n] = v;
    }
    auto stamp = [&](int i, int j, double g) {
      for (const auto& [row, col] : {std::pair{i, j}, std::pair{j, i}}) {
        if (pinned[row]) continue;
        a[row][row] += g;
        a[row][col] -= g;
      }
    };
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        if (x + 1 < w) stamp(at(x, y), at(x + 1, y), g_east(x, y));
        if (y + 1 < h) stamp(at(x, y), at(x, y + 1), g_north(x, y));
      }
    for (const auto& [x, y, gs, vr] : shunts) {
      if (pinned[at(x, y)]) continue;
      a[at(x, y)][at(x, y)] += gs;
      a[at(x, y)][n] += gs * vr;
    }
    for (const auto& [x, y, amps] : sinks)
      if (!pinned[at(x, y)]) a[at(x, y)][n] -= amps;

    for (int col = 0; col < n; ++col) {
      int pivot = col;
      for (int r = col + 1; r < n; ++r)
        if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
      std::swap(a[col], a[pivot]);
      for (int r = col + 1; r < n; ++r) {
        const double f = a[r][col] / a[col][col];
        for (int c = col; c <= n; ++c) a[r][c] -= f * a[col][c];
      }
    }
    std::vector<double> v(n);
    for (int r = n - 1; r >= 0; --r) {
      double acc = a[r][n];
      for (int c = r + 1; c < n; ++c) acc -= a[r][c] * v[c];
      v[r] = acc / a[r][r];
    }
    return v;
  }

  /// Current flowing into the grid through its shunts at solution `v`.
  double shunt_inflow(const std::vector<double>& v) const {
    double in = 0.0;
    for (const auto& [x, y, gs, vr] : shunts) in += gs * (vr - v[y * w + x]);
    return in;
  }

  double total_sink() const {
    double total = 0.0;
    for (const auto& [x, y, a] : sinks) total += a;
    return total;
  }
};

double ripple_east(int x, int y) { return 1.0 + 0.25 * ((3 * x + 5 * y) % 7); }
double ripple_north(int x, int y) { return 0.6 + 0.2 * ((2 * x + 3 * y) % 5); }

/// Multigrid must land on the dense solution and balance current:
/// Dirichlet supply plus shunt inflow equals the total sink.
void expect_matches_dense_oracle(const OracleCase& c) {
  const std::vector<double> exact = c.dense_solve();
  ResistiveGrid g = c.build();
  const SolveStats stats = g.solve(1e-12);
  ASSERT_TRUE(stats.converged) << c.w << "x" << c.h;
  double max_diff = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i)
    max_diff = std::max(max_diff, std::fabs(g.voltages()[i] - exact[i]));
  EXPECT_LE(max_diff, 1e-9) << c.w << "x" << c.h;
  EXPECT_NEAR(g.total_supply_current() + c.shunt_inflow(g.voltages()),
              c.total_sink(), 1e-9)
      << c.w << "x" << c.h;
}

double max_voltage_diff(const ResistiveGrid& a, const ResistiveGrid& b) {
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.node_count(); ++i)
    max_diff =
        std::max(max_diff, std::fabs(a.voltages()[i] - b.voltages()[i]));
  return max_diff;
}

TEST(Multigrid, MatchesEigenExpansionOnDirichletRing) {
  // Odd size exercises the no-2^k+1-requirement coarsening path.  With the
  // ring pinned at V0, uniform conductance g and a uniform sink s on the
  // N x N interior, the droop u = V0 - V solves g L u = s for the Dirichlet
  // 5-point Laplacian L.  Its eigenvectors are products of sines, so with
  // t = pi/(N+1), a_j = sum_p sin(j p t) and
  // lambda_jk = 4 - 2 cos(j t) - 2 cos(k t):
  //   u(p,q) = (s/g) (2/(N+1))^2
  //            * sum_jk a_j a_k sin(j p t) sin(k q t) / lambda_jk
  constexpr int kN = 33;
  constexpr int kInterior = kN - 2;
  constexpr double kV0 = 2.5, kG = 5.0, kSink = 0.02;  // make_plane's values
  ResistiveGrid mg = make_plane(kN);
  ASSERT_TRUE(mg.solve(1e-11).converged);

  const double t = std::numbers::pi / (kInterior + 1);
  std::vector<std::vector<double>> sines(kInterior + 1,
                                         std::vector<double>(kInterior + 1));
  std::vector<double> a(kInterior + 1, 0.0);
  for (int j = 1; j <= kInterior; ++j)
    for (int p = 1; p <= kInterior; ++p) {
      sines[j][p] = std::sin(j * p * t);
      a[j] += sines[j][p];
    }
  const double scale = kSink / kG * std::pow(2.0 / (kInterior + 1), 2);
  double max_diff = 0.0;
  for (int q = 1; q <= kInterior; ++q)
    for (int p = 1; p <= kInterior; ++p) {
      double u = 0.0;
      for (int j = 1; j <= kInterior; ++j)
        for (int k = 1; k <= kInterior; ++k)
          u += a[j] * a[k] * sines[j][p] * sines[k][q] /
               (4.0 - 2.0 * std::cos(j * t) - 2.0 * std::cos(k * t));
      max_diff = std::max(max_diff,
                          std::fabs(mg.voltage(p, q) - (kV0 - scale * u)));
    }
  EXPECT_LE(max_diff, 1e-9);
  EXPECT_NEAR(mg.total_supply_current(), kSink * kInterior * kInterior,
              1e-9);
}

TEST(Multigrid, MatchesDenseOracleWithShuntsSinksAndInjection) {
  // Mixed boundary conditions: interior Dirichlet posts, shunts to two
  // different references (loads to ground and a thermal-style path), point
  // draws and a current injection, on a non-square grid.
  OracleCase c;
  c.w = 12;
  c.h = 11;
  c.g_east = ripple_east;
  c.g_north = ripple_north;
  for (int x = 0; x < c.w; ++x) c.dirichlet.emplace_back(x, 0, 2.5);
  c.dirichlet.emplace_back(3, 6, 2.4);  // interior supply post
  c.shunts.emplace_back(5, 8, 0.8, 0.0);
  c.shunts.emplace_back(10, 2, 0.3, 1.2);
  c.sinks.emplace_back(6, 5, 0.5);
  c.sinks.emplace_back(1, 10, 0.2);
  c.sinks.emplace_back(11, 8, -0.1);  // injection
  expect_matches_dense_oracle(c);
}

TEST(Multigrid, MatchesDenseOracleOnMixedGrids) {
  // Edge-fed plane under a spread load.
  OracleCase edge_fed;
  edge_fed.w = 12;
  edge_fed.h = 12;
  edge_fed.g_east = ripple_east;
  edge_fed.g_north = ripple_north;
  for (int y = 0; y < 12; ++y) edge_fed.dirichlet.emplace_back(0, y, 2.5);
  for (int y = 0; y < 12; ++y)
    for (int x = 1; x < 12; ++x)
      edge_fed.sinks.emplace_back(x, y, 0.001 * (1 + (x * y) % 4));
  expect_matches_dense_oracle(edge_fed);

  // Thermal-style: no Dirichlet node at all, every node grounded through a
  // shunt to ambient, heat injected (negative sinks) at hotspots.
  OracleCase shunted;
  shunted.w = 9;
  shunted.h = 12;
  shunted.g_east = ripple_north;
  shunted.g_north = ripple_east;
  for (int y = 0; y < 12; ++y)
    for (int x = 0; x < 9; ++x) shunted.shunts.emplace_back(x, y, 0.05, 25.0);
  shunted.sinks.emplace_back(4, 6, -3.0);
  shunted.sinks.emplace_back(1, 1, -1.5);
  shunted.sinks.emplace_back(8, 11, 0.4);
  expect_matches_dense_oracle(shunted);

  // Dirichlet ring at two voltages plus interior draws and injections.
  OracleCase ring;
  ring.w = 11;
  ring.h = 11;
  ring.g_east = ripple_east;
  ring.g_north = ripple_east;
  for (int i = 0; i < 11; ++i) {
    ring.dirichlet.emplace_back(i, 0, 2.5);
    ring.dirichlet.emplace_back(i, 10, 2.5);
    ring.dirichlet.emplace_back(0, i, 2.3);
    ring.dirichlet.emplace_back(10, i, 2.3);
  }
  for (int y = 1; y < 10; ++y)
    for (int x = 1; x < 10; ++x)
      ring.sinks.emplace_back(x, y, (x + y) % 3 == 0 ? -0.01 : 0.02);
  expect_matches_dense_oracle(ring);
}

TEST(Multigrid, PaperPrototypeWaferBalancesPower) {
  // Conservation on the paper's full wafer, where no dense oracle fits:
  // the edge supplies exactly the tiles' total draw (LDO pass-through plus
  // quiescent), and by Tellegen's theorem the input power splits exactly
  // into plane IR loss, LDO headroom loss and power delivered to logic.
  // The second map leaves every 10th tile unpowered: those LDOs are off,
  // so they draw no quiescent current and dissipate nothing, while their
  // output is still evaluated (link BER reads it).
  const SystemConfig cfg = SystemConfig::paper_prototype();
  const auto tiles = static_cast<std::size_t>(cfg.total_tiles());
  std::vector<double> peak(tiles, cfg.tile_peak_power_w);
  std::vector<double> sparse = peak;
  for (std::size_t i = 0; i < tiles; i += 10) sparse[i] = 0.0;
  WaferPdn pdn(cfg, {});
  for (const auto& power : {peak, sparse}) {
    const PdnReport r = pdn.solve(power);
    ASSERT_TRUE(r.solver_converged);
    double draw = 0.0;
    for (const TilePower& t : r.tiles) draw += t.plane_current_a;
    EXPECT_NEAR(r.total_supply_current_a, draw, 1e-6 * draw);
    EXPECT_NEAR(r.total_input_power_w,
                r.plane_loss_w + r.ldo_loss_w + r.delivered_power_w,
                1e-6 * r.total_input_power_w);
    for (std::size_t i = 0; i < tiles; ++i) {
      if (power[i] > 0.0) continue;
      EXPECT_EQ(r.tiles[i].plane_current_a, 0.0) << "tile " << i;
      EXPECT_EQ(r.tiles[i].ldo_loss_w, 0.0) << "tile " << i;
      EXPECT_GT(r.tiles[i].regulated_v, 0.0) << "tile " << i;
    }
  }
}

TEST(Multigrid, VCycleCountIsGridSizeIndependent) {
  // The whole point of the method: where a single-level relaxation's
  // sweep count grows with resolution, the V-cycle count stays flat from
  // 16x16 to 128x128.
  int min_cycles = 1 << 20;
  int max_cycles = 0;
  for (const int n : {16, 32, 64, 128}) {
    ResistiveGrid g = make_plane(n);
    const SolveStats stats = g.solve(1e-7);
    ASSERT_TRUE(stats.converged) << "n=" << n;
    min_cycles = std::min(min_cycles, stats.iterations);
    max_cycles = std::max(max_cycles, stats.iterations);
  }
  EXPECT_LE(max_cycles, 10);
  EXPECT_LE(max_cycles - min_cycles, 4);
}

TEST(Multigrid, ConvergedSolveCostsFewSweepEquivalents) {
  // A converged 64x64 plane costs a few dozen fine-sweep equivalents, FMG
  // start included — a fifth of the ~175 sweeps Chebyshev-optimal SOR
  // needed on the same plane.
  ResistiveGrid mg = make_plane(64);
  const SolveStats stats = mg.solve(1e-7);
  ASSERT_TRUE(stats.converged);
  EXPECT_LE(stats.fine_sweep_equivalents, 35.0);
}

TEST(Multigrid, HierarchySurvivesSinkUpdatesAndTracksTopologyEdits) {
  // Sink updates reuse the cached hierarchy (solve 2 must still be right);
  // a topology edit must rebuild it (solve 3 must match a grid built with
  // the edit from scratch, which never had a stale hierarchy).
  ResistiveGrid mg = make_plane(33);
  ASSERT_TRUE(mg.solve(1e-9).converged);

  std::vector<double> heavier = mg.current_sinks();
  for (double& s : heavier) s *= 2.0;
  mg.set_current_sinks(heavier);
  mg.reset_voltages(0.0);
  ASSERT_TRUE(mg.solve(1e-9).converged);

  mg.set_conductance_east(10, 10, 0.01);  // topology change
  mg.reset_voltages(0.0);
  ASSERT_TRUE(mg.solve(1e-9).converged);

  ResistiveGrid fresh = make_plane(33);
  fresh.set_current_sinks(heavier);
  fresh.set_conductance_east(10, 10, 0.01);
  ASSERT_TRUE(fresh.solve(1e-9).converged);
  EXPECT_LE(max_voltage_diff(fresh, mg), 1e-7);
}

TEST(Multigrid, BitIdenticalAcrossThreadCounts) {
  std::vector<double> baseline;
  for (const int threads : {1, 2, 8}) {
    exec::set_shared_threads(threads);
    ResistiveGrid g = make_plane(64);
    ASSERT_TRUE(g.solve(1e-7).converged);
    if (baseline.empty()) {
      baseline = g.voltages();
    } else {
      EXPECT_EQ(g.voltages(), baseline) << "threads=" << threads;
    }
  }
  exec::set_shared_threads(0);
}

/// CRC-32 over values folded in as little-endian 8-byte words (doubles by
/// their IEEE-754 bits), so a pin reads the same on every host.
class ByteCrc {
 public:
  void u64(std::uint64_t bits) {
    std::uint8_t b[8];
    for (int k = 0; k < 8; ++k)
      b[k] = static_cast<std::uint8_t>(bits >> (8 * k));
    crc_ = ckpt::crc32_update(crc_, b, sizeof b);
  }
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }
  /// A solve's whole output: every node voltage, then each SolveStats
  /// field in declaration order.
  void solve(std::span<const double> v, const SolveStats& s) {
    for (const double d : v) f64(d);
    u64(static_cast<std::uint64_t>(s.iterations));
    f64(s.residual);
    f64(s.max_delta_v);
    u64(s.converged ? 1 : 0);
    f64(s.fine_sweep_equivalents);
  }
  std::uint32_t value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

std::uint32_t solve_crc(std::span<const double> v, const SolveStats& s) {
  ByteCrc crc;
  crc.solve(v, s);
  return crc.value();
}

TEST(Multigrid, SolveBytesArePinned) {
  // Every byte a solve returns is pinned: the solver kernels may be
  // rewritten for speed, but each must keep its accumulation order, so a
  // change that moves one of these CRCs changed the arithmetic.
  const SystemConfig cfg = SystemConfig::paper_prototype();
  const std::size_t tiles = cfg.grid().tile_count();

  // The paper wafer's 64x64 plane: a cold solve, then a warm re-solve of
  // a perturbed map from its solution.
  std::vector<double> power(tiles);
  for (std::size_t i = 0; i < tiles; ++i)
    power[i] = cfg.tile_peak_power_w * (0.3 + 0.007 * ((i * 37) % 101));
  WaferPdn pdn(cfg, {});
  std::vector<std::vector<double>> seeds(1);
  std::vector<SolveStats> stats;
  const PdnReport cold =
      pdn.solve_batch_warm(std::vector<std::vector<double>>{power}, seeds,
                           &stats)[0];
  ASSERT_TRUE(cold.solver_converged);
  EXPECT_EQ(solve_crc(seeds[0], stats[0]), 0x952e6422u) << "wafer cold";
  for (std::size_t i = 0; i < tiles; i += 7) power[i] *= 0.5;
  pdn.solve_batch_warm(std::vector<std::vector<double>>{power}, seeds, &stats);
  ASSERT_TRUE(stats[0].converged);
  EXPECT_GT(stats[0].iterations, 0);
  EXPECT_EQ(solve_crc(seeds[0], stats[0]), 0x32fdced5u) << "wafer warm";

  // A 37x29 plane with interior supply posts, a zero-conductance slot, a
  // floating island (with a load on it the solve must leave alone), shunts
  // to non-zero references, scattered loads and one injection; solved
  // cold, then warm after the loads change.
  ResistiveGrid mixed(37, 29);
  for (int y = 0; y < 29; ++y)
    for (int x = 0; x + 1 < 37; ++x)
      mixed.set_conductance_east(x, y, ripple_east(x, y));
  for (int y = 0; y + 1 < 29; ++y)
    for (int x = 0; x < 37; ++x)
      mixed.set_conductance_north(x, y, ripple_north(x, y));
  for (int y = 0; y < 29; ++y) mixed.set_dirichlet(0, y, 1.8);
  mixed.set_dirichlet(18, 14, 1.5);
  mixed.set_dirichlet(30, 7, 1.6);
  for (int y = 10; y <= 12; ++y) mixed.set_conductance_east(24, y, 0.0);
  for (int y = 20; y <= 22; ++y) {
    mixed.set_conductance_east(7, y, 0.0);
    mixed.set_conductance_east(11, y, 0.0);
  }
  for (int x = 8; x <= 11; ++x) {
    mixed.set_conductance_north(x, 19, 0.0);
    mixed.set_conductance_north(x, 22, 0.0);
  }
  for (int k = 0; k < 8; ++k)
    mixed.set_shunt(33, 2 + 3 * k, 0.05 * (k + 1), 0.9 + 0.1 * k);
  for (int y = 0; y < 29; ++y)
    for (int x = 1; x < 37; ++x)
      if ((7 * x + 3 * y) % 5 == 0)
        mixed.set_current_sink(x, y, 0.01 + 0.002 * (x % 4));
  mixed.set_current_sink(20, 25, -0.05);
  mixed.set_current_sink(9, 21, 0.3);  // on the island
  SolveStats s = mixed.solve(1e-9);
  ASSERT_TRUE(s.converged);
  EXPECT_EQ(mixed.voltage(9, 21), 0.0);
  EXPECT_EQ(solve_crc(mixed.voltages(), s), 0xfa34a884u) << "37x29 cold";
  std::vector<double> loads = mixed.current_sinks();
  for (std::size_t i = 0; i < loads.size(); i += 3) loads[i] *= 1.5;
  mixed.set_current_sinks(loads);
  s = mixed.solve(1e-9);
  ASSERT_TRUE(s.converged);
  EXPECT_EQ(solve_crc(mixed.voltages(), s), 0x0a4eb747u) << "37x29 warm";

  // A 2x40 strip: one axis can never coarsen.
  ResistiveGrid strip(2, 40);
  strip.fill_conductances(3.0, 2.0);
  strip.set_dirichlet(0, 0, 1.0);
  strip.set_dirichlet(1, 0, 1.0);
  for (int y = 1; y < 40; ++y)
    for (int x = 0; x < 2; ++x)
      strip.set_current_sink(x, y, 0.001 * (y % 3 + 1 + x));
  strip.set_shunt(1, 39, 0.5, 0.8);
  s = strip.solve(1e-10);
  ASSERT_TRUE(s.converged);
  EXPECT_EQ(solve_crc(strip.voltages(), s), 0x937c7831u) << "2x40 strip";

  // A thermal extraction from the cold wafer report: shunts to ambient on
  // every node and no Dirichlet node at all.
  WaferThermal thermal(cfg);
  const ThermalReport t = thermal.solve(heat_map_from_pdn(cfg, cold));
  ASSERT_TRUE(t.solver_converged);
  ByteCrc tc;
  for (const double c : t.tile_temperature_c) tc.f64(c);
  tc.f64(t.max_c);
  tc.f64(t.mean_c);
  tc.f64(t.total_heat_w);
  tc.u64(static_cast<std::uint64_t>(t.tiles_over_limit));
  EXPECT_EQ(tc.value(), 0x9e64d3e5u) << "thermal";
}

TEST(SolveBatch, MultigridMatchesSequentialSolves) {
  ResistiveGrid grid = make_plane(33);
  constexpr double kTol = 1e-7;
  const std::size_t nodes = grid.node_count();
  constexpr int kRhs = 8;

  std::vector<std::vector<double>> sinks(kRhs);
  for (int m = 0; m < kRhs; ++m) {
    sinks[m] = grid.current_sinks();
    for (double& s : sinks[m]) s *= 0.5 + 0.25 * m;
    sinks[m][grid.index(4 + 2 * m, 16)] += 0.3;
  }

  std::vector<std::vector<double>> expected(kRhs);
  for (int m = 0; m < kRhs; ++m) {
    grid.set_current_sinks(sinks[m]);
    grid.reset_voltages(0.0);
    ASSERT_TRUE(grid.solve(kTol).converged);
    expected[m] = grid.voltages();
  }

  std::vector<std::vector<double>> got(kRhs, std::vector<double>(nodes, 0.0));
  std::vector<SolveStats> stats(kRhs);
  std::vector<RhsView> views(kRhs);
  for (int m = 0; m < kRhs; ++m) views[m] = RhsView{sinks[m], got[m]};
  grid.solve_batch(views, stats, kTol);
  for (int m = 0; m < kRhs; ++m) {
    EXPECT_TRUE(stats[m].converged) << "rhs " << m;
    EXPECT_EQ(got[m], expected[m]) << "rhs " << m;  // bitwise
  }
}

TEST(SolveBatch, BitIdenticalAcrossThreadCounts) {
  ResistiveGrid grid = make_plane(33);
  constexpr double kTol = 1e-7;
  const std::size_t nodes = grid.node_count();
  constexpr int kRhs = 6;

  std::vector<std::vector<double>> sinks(kRhs);
  for (int m = 0; m < kRhs; ++m) {
    sinks[m] = grid.current_sinks();
    sinks[m][grid.index(8 + 3 * m, 20)] += 0.2;
  }

  std::vector<std::vector<double>> baseline;
  for (const int threads : {1, 2, 8}) {
    exec::set_shared_threads(threads);
    std::vector<std::vector<double>> got(kRhs,
                                         std::vector<double>(nodes, 0.0));
    std::vector<SolveStats> stats(kRhs);
    std::vector<RhsView> views(kRhs);
    for (int m = 0; m < kRhs; ++m) views[m] = RhsView{sinks[m], got[m]};
    grid.solve_batch(views, stats, kTol);
    if (baseline.empty()) {
      baseline = got;
    } else {
      EXPECT_EQ(got, baseline) << "threads=" << threads;
    }
  }
  exec::set_shared_threads(0);
}

}  // namespace
}  // namespace wsp::pdn
