// Tests for the geometric multigrid PDN solver against oracles that share
// no code with it: a test-local dense Gaussian elimination on every kept
// sheet form (odd and even sizes, each powered-edge set, the shunted
// thermal sheet), the discrete eigen-expansion of a uniformly loaded
// Dirichlet square, superposition and reciprocity of the linear response,
// and power balance on the paper's wafer.  Also grid-size-independent
// V-cycle counts, batched multi-RHS equivalence, and bit-identical results
// at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <string>
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

/// Edge-supplied power plane: all four edges powered at 2.5 V — the wafer
/// solve's structure at grid level.
ResistiveGrid make_plane(int n) {
  return ResistiveGrid({.width = n, .height = n, .gx = 5.0, .gy = 5.0,
                        .powered_edges = {true, true, true, true},
                        .edge_v = 2.5});
}

/// make_plane's load: a uniform 0.02 A draw on every interior node.
std::vector<double> plane_sinks(const ResistiveGrid& g) {
  std::vector<double> sink(g.node_count(), 0.0);
  for (int y = 1; y < g.height() - 1; ++y)
    for (int x = 1; x < g.width() - 1; ++x) sink[g.index(x, y)] = 0.02;
  return sink;
}

/// Solves `sink` from a zero seed; returns the solution.
std::vector<double> solve_from_zero(ResistiveGrid& g,
                                    const std::vector<double>& sink,
                                    double tol, SolveStats* stats = nullptr) {
  std::vector<double> v(g.node_count(), 0.0);
  const SolveStats s = g.solve(sink, v, tol);
  EXPECT_TRUE(s.converged);
  if (stats != nullptr) *stats = s;
  return v;
}

/// A small sheet problem written down once and then handed both to
/// ResistiveGrid and to the dense oracle.
struct OracleCase {
  GridSheet sheet;
  std::vector<std::tuple<int, int, double>> sinks;  // x, y, amperes

  std::vector<double> sink_vector() const {
    std::vector<double> s(static_cast<std::size_t>(sheet.width) * sheet.height,
                          0.0);
    for (const auto& [x, y, a] : sinks)
      s[static_cast<std::size_t>(y) * sheet.width + x] += a;
    return s;
  }

  /// Nodal voltages by dense Gaussian elimination with partial pivoting on
  /// the full node-by-node system: a Dirichlet row pins its node, every
  /// other row is the node's Kirchhoff current balance.
  std::vector<double> dense_solve() const {
    const int w = sheet.width;
    const int h = sheet.height;
    const int n = w * h;
    auto at = [&](int x, int y) { return y * w + x; };
    std::vector<std::vector<double>> a(n, std::vector<double>(n + 1, 0.0));
    std::vector<char> pinned(n, 0);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        const int i = at(x, y);
        if (sheet.is_dirichlet(x, y)) {
          pinned[i] = 1;
          a[i][i] = 1.0;
          a[i][n] = sheet.edge_v;
        } else {
          a[i][i] += sheet.shunt_g;
          a[i][n] += sheet.shunt_g * sheet.shunt_ref;
        }
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
        if (x + 1 < w) stamp(at(x, y), at(x + 1, y), sheet.gx);
        if (y + 1 < h) stamp(at(x, y), at(x, y + 1), sheet.gy);
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

  /// Current flowing into the free nodes through their shunts at `v`.
  double shunt_inflow(const std::vector<double>& v) const {
    double in = 0.0;
    for (int y = 0; y < sheet.height; ++y)
      for (int x = 0; x < sheet.width; ++x)
        if (!sheet.is_dirichlet(x, y))
          in += sheet.shunt_g * (sheet.shunt_ref - v[y * sheet.width + x]);
    return in;
  }

  double total_sink() const {
    double total = 0.0;
    for (const auto& [x, y, a] : sinks) total += a;
    return total;
  }
};

/// Multigrid must land on the dense solution and balance current:
/// Dirichlet supply plus shunt inflow equals the total sink.
void expect_matches_dense_oracle(const OracleCase& c,
                                 const std::string& label) {
  const std::vector<double> exact = c.dense_solve();
  ResistiveGrid g(c.sheet);
  const std::vector<double> sink = c.sink_vector();
  std::vector<double> v(g.node_count(), 0.0);
  const SolveStats stats = g.solve(sink, v, 1e-12);
  ASSERT_TRUE(stats.converged) << label;
  double max_diff = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i)
    max_diff = std::max(max_diff, std::fabs(v[i] - exact[i]));
  EXPECT_LE(max_diff, 1e-9) << label;
  EXPECT_NEAR(g.total_supply_current(v, sink) + c.shunt_inflow(v),
              c.total_sink(), 1e-9)
      << label;
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
  const std::vector<double> sink = plane_sinks(mg);
  const std::vector<double> v = solve_from_zero(mg, sink, 1e-11);

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
                          std::fabs(v[mg.index(p, q)] - (kV0 - scale * u)));
    }
  EXPECT_LE(max_diff, 1e-9);
  EXPECT_NEAR(mg.total_supply_current(v, sink), kSink * kInterior * kInterior,
              1e-9);
}

TEST(Multigrid, MatchesDenseOracleWithShuntsSinksAndInjection) {
  // Both grounds at once: a powered south edge and a shunt on every node to
  // a non-zero reference, point draws and a current injection, on a
  // non-square grid.
  OracleCase c;
  c.sheet = {.width = 12, .height = 11, .gx = 1.6, .gy = 0.7,
             .powered_edges = {false, false, true, false}, .edge_v = 2.5,
             .shunt_g = 0.3, .shunt_ref = 1.2};
  c.sinks = {{6, 5, 0.5}, {1, 10, 0.2}, {11, 8, -0.1}};
  expect_matches_dense_oracle(c, "12x11 S + shunt");
}

TEST(Multigrid, MatchesDenseOracleOnMixedGrids) {
  // Every kept form: odd and even sizes, each powered-edge set under a
  // spread load with an injection, and the thermal sheet (no powered edge,
  // a shunt to a non-zero reference everywhere) under mixed-sign sinks.
  using Edges = std::array<bool, 4>;  // N, E, S, W
  const std::pair<const char*, Edges> edge_sets[] = {
      {"W", {false, false, false, true}},
      {"S+W", {false, false, true, true}},
      {"W+E", {false, true, false, true}},
      {"N+E+S", {true, true, true, false}},
      {"all four", {true, true, true, true}}};
  for (const auto& [w, h] :
       {std::pair{13, 11}, std::pair{12, 12}, std::pair{9, 12}}) {
    const std::string size = std::to_string(w) + "x" + std::to_string(h);
    for (const auto& [name, edges] : edge_sets) {
      OracleCase c;
      c.sheet = {.width = w, .height = h, .gx = 1.7, .gy = 0.8,
                 .powered_edges = edges, .edge_v = 2.5};
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
          c.sinks.emplace_back(x, y, 0.001 * (1 + (x * y) % 4));
      c.sinks.emplace_back(w / 2, h / 2, -0.02);
      c.sinks.emplace_back(1, h - 2, 0.05);
      expect_matches_dense_oracle(c, size + " " + name);
    }

    OracleCase thermal;
    thermal.sheet = {.width = w, .height = h, .gx = 0.6, .gy = 1.4,
                     .shunt_g = 0.05, .shunt_ref = 25.0};
    thermal.sinks = {{w / 2, h / 2, -3.0}, {1, 1, -1.5}, {w - 1, h - 1, 0.4}};
    expect_matches_dense_oracle(thermal, size + " thermal");
  }
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
    SolveStats stats;
    solve_from_zero(g, plane_sinks(g), 1e-7, &stats);
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
  SolveStats stats;
  solve_from_zero(mg, plane_sinks(mg), 1e-7, &stats);
  ASSERT_TRUE(stats.converged);
  EXPECT_LE(stats.fine_sweep_equivalents, 35.0);
}

TEST(Multigrid, BitIdenticalAcrossThreadCounts) {
  std::vector<double> baseline;
  for (const int threads : {1, 2, 8}) {
    exec::set_shared_threads(threads);
    ResistiveGrid g = make_plane(64);
    const std::vector<double> v = solve_from_zero(g, plane_sinks(g), 1e-7);
    if (baseline.empty()) {
      baseline = v;
    } else {
      EXPECT_EQ(v, baseline) << "threads=" << threads;
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

  // A 37x29 sheet with its West and South edges powered, scattered loads
  // and one injection; solved cold, then warm after the loads change.
  ResistiveGrid plane({.width = 37, .height = 29, .gx = 1.3, .gy = 0.9,
                       .powered_edges = {false, false, true, true},
                       .edge_v = 1.8});
  std::vector<double> plane_sink(plane.node_count(), 0.0);
  for (int y = 0; y < 29; ++y)
    for (int x = 1; x < 37; ++x)
      if ((7 * x + 3 * y) % 5 == 0)
        plane_sink[plane.index(x, y)] = 0.01 + 0.002 * (x % 4);
  plane_sink[plane.index(20, 25)] = -0.05;
  std::vector<double> plane_v(plane.node_count(), 0.0);
  SolveStats ps = plane.solve(plane_sink, plane_v, 1e-9);
  ASSERT_TRUE(ps.converged);
  EXPECT_EQ(solve_crc(plane_v, ps), 0xb9957bd2u) << "37x29 sheet cold";
  for (std::size_t i = 0; i < plane_sink.size(); i += 3) plane_sink[i] *= 1.5;
  ps = plane.solve(plane_sink, plane_v, 1e-9);
  ASSERT_TRUE(ps.converged);
  EXPECT_GT(ps.iterations, 0);
  EXPECT_EQ(solve_crc(plane_v, ps), 0x4c36b03fu) << "37x29 sheet warm";

  // A 2x40 strip fed at its south edge: one axis can never coarsen.
  ResistiveGrid south_strip({.width = 2, .height = 40, .gx = 3.0, .gy = 2.0,
                             .powered_edges = {false, false, true, false},
                             .edge_v = 1.0});
  std::vector<double> strip_sink(south_strip.node_count(), 0.0);
  for (int y = 1; y < 40; ++y)
    for (int x = 0; x < 2; ++x)
      strip_sink[south_strip.index(x, y)] = 0.001 * (y % 3 + 1 + x);
  std::vector<double> strip_v(south_strip.node_count(), 0.0);
  ps = south_strip.solve(strip_sink, strip_v, 1e-10);
  ASSERT_TRUE(ps.converged);
  EXPECT_EQ(solve_crc(strip_v, ps), 0x5ca9e33eu) << "2x40 south strip";

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

/// The sheets the linear-response oracles run on: the paper wafer's 64x64
/// plane fed at all four edges, an odd-sized plane powered at two edges,
/// and the wafer's thermal sheet (a shunt to ambient at every node).
std::vector<std::pair<const char*, GridSheet>> response_sheets() {
  const SystemConfig cfg = SystemConfig::paper_prototype();
  const int k = WaferPdnOptions{}.nodes_per_tile;
  const double dx = cfg.geometry.tile_pitch_x_m() / k;
  const double dy = cfg.geometry.tile_pitch_y_m() / k;
  const double rs = WaferPdn(cfg, {}).loop_sheet_resistance();
  const ThermalOptions th;
  const double kt = th.silicon_conductivity_w_mk * th.wafer_thickness_m;
  return {
      {"paper wafer",
       {.width = cfg.array_width * k, .height = cfg.array_height * k,
        .gx = (1.0 / rs) * (dy / dx), .gy = (1.0 / rs) * (dx / dy),
        .powered_edges = {true, true, true, true},
        .edge_v = cfg.edge_supply_voltage_v}},
      {"37x29 W+S",
       {.width = 37, .height = 29, .gx = 1.3, .gy = 0.9,
        .powered_edges = {false, false, true, true}, .edge_v = 1.8}},
      {"thermal",
       {.width = cfg.array_width * k, .height = cfg.array_height * k,
        .gx = kt * dy / dx, .gy = kt * dx / dy,
        .shunt_g = th.cooling_w_m2k * dx * dy, .shunt_ref = th.ambient_c}},
  };
}

/// Solves from a zero seed at a tolerance that leaves each solution within
/// about 1e-13 of exact, so differences of solutions resolve 1e-12 V.
std::vector<double> solve_cold(ResistiveGrid& g,
                               const std::vector<double>& sink) {
  return solve_from_zero(g, sink, 1e-13);
}

constexpr double kLinearBound = 1e-12;  // volts

TEST(LinearResponse, SuperpositionOfLoads) {
  // The nodal system is linear in its sinks, so the change a load makes
  // to the unloaded solution adds: r(a + b) = r(a) + r(b).
  for (const auto& [name, sheet] : response_sheets()) {
    ResistiveGrid g(sheet);
    const std::size_t n = g.node_count();
    std::vector<double> a(n, 0.0), b(n, 0.0), ab(n), none(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 7 == 0) a[i] = 0.004 * static_cast<double>(1 + i % 5);
      if (i % 11 == 3) b[i] = -0.006;
      if (i % 13 == 0) b[i] = 0.01;
      ab[i] = a[i] + b[i];
    }
    const std::vector<double> v0 = solve_cold(g, none);
    const std::vector<double> va = solve_cold(g, a);
    const std::vector<double> vb = solve_cold(g, b);
    const std::vector<double> vab = solve_cold(g, ab);
    double worst = 0.0;
    double largest = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ra = va[i] - v0[i];
      const double rb = vb[i] - v0[i];
      worst = std::max(worst, std::fabs((vab[i] - v0[i]) - (ra + rb)));
      largest = std::max(largest, std::fabs(ra));
    }
    EXPECT_LE(worst, kLinearBound) << name;
    EXPECT_GT(largest, 1e-3) << name;  // the loads really move the sheet
  }
}

TEST(LinearResponse, ReciprocityOfUnitCurrents) {
  // The conductance matrix is symmetric: a unit current drawn at node i
  // moves node j exactly as much as one drawn at j moves i.
  for (const auto& [name, sheet] : response_sheets()) {
    ResistiveGrid g(sheet);
    const std::size_t n = g.node_count();
    const std::vector<std::size_t> probes = {
        g.index(5, 7), g.index(g.width() / 2, g.height() / 2),
        g.index(g.width() - 4, 3), g.index(2, g.height() - 3)};
    const std::vector<double> v0 = solve_cold(g, std::vector<double>(n, 0.0));
    std::vector<std::vector<double>> response;
    for (const std::size_t i : probes) {
      std::vector<double> unit(n, 0.0);
      unit[i] = 1.0;
      std::vector<double> v = solve_cold(g, unit);
      for (std::size_t k = 0; k < n; ++k) v[k] -= v0[k];
      EXPECT_LT(v[i], -1e-3) << name;  // a drawn current pulls its node down
      response.push_back(std::move(v));
    }
    for (std::size_t a = 0; a < probes.size(); ++a)
      for (std::size_t b = a + 1; b < probes.size(); ++b)
        EXPECT_LE(std::fabs(response[a][probes[b]] - response[b][probes[a]]),
                  kLinearBound)
            << name << " probes " << a << ", " << b;
  }
}

TEST(LinearResponse, NoStateLeaksBetweenSolves) {
  // Solving A, then B, then A again on one grid returns A's bytes both
  // times: nothing the first two solves leave behind reaches the third.
  for (const auto& [name, sheet] : response_sheets()) {
    ResistiveGrid g(sheet);
    const std::size_t n = g.node_count();
    std::vector<double> a(n, 0.0), b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = 0.003 * static_cast<double>(i % 9);
      b[i] = i % 4 == 0 ? -0.02 : 0.001;
    }
    std::vector<double> va(n, 0.0), vb(n, 0.0), va_again(n, 0.0);
    const SolveStats sa = g.solve(a, va, 1e-9);
    const SolveStats sb = g.solve(b, vb, 1e-9);
    const SolveStats sa_again = g.solve(a, va_again, 1e-9);
    ASSERT_TRUE(sa.converged && sb.converged) << name;
    EXPECT_NE(solve_crc(va, sa), solve_crc(vb, sb)) << name;
    EXPECT_EQ(solve_crc(va_again, sa_again), solve_crc(va, sa)) << name;
  }
}

TEST(SolveBatch, MultigridMatchesSequentialSolves) {
  ResistiveGrid grid = make_plane(33);
  constexpr double kTol = 1e-7;
  const std::size_t nodes = grid.node_count();
  constexpr int kRhs = 8;

  std::vector<std::vector<double>> sinks(kRhs);
  for (int m = 0; m < kRhs; ++m) {
    sinks[m] = plane_sinks(grid);
    for (double& s : sinks[m]) s *= 0.5 + 0.25 * m;
    sinks[m][grid.index(4 + 2 * m, 16)] += 0.3;
  }

  std::vector<std::vector<double>> expected(kRhs);
  for (int m = 0; m < kRhs; ++m)
    expected[m] = solve_from_zero(grid, sinks[m], kTol);

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
    sinks[m] = plane_sinks(grid);
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
