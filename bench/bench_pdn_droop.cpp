// Experiment F2 — Figure 2: edge power delivery and the voltage droop
// profile from 2.5 V at the wafer edge to ~1.4 V at the center at peak
// draw, plus an activity sweep, solver micro-benchmarks, the wafer-solve
// thread scaling study, the multigrid solver suite, and the batched
// multi-RHS suite (all recorded in BENCH_pdn_droop.json).
//
// Exit status is non-zero on any divergence: a wafer solve that differs
// from the 1-thread baseline by even one bit, a multigrid solve that
// differs across thread counts or misses the closed-form strip solution,
// or a solve_batch result that differs from solving the same right-hand
// sides sequentially.  CI runs this with --quick and fails the build on any of
// those.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/pdn/resistive_grid.hpp"
#include "wsp/pdn/wafer_pdn.hpp"

namespace {

using namespace wsp;
using namespace wsp::pdn;

void print_fig2() {
  const SystemConfig cfg = SystemConfig::paper_prototype();
  WaferPdn pdn(cfg, {});
  const PdnReport r = pdn.solve_uniform(1.0);

  std::printf("== Figure 2: edge power delivery, voltage droop at peak draw ==\n");
  std::printf("paper: edge tiles receive 2.5 V; center tiles ~1.4 V; ~290 A\n\n");
  std::printf("model: edge %.3f V | center %.3f V | supply current %.1f A | "
              "input power %.0f W\n",
              r.max_supply_v, r.min_supply_v, r.total_supply_current_a,
              r.total_input_power_w);
  std::printf("plane IR loss %.1f W | LDO loss %.1f W | delivered %.1f W | "
              "end-to-end efficiency %.1f%%\n",
              r.plane_loss_w, r.ldo_loss_w, r.delivered_power_w,
              100.0 * r.efficiency);
  std::printf("tiles out of regulation: %d of %d\n\n",
              r.tiles_out_of_regulation, cfg.total_tiles());

  std::printf("-- supply voltage along the horizontal mid-line (V) --\n");
  const auto line = WaferPdn::midline_profile(r, cfg.grid());
  for (std::size_t x = 0; x < line.size(); ++x) {
    std::printf("%5.3f%s", line[x], (x + 1) % 8 == 0 ? "\n" : " ");
  }
  std::printf("\n-- mean supply voltage by distance-to-edge ring (V) --\n");
  const auto rings = WaferPdn::ring_profile(r, cfg.grid());
  for (std::size_t d = 0; d < rings.size(); ++d)
    std::printf("ring %2zu: %5.3f\n", d, rings[d]);

  std::printf("\n-- droop vs. activity factor --\n");
  std::printf("%8s %10s %10s %12s\n", "activity", "center V", "current A",
              "efficiency");
  for (const double a : {0.25, 0.5, 0.75, 1.0}) {
    WaferPdn sweep(cfg, {});
    const PdnReport s = sweep.solve_uniform(a);
    std::printf("%8.2f %10.3f %10.1f %11.1f%%\n", a, s.min_supply_v,
                s.total_supply_current_a, 100.0 * s.efficiency);
  }
  std::printf("\n");
}

/// Flattens the per-tile voltages of a PDN report for bitwise comparison.
std::vector<double> voltage_vector(const PdnReport& r) {
  std::vector<double> v;
  v.reserve(r.tiles.size() * 2);
  for (const TilePower& t : r.tiles) {
    v.push_back(t.supply_v);
    v.push_back(t.regulated_v);
  }
  return v;
}

/// Thread sweep of the 64x64 wafer PDN solve: wall time and speedup per
/// thread count, plus the determinism check — the voltage vector must be
/// bit-identical at every thread count.  The solve never touches the exec
/// pool, so the sweep times one pool-free path and guards that it stays
/// that way (a speedup far from 1.0 would mean the pool crept back in).
int run_parallel_scaling(bool quick, wsp::bench::JsonReporter& json) {
  const int repeats = quick ? 2 : 5;

  SystemConfig cfg = SystemConfig::reduced(64, 64);
  WaferPdnOptions opt;
  opt.nodes_per_tile = 1;  // 64x64 solver nodes

  std::printf("== thread scaling (64x64 wafer PDN solve) ==\n");
  std::printf("%8s %12s %10s %12s\n", "threads", "wall ms", "speedup",
              "identical");

  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  std::vector<double> baseline_v;
  double serial_ms = 0.0;
  int rc = 0;
  for (const int threads : thread_counts) {
    exec::set_shared_threads(threads);
    std::vector<double> volts;
    const double ms = wsp::bench::min_wall_ms(
        [&] {
          WaferPdn pdn(cfg, opt);
          volts = voltage_vector(pdn.solve_uniform(1.0));
        },
        repeats, 1);
    if (threads == 1) {
      serial_ms = ms;
      baseline_v = volts;
    }
    const bool identical = volts == baseline_v;  // exact, bit-for-bit
    if (!identical) rc = 1;
    std::printf("%8d %12.2f %9.2fx %12s\n", threads, ms,
                serial_ms > 0 ? serial_ms / ms : 0.0,
                identical ? "yes" : "NO — DIVERGED");

    wsp::bench::Measurement m;
    m.name = "wafer_pdn_solve_64x64";
    m.wall_ms = ms;
    m.threads = threads;
    m.speedup_vs_serial = serial_ms > 0 ? serial_ms / ms : 0.0;
    json.add(m);
  }
  exec::set_shared_threads(0);  // back to the environment default

  // Full-prototype solve at the default thread count, for cross-PR
  // tracking of the headline Fig. 2 experiment.
  {
    const SystemConfig proto = SystemConfig::paper_prototype();
    wsp::bench::Measurement m;
    m.name = "wafer_pdn_solve_paper_prototype";
    m.threads = exec::shared_threads();
    m.wall_ms = wsp::bench::min_wall_ms(
        [&] {
          WaferPdn pdn(proto, {});
          benchmark::DoNotOptimize(pdn.solve_uniform(1.0).min_supply_v);
        },
        repeats, 1);
    json.add(m);
  }

  if (rc != 0)
    std::fprintf(stderr,
                 "FAIL: parallel PDN solve diverged from the serial "
                 "baseline\n");
  std::printf("\n");
  return rc;
}

/// Synthetic 64x64 power plane mirroring the wafer solve's structure: all
/// four edges powered at the 2.5 V edge supply.  Solver-level (no WaferPdn
/// wrapper) so the rows isolate the algorithms from report extraction.
ResistiveGrid make_plane(int n) {
  return ResistiveGrid({.width = n, .height = n, .gx = 5.0, .gy = 5.0,
                        .powered_edges = {true, true, true, true},
                        .edge_v = 2.5});
}

/// make_plane's load: a uniform draw on every node off the edges.
std::vector<double> plane_sinks(const ResistiveGrid& g) {
  std::vector<double> sink(g.node_count(), 0.0);
  for (int y = 1; y < g.height() - 1; ++y)
    for (int x = 1; x < g.width() - 1; ++x) sink[g.index(x, y)] = 0.02;
  return sink;
}

/// Solves `sink` from a zero seed into `v`.
SolveStats solve_cold(ResistiveGrid& g, const std::vector<double>& sink,
                      std::vector<double>& v, double tol) {
  v.assign(g.node_count(), 0.0);
  return g.solve(sink, v, tol);
}

/// Closed-form strip check: with only the x=0 and x=n-1 columns held at V0
/// and a uniform sink s per node, every row of an n x n plane is the
/// discrete parabola V_k = V0 - (s/2g) k (n-1-k).  Returns the max
/// |solved - exact| over all nodes.
double strip_closed_form_error(int n, double tol) {
  constexpr double kV0 = 2.5;
  constexpr double kSink = 0.02;
  constexpr double kG = 5.0;
  ResistiveGrid g({.width = n, .height = n, .gx = kG, .gy = kG,
                   .powered_edges = {false, true, false, true},
                   .edge_v = kV0});
  std::vector<double> sink(g.node_count(), 0.0);
  for (int y = 0; y < n; ++y)
    for (int x = 1; x < n - 1; ++x) sink[g.index(x, y)] = kSink;
  std::vector<double> v;
  if (!solve_cold(g, sink, v, tol).converged) return INFINITY;
  double max_err = 0.0;
  for (int y = 0; y < n; ++y)
    for (int k = 0; k < n; ++k)
      max_err = std::max(
          max_err, std::fabs(v[g.index(k, y)] -
                             (kV0 - kSink / (2.0 * kG) * k * (n - 1 - k))));
  return max_err;
}

/// Multigrid solver suite on the synthetic 64x64 plane: warm and cold wall
/// time, V-cycle count and sweep-equivalent cost at one thread, plus the
/// correctness gates — a tight solve of the 64x64 strip must match its
/// closed form, and the plane solve must be bit-identical at every thread
/// count.
int run_multigrid_suite(bool quick, wsp::bench::JsonReporter& json) {
  const int repeats = quick ? 3 : 7;
  int rc = 0;

  exec::set_shared_threads(1);
  ResistiveGrid mg_grid = make_plane(64);
  const std::vector<double> mg_sink = plane_sinks(mg_grid);
  std::vector<double> mg_v;
  const double mg_tol = 1e-7;

  std::printf("== multigrid solver (64x64 plane, 1 thread, tol %.0e) ==\n",
              mg_tol);

  SolveStats mg_stats;
  const double mg_ms = json.measure(
      "pdn_solver_multigrid_64x64", 1,
      [&] { mg_stats = solve_cold(mg_grid, mg_sink, mg_v, mg_tol); },
      repeats, 1);
  // Cold start: grid construction plus hierarchy build plus the solve —
  // what a one-shot caller pays.
  const double cold_ms = json.measure(
      "pdn_solver_multigrid_cold_64x64", 1,
      [&] {
        ResistiveGrid g = make_plane(64);
        std::vector<double> v;
        benchmark::DoNotOptimize(solve_cold(g, mg_sink, v, mg_tol).converged);
      },
      repeats, 1);

  std::printf("%12s %10s %12s %12s\n", "solve", "wall ms", "V-cycles",
              "sweep-equiv");
  std::printf("%12s %10.3f %12d %12.1f\n", "warm", mg_ms,
              mg_stats.iterations, mg_stats.fine_sweep_equivalents);
  std::printf("%12s %10.3f %12s %12s\n", "cold", cold_ms, "-", "-");

  if (!mg_stats.converged) {
    std::fprintf(stderr, "FAIL: multigrid solve did not converge\n");
    rc = 1;
  }
  if (mg_stats.iterations > 12) {
    std::fprintf(stderr,
                 "FAIL: multigrid took %d cycles — convergence should be "
                 "grid-size-independent (~6-8 cycles)\n",
                 mg_stats.iterations);
    rc = 1;
  }

  // Correctness against the closed form, solved tight.
  const double strip_err = strip_closed_form_error(64, 1e-11);
  std::printf("64x64 strip vs closed-form parabola, max error at tol 1e-11: "
              "%.2e V\n",
              strip_err);
  if (!(strip_err <= 1e-8)) {
    std::fprintf(stderr,
                 "FAIL: multigrid strip solve misses the closed form by "
                 "%.3e V (> 1e-8)\n",
                 strip_err);
    rc = 1;
  }

  // Thread determinism: the multigrid voltage vector must be bit-identical
  // at every thread count.
  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 8};
  std::vector<double> mg_baseline;
  for (const int threads : thread_counts) {
    exec::set_shared_threads(threads);
    solve_cold(mg_grid, mg_sink, mg_v, mg_tol);
    if (threads == thread_counts.front()) {
      mg_baseline = mg_v;
    } else if (mg_v != mg_baseline) {
      std::fprintf(stderr,
                   "FAIL: multigrid solve at %d threads diverged from the "
                   "1-thread result\n",
                   threads);
      rc = 1;
    }
  }
  exec::set_shared_threads(0);
  std::printf("multigrid thread determinism: %s\n\n",
              rc == 0 ? "bit-identical" : "DIVERGED");
  return rc;
}

/// solve_batch suite: 32 distinct power maps against one 64x64 topology,
/// timed through solve_batch.  The batch result must be bit-identical to
/// one-at-a-time cold solves, run once untimed as the reference (a solve
/// is a one-RHS solve_batch, so timing them too would time the same path).
int run_batch_suite(bool quick, wsp::bench::JsonReporter& json) {
  const int repeats = quick ? 2 : 5;
  const int kRhs = 32;
  int rc = 0;

  exec::set_shared_threads(1);
  ResistiveGrid grid = make_plane(64);
  const std::size_t nodes = grid.node_count();

  // Distinct right-hand sides: the base draw scaled per map, plus a moving
  // hotspot so no two maps share a solution.
  std::vector<std::vector<double>> sinks(kRhs);
  for (int m = 0; m < kRhs; ++m) {
    sinks[m] = plane_sinks(grid);
    const double scale = 0.5 + static_cast<double>(m) / kRhs;
    for (double& s : sinks[m]) s *= scale;
    const int hx = 8 + (m * 3) % 48;
    const int hy = 8 + (m * 5) % 48;
    sinks[m][grid.index(hx, hy)] += 0.15;
  }

  std::printf("== solve_batch (%d RHS, 64x64 plane, multigrid) ==\n", kRhs);

  std::vector<std::vector<double>> seq_v(kRhs);
  for (int m = 0; m < kRhs; ++m) solve_cold(grid, sinks[m], seq_v[m], 1e-7);

  std::vector<std::vector<double>> batch_v(kRhs, std::vector<double>(nodes));
  std::vector<SolveStats> stats(kRhs);
  std::vector<RhsView> views(kRhs);
  const double batch_ms = json.measure(
      "pdn_solve_batch_32rhs_64x64", exec::shared_threads(),
      [&] {
        for (int m = 0; m < kRhs; ++m) {
          std::fill(batch_v[m].begin(), batch_v[m].end(), 0.0);
          views[m] = RhsView{sinks[m], batch_v[m]};
        }
        grid.solve_batch(views, stats);
      },
      repeats, 1, kRhs);

  bool identical = true;
  bool converged = true;
  for (int m = 0; m < kRhs; ++m) {
    if (batch_v[m] != seq_v[m]) identical = false;
    if (!stats[m].converged) converged = false;
  }
  std::printf("batch %8.2f ms | %s\n\n", batch_ms,
              identical ? "bit-identical" : "DIVERGED");
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: solve_batch diverged from sequential solves\n");
    rc = 1;
  }
  if (!converged) {
    std::fprintf(stderr, "FAIL: solve_batch RHS did not converge\n");
    rc = 1;
  }
  exec::set_shared_threads(0);
  return rc;
}

void BM_SolveFullWafer(benchmark::State& state) {
  const SystemConfig cfg = SystemConfig::paper_prototype();
  WaferPdnOptions opt;
  opt.nodes_per_tile = static_cast<int>(state.range(0));
  for (auto _ : state) {
    WaferPdn pdn(cfg, opt);
    benchmark::DoNotOptimize(pdn.solve_uniform(1.0).min_supply_v);
  }
}
BENCHMARK(BM_SolveFullWafer)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool quick = wsp::bench::consume_quick_flag(&argc, argv);
  if (!quick) print_fig2();
  wsp::bench::JsonReporter json("pdn_droop");
  int rc = run_parallel_scaling(quick, json);
  rc |= run_multigrid_suite(quick, json);
  rc |= run_batch_suite(quick, json);
  json.write();
  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return rc;
}
