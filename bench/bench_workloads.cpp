// Workload benches: the tenant-class traffic generators (collectives,
// layer pipelines, spiking bursts, graph waves) driving the full 32x32
// dual-mesh NoC through the wsp::workloads seam — wall time, per-class
// delivery latency percentiles, and the thread-count bit-identity gate —
// plus the Sec. II graph kernels (BFS, SSSP, PageRank) the paper ran on
// its reduced-size emulated system.
//
// Exit code is non-zero when any generator class's delivery-trace digest
// diverges across thread counts: the injection streams are
// defined to be deterministic, so a divergence is a correctness bug, not
// noise.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/workloads/graph_apps.hpp"
#include "wsp/workloads/pagerank.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace {

using namespace wsp;
using namespace wsp::workloads;

/// The per-class reference specs the 32x32 generator rows run: each class
/// sized so a ~1k-cycle window covers several full phases (ring ops, halo
/// periods, pipeline layers, burst lifetimes, BFS levels).
WorkloadSpec bench_spec(WorkloadClass cls) {
  WorkloadSpec s;
  s.cls = cls;
  s.seed = 2021;
  s.allreduce.chunk_packets = 4;
  s.allreduce.step_cycles = 8;
  s.allreduce.gap_cycles = 16;
  s.halo.halo_period = 8;
  s.pipeline.stages = 4;
  s.pipeline.comm_cycles = 8;
  s.pipeline.stage_flops = 2.0e5;
  s.spiking.background_rate = 0.002;
  s.spiking.burst_interval = 256;
  s.spiking.hotspot = {16, 16};
  s.spiking.burst_radius = 3;
  s.spiking.burst_cycles = 48;
  s.spiking.burst_intensity = 0.6;
  s.graph.scale = 9;
  s.graph.edges = 4096;
  s.graph.graph_seed = 7;
  s.graph.compute_gap_cycles = 4;
  return s;
}

/// One generator class through the seam on a fault-free 32x32 wafer:
/// wall time per thread count plus the digest bit-identity gate across
/// thread counts.
int run_generator_classes(bool quick, wsp::bench::JsonReporter& json) {
  const int repeats = quick ? 2 : 3;
  const std::uint64_t cycles = quick ? 256 : 1024;
  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 8};
  const SystemConfig config = SystemConfig::reduced(32, 32);
  const FaultMap faults(config.grid());

  std::printf("== tenant-class traffic generators (32x32, %llu cycles) ==\n",
              static_cast<unsigned long long>(cycles));
  std::printf("%-15s %8s %12s %10s %8s %8s %8s %10s\n", "class", "threads",
              "wall ms", "injected", "p50", "p95", "p99", "identical");

  int rc = 0;
  for (const WorkloadClass cls :
       {WorkloadClass::AllReduceRing, WorkloadClass::HaloExchange,
        WorkloadClass::LayerPipeline, WorkloadClass::SpikingBurst,
        WorkloadClass::GraphWave}) {
    const WorkloadSpec spec = bench_spec(cls);
    std::uint32_t base_digest = 0;
    double serial_ms = 0.0;
    for (const int threads : thread_counts) {
      exec::set_shared_threads(threads);
      WorkloadRunResult result;
      const double ms = wsp::bench::min_wall_ms(
          [&] {
            noc::NocSystem noc(faults);
            auto gen = make_generator(spec, config, faults);
            result = run_workload_traffic(noc, *gen, cycles);
          },
          repeats, 1);
      if (threads == 1) {
        serial_ms = ms;
        base_digest = result.delivery_digest;
      }
      const bool identical = result.delivery_digest == base_digest;
      if (!identical) rc = 1;
      std::printf("%-15s %8d %12.2f %10llu %8llu %8llu %8llu %10s\n",
                  to_string(cls), threads, ms,
                  static_cast<unsigned long long>(result.injections),
                  static_cast<unsigned long long>(result.report.p50_latency),
                  static_cast<unsigned long long>(result.report.p95_latency),
                  static_cast<unsigned long long>(result.report.p99_latency),
                  identical ? "yes" : "NO — DIVERGED");

      wsp::bench::Measurement m;
      m.name = std::string("workload_") + to_string(cls) + "_32x32";
      m.wall_ms = ms;
      m.iterations = static_cast<int>(cycles);
      m.threads = threads;
      m.speedup_vs_serial = serial_ms > 0 ? serial_ms / ms : 0.0;
      json.add(m);
    }
  }
  exec::set_shared_threads(0);
  if (rc != 0)
    std::fprintf(stderr,
                 "FAIL: a generator class's delivery trace diverged across "
                 "thread counts\n");
  std::printf("\n");
  return rc;
}

/// The Sec. II closed-loop kernels, kept as perf rows: BFS through the
/// cycle-level core + NoC model.
void run_graph_kernels(bool quick, wsp::bench::JsonReporter& json) {
  Rng rng(3);
  const Graph g = make_rmat_graph(10, 6000, 1, rng);
  const SystemConfig cfg = SystemConfig::reduced(8, 8);
  const FaultMap faults(cfg.grid());
  const int repeats = quick ? 2 : 5;
  const double bfs_ms = wsp::bench::min_wall_ms(
      [&] {
        benchmark::DoNotOptimize(run_bfs(cfg, faults, g, 0).stats.makespan);
      },
      repeats, 1);
  std::printf("== Sec. II graph kernels (8x8, R-MAT scale-10) ==\n");
  std::printf("%-24s %12.2f ms\n\n", "BFS makespan sim", bfs_ms);
  wsp::bench::Measurement m;
  m.name = "workloads_bfs_8x8";
  m.wall_ms = bfs_ms;
  json.add(m);
}

void print_scaling() {
  std::printf("== Sec. II validation: BFS / SSSP on the multi-tile system ==\n");
  std::printf("paper: \"successfully able to run various workloads including "
              "BFS, SSSP\" on a reduced-size emulated system\n\n");

  Rng rng(2021);
  const Graph g = make_rmat_graph(10, 6000, 4, rng);  // 1024 vertices
  std::printf("workload: R-MAT scale-11, %llu directed edges\n\n",
              static_cast<unsigned long long>(g.edge_count()));

  std::printf("-- strong scaling (healthy wafer sections) --\n");
  std::printf("%10s %8s %14s %14s %14s %10s\n", "tiles", "kernel", "makespan",
              "messages", "core util", "verified");
  for (const int dim : {2, 4, 8}) {
    const SystemConfig cfg = SystemConfig::reduced(dim, dim);
    const FaultMap faults(cfg.grid());
    for (const bool weighted : {false, true}) {
      const GraphAppResult r = run_graph_app(cfg, faults, g, 0, weighted);
      const bool ok =
          r.distance ==
          (weighted ? reference_sssp(g, 0) : reference_bfs(g, 0));
      std::printf("%7dx%-2d %8s %14llu %14llu %13.1f%% %10s\n", dim, dim,
                  weighted ? "SSSP" : "BFS",
                  static_cast<unsigned long long>(r.stats.makespan),
                  static_cast<unsigned long long>(r.stats.messages_sent),
                  100.0 * r.stats.mean_core_utilization,
                  ok ? "yes" : "NO");
    }
  }

  std::printf("\n-- PageRank (10 iterations, bulk-synchronous) --\n");
  std::printf("%10s %14s %14s %10s\n", "tiles", "makespan", "messages",
              "verified");
  for (const int dim : {2, 4, 8}) {
    const SystemConfig cfg = SystemConfig::reduced(dim, dim);
    const FaultMap faults(cfg.grid());
    const PageRankResult pr = run_pagerank(cfg, faults, g, {});
    const bool ok = pr.rank == reference_pagerank(g, {});
    std::printf("%7dx%-2d %14llu %14llu %10s\n", dim, dim,
                static_cast<unsigned long long>(pr.stats.makespan),
                static_cast<unsigned long long>(pr.stats.messages_sent),
                ok ? "yes" : "NO");
  }

  std::printf("\n-- BFS under injected tile faults (8x8 section) --\n");
  std::printf("%8s %14s %14s %12s %10s\n", "faults", "makespan", "messages",
              "relayed", "verified");
  Rng frng(5);
  for (const std::size_t n : {0u, 1u, 3u}) {
    // Faults placed away from partition-threatening corners.
    const SystemConfig cfg = SystemConfig::reduced(8, 8);
    FaultMap faults(cfg.grid());
    std::size_t placed = 0;
    while (placed < n) {
      const TileCoord c{1 + static_cast<int>(frng.below(6)),
                        1 + static_cast<int>(frng.below(6))};
      if (faults.is_healthy(c)) {
        faults.set_faulty(c);
        ++placed;
      }
    }
    noc::NocOptions nopt;
    const GraphAppResult r = run_graph_app(cfg, faults, g, 0, false, {}, nopt);
    const bool ok = r.distance == reference_bfs(g, 0);
    std::printf("%8zu %14llu %14llu %12s %10s\n", n,
                static_cast<unsigned long long>(r.stats.makespan),
                static_cast<unsigned long long>(r.stats.messages_sent),
                "(kernel)", ok ? "yes" : "NO");
  }
  std::printf("\n");
}

void BM_Bfs8x8(benchmark::State& state) {
  Rng rng(3);
  const Graph g = make_rmat_graph(10, 6000, 1, rng);
  const SystemConfig cfg = SystemConfig::reduced(8, 8);
  const FaultMap faults(cfg.grid());
  for (auto _ : state)
    benchmark::DoNotOptimize(run_bfs(cfg, faults, g, 0).stats.makespan);
}
BENCHMARK(BM_Bfs8x8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool quick = wsp::bench::consume_quick_flag(&argc, argv);
  wsp::bench::JsonReporter json("workloads");
  if (!quick) print_scaling();
  const int rc = run_generator_classes(quick, json);
  run_graph_kernels(quick, json);
  json.write();
  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return rc;
}
