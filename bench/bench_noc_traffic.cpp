// Experiments F7/S6 — Sec. VI: cycle-level NoC behaviour.  Latency vs
// offered load for the dual-network fabric, traffic-pattern comparison,
// the request/response complementary-network protocol, and the cost of
// kernel-level intermediate-tile relaying under faults.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_json.hpp"
#include "wsp/noc/mesh_network.hpp"
#include "wsp/noc/odd_even.hpp"
#include "wsp/noc/traffic.hpp"
#include "wsp/obs/report.hpp"
#include "wsp/obs/trace.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace {

using namespace wsp;
using namespace wsp::noc;

/// `cycles` cycles of the synthetic `cfg` stream seeded `seed`, driven and
/// drained by the workload traffic driver.
TrafficReport run_synthetic(NocSystem& noc, const TrafficConfig& cfg,
                            std::uint64_t cycles, std::uint64_t seed) {
  const auto gen = workloads::make_synthetic(cfg, noc.faults(), Rng(seed));
  return workloads::run_workload_traffic(noc, *gen, cycles).report;
}

/// Drives one raw mesh network (no request/response layer) with random
/// single-packet traffic and returns (delivered, mean latency).
std::pair<std::uint64_t, double> drive_mesh(MeshNetwork& net, double rate,
                                            std::uint64_t cycles,
                                            TrafficPattern pattern,
                                            Rng& rng) {
  const FaultMap empty_faults(net.grid());
  TrafficConfig tc;
  tc.pattern = pattern;
  tc.hotspot = {net.grid().width() / 2, net.grid().height() / 2};
  std::vector<Packet> out;
  std::uint64_t id = 1, latency_sum = 0, delivered = 0;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    net.grid().for_each([&](TileCoord src) {
      if (!rng.bernoulli(rate)) return;
      const TileCoord dst = pick_destination(empty_faults, src, tc, rng);
      if (dst == src) return;
      Packet p;
      p.src = src;
      p.dst = dst;
      p.id = id++;
      p.injected_cycle = net.now();
      net.inject(p);
    });
    out.clear();
    net.step(out);
    for (const Packet& p : out) {
      latency_sum += p.delivered_cycle - p.injected_cycle;
      ++delivered;
    }
  }
  while (net.in_flight() > 0) {
    out.clear();
    net.step(out);
    for (const Packet& p : out) {
      latency_sum += p.delivered_cycle - p.injected_cycle;
      ++delivered;
    }
  }
  return {delivered, delivered ? static_cast<double>(latency_sum) / delivered
                               : 0.0};
}

void print_adaptive_ablation() {
  std::printf("-- ablation: DoR vs minimal-adaptive odd-even (one 16x16 "
              "network, raw packets) --\n");
  std::printf("%-16s %10s %14s %14s %16s\n", "pattern", "rate",
              "DoR latency", "odd-even lat.", "odd-even gain");
  for (const auto pattern :
       {TrafficPattern::UniformRandom, TrafficPattern::Hotspot,
        TrafficPattern::Transpose}) {
    for (const double rate : {0.05, 0.15}) {
      Rng ra(9), rb(9);
      MeshNetwork dor(FaultMap(TileGrid(16, 16)), NetworkKind::XY);
      MeshOptions aopt;
      aopt.adaptive_odd_even = true;
      MeshNetwork oe(FaultMap(TileGrid(16, 16)), NetworkKind::XY, aopt);
      const auto [d1, l1] = drive_mesh(dor, rate, 600, pattern, ra);
      const auto [d2, l2] = drive_mesh(oe, rate, 600, pattern, rb);
      std::printf("%-16s %10.2f %14.1f %14.1f %15.1f%%\n",
                  to_string(pattern), rate, l1, l2,
                  l1 > 0 ? 100.0 * (l1 - l2) / l1 : 0.0);
    }
  }
  std::printf("\n");
}

void print_load_sweep() {
  std::printf("== Sec. VI: NoC latency/throughput (16x16 wafer section) ==\n");
  std::printf("%12s %12s %14s %12s %8s %8s %8s %8s\n", "inj rate", "offered",
              "throughput", "mean lat", "p50", "p95", "p99", "max");
  for (const double rate : {0.005, 0.01, 0.02, 0.04, 0.08, 0.16}) {
    NocSystem noc{FaultMap(TileGrid(16, 16))};
    TrafficConfig cfg;
    cfg.injection_rate = rate;
    const TrafficReport r = run_synthetic(noc, cfg, 800, 5);
    std::printf("%12.3f %12.3f %14.3f %12.1f %8llu %8llu %8llu %8llu\n",
                rate, r.offered_load, r.throughput, r.mean_latency,
                static_cast<unsigned long long>(r.p50_latency),
                static_cast<unsigned long long>(r.p95_latency),
                static_cast<unsigned long long>(r.p99_latency),
                static_cast<unsigned long long>(r.max_latency));
  }
  std::printf("\n");
}

void print_pattern_comparison() {
  std::printf("-- traffic patterns at 2%% injection (16x16) --\n");
  std::printf("%-16s %14s %14s\n", "pattern", "throughput", "mean latency");
  for (const auto pattern :
       {TrafficPattern::UniformRandom, TrafficPattern::Transpose,
        TrafficPattern::BitComplement, TrafficPattern::Hotspot,
        TrafficPattern::NearNeighbor}) {
    NocSystem noc{FaultMap(TileGrid(16, 16))};
    TrafficConfig cfg;
    cfg.pattern = pattern;
    cfg.injection_rate = 0.02;
    cfg.hotspot = {8, 8};
    const TrafficReport r = run_synthetic(noc, cfg, 800, 11);
    std::printf("%-16s %14.3f %14.1f\n", to_string(pattern), r.throughput,
                r.mean_latency);
  }
  std::printf("\n");
}

void print_fault_relaying() {
  std::printf("-- Fig. 7 protocol + relaying cost under faults (32x32) --\n");
  std::printf("%8s %10s %10s %12s %14s %12s\n", "faults", "issued",
              "completed", "relayed", "mean latency", "unreachable");
  Rng seed_rng(77);
  for (const std::size_t n : {0u, 2u, 5u, 10u, 20u}) {
    const FaultMap faults =
        FaultMap::random_with_count(TileGrid(32, 32), n, seed_rng);
    NocSystem noc{faults};
    TrafficConfig cfg;
    cfg.injection_rate = 0.002;
    const TrafficReport r = run_synthetic(noc, cfg, 500, 3);
    std::printf("%8zu %10llu %10llu %12llu %14.1f %12llu\n", n,
                static_cast<unsigned long long>(r.issued),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(noc.stats().relayed),
                r.mean_latency,
                static_cast<unsigned long long>(r.unreachable));
  }
  std::printf("\nprotocol check: every transaction put its request on one "
              "network and its response on the complement (in-order per "
              "pair, deadlock-free by construction)\n\n");
}

/// Cross-PR wall-clock tracking for the cycle-level NoC simulation: one
/// fixed seeded workload per array size, min-of-N.  The stepper is serial,
/// so every row runs on one thread whatever the pool size.
void run_json_measurements(bool quick) {
  wsp::bench::JsonReporter json("noc_traffic");
  const int repeats = quick ? 2 : 5;
  const std::uint64_t cycles = quick ? 200 : 800;
  for (const int n : {8, 16, 32}) {
    wsp::bench::Measurement m;
    m.name = "noc_uniform_traffic_" + std::to_string(n) + "x" +
             std::to_string(n);
    m.iterations = static_cast<int>(cycles);
    m.threads = 1;
    m.wall_ms = wsp::bench::min_wall_ms(
        [&] {
          NocSystem noc{FaultMap(TileGrid(n, n))};
          TrafficConfig cfg;
          cfg.injection_rate = 0.02;
          const TrafficReport r = run_synthetic(noc, cfg, cycles, 5);
          benchmark::DoNotOptimize(r.completed);
        },
        repeats, 1);
    json.add(m);
  }
  json.write();

  // Unified run report: the bench rows above plus one registry-instrumented
  // 16x16 reference run (fixed seed, so every field is deterministic).
  obs::MetricsRegistry registry;
  NocSystem noc{FaultMap(TileGrid(16, 16)), NocOptions{}, &registry};
  TrafficConfig cfg;
  cfg.injection_rate = 0.02;
  const TrafficReport r = run_synthetic(noc, cfg, cycles, 5);

  obs::RunReport report("noc_traffic");
  for (const wsp::bench::Measurement& m : json.results())
    report.add_bench({m.name, m.wall_ms,
                      static_cast<std::uint64_t>(m.iterations), m.threads,
                      m.speedup_vs_serial});
  report.add_scalar("traffic", "offered_load", r.offered_load);
  report.add_scalar("traffic", "throughput", r.throughput);
  report.add_scalar("traffic", "mean_latency", r.mean_latency);
  report.add_scalar("traffic", "p50_latency",
                    static_cast<double>(r.p50_latency));
  report.add_scalar("traffic", "p95_latency",
                    static_cast<double>(r.p95_latency));
  report.add_scalar("traffic", "p99_latency",
                    static_cast<double>(r.p99_latency));
  report.add_metrics("noc", registry);
  report.write_default();
}

void BM_NocCyclesPerSecond(benchmark::State& state) {
  NocSystem noc{FaultMap(TileGrid(static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(0))))};
  TrafficConfig cfg;
  cfg.injection_rate = 0.02;
  const auto gen = workloads::make_synthetic(cfg, noc.faults(), Rng(1));
  workloads::TrafficDriver driver(noc, *gen);
  for (auto _ : state) driver.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocCyclesPerSecond)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  const bool quick = wsp::bench::consume_quick_flag(&argc, argv);
  // WSP_TRACE=1 records every simulator span (noc.step,
  // workloads.traffic.run, exec.chunk, ...) and writes TRACE_noc_traffic.json
  // on exit.
  wsp::obs::ScopedTrace trace("noc_traffic");
  if (!quick) {
    print_load_sweep();
    print_pattern_comparison();
    print_fault_relaying();
    print_adaptive_ablation();
  }
  run_json_measurements(quick);
  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
