// PDN<->NoC co-simulation benches: wall time and run-to-run bit-identity
// of the coupled epoch loop on a 32x32 wafer section, and the price of the
// per-epoch PDN re-solve — warm-started batched multigrid vs cold starts —
// that makes coupling affordable next to a static campaign.
//
// Exit code is non-zero when a repeated coupled run diverges from the
// first, or when the warm-started epoch re-solves cost more than 2x their
// cold-start equivalents (the warm start is the whole point).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "wsp/cosim/cosim.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/pdn/wafer_pdn.hpp"

namespace {

using namespace wsp;

/// The coupled reference configuration: center hotspot, link integrity on,
/// and the amplified voltage->BER mapping the cosim tests and example use
/// so the coupling is visibly exercised (retransmits feed back as
/// activity) rather than idling at the BER floor.
cosim::CosimOptions coupled_options(int n) {
  cosim::CosimOptions o;
  o.config = SystemConfig::reduced(n, n);
  o.seed = 13;
  o.epoch_cycles = 64;
  o.noc.mesh.integrity.enabled = true;
  o.traffic.pattern = noc::TrafficPattern::Hotspot;
  o.traffic.injection_rate = 0.05;
  o.traffic.hotspot = {n / 2, n / 2};
  o.pdn.ldo.line_regulation = 0.1;
  o.ber.floor_ber = 1e-6;
  o.ber.volts_per_decade = 0.003;
  return o;
}

/// Coupled 32x32 loop at 1 thread: wall time plus a repeat gate (every
/// run's state fingerprint and report bytes must match the first).  The
/// loop never touches the exec pool, so no other thread count is timed.
int run_coupled_loop(bool quick, wsp::bench::JsonReporter& json) {
  const int repeats = quick ? 2 : 3;
  const std::uint64_t epochs = quick ? 4 : 8;
  const cosim::CosimOptions o = coupled_options(32);

  exec::set_shared_threads(1);
  std::uint32_t base_fp = 0;
  std::vector<std::uint8_t> base_report;
  bool identical = true;
  const double ms = json.measure(
      "cosim_loop_32x32", 1,
      [&] {
        cosim::CosimLoop loop(o);
        loop.run_epochs(epochs);
        const std::uint32_t fp = loop.state_fingerprint();
        const std::vector<std::uint8_t> report =
            cosim::serialize_report(loop.report());
        if (base_report.empty()) {
          base_fp = fp;
          base_report = report;
        }
        identical &= fp == base_fp && report == base_report;
      },
      repeats, 1, static_cast<int>(epochs));
  exec::set_shared_threads(0);
  std::printf("== coupled PDN<->NoC loop (32x32, hotspot, %llu epochs x "
              "%llu cycles) ==\n%.2f ms | repeats %s\n\n",
              static_cast<unsigned long long>(epochs),
              static_cast<unsigned long long>(o.epoch_cycles), ms,
              identical ? "identical" : "DIVERGED");
  if (!identical)
    std::fprintf(stderr, "FAIL: a repeated coupled run diverged\n");
  return identical ? 0 : 1;
}

/// The per-epoch re-solve price: the same drifting power-map sequence an
/// epoch driver produces, solved warm (seeds persist across epochs, as
/// CosimLoop does) vs cold (fresh multigrid descent every epoch).  A
/// single cold solve — the static campaign's total PDN work — is printed
/// alongside for the coupled-vs-static cost comparison.
int run_warm_vs_cold(bool quick, wsp::bench::JsonReporter& json) {
  const int repeats = quick ? 2 : 3;
  const int epochs = quick ? 4 : 8;
  const cosim::CosimOptions o = coupled_options(32);
  const std::size_t tiles = o.config.grid().tile_count();

  // A drifting load: the hotspot ramps while the background breathes —
  // successive maps are close, which is exactly what warm starts exploit.
  std::vector<std::vector<double>> maps;
  for (int e = 0; e < epochs; ++e) {
    std::vector<double> power(tiles);
    for (std::size_t i = 0; i < tiles; ++i)
      power[i] = o.config.tile_peak_power_w *
                 (0.3 + 0.05 * static_cast<double>(e % 4) +
                  0.02 * static_cast<double>(i % 5));
    maps.push_back(std::move(power));
  }

  pdn::WaferPdn pdn(o.config, o.pdn);
  std::vector<std::vector<double>> seeds(1);
  std::vector<std::vector<double>> batch(1);

  const double warm_ms = wsp::bench::min_wall_ms(
      [&] {
        seeds[0].clear();
        for (int e = 0; e < epochs; ++e) {
          batch[0] = maps[static_cast<std::size_t>(e)];
          benchmark::DoNotOptimize(
              pdn.solve_batch_warm(batch, seeds)[0].min_supply_v);
        }
      },
      repeats, 1);
  const double cold_ms = wsp::bench::min_wall_ms(
      [&] {
        for (int e = 0; e < epochs; ++e) {
          seeds[0].clear();
          batch[0] = maps[static_cast<std::size_t>(e)];
          benchmark::DoNotOptimize(
              pdn.solve_batch_warm(batch, seeds)[0].min_supply_v);
        }
        seeds[0].clear();
      },
      repeats, 1);
  const double single_ms = wsp::bench::min_wall_ms(
      [&] { benchmark::DoNotOptimize(pdn.solve(maps[0]).min_supply_v); },
      repeats, 1);

  std::printf("== per-epoch PDN re-solve cost (32x32, %d epochs) ==\n",
              epochs);
  std::printf("%-28s %12.2f ms\n", "warm-started epoch solves", warm_ms);
  std::printf("%-28s %12.2f ms\n", "cold-start epoch solves", cold_ms);
  std::printf("%-28s %12.2f ms  (static campaign's total PDN work)\n",
              "single cold solve", single_ms);
  std::printf("%-28s %12.2fx\n\n", "warm/cold ratio",
              cold_ms > 0 ? warm_ms / cold_ms : 0.0);

  wsp::bench::Measurement warm;
  warm.name = "cosim_pdn_warm_epochs_32x32";
  warm.wall_ms = warm_ms;
  warm.iterations = epochs;
  json.add(warm);
  wsp::bench::Measurement cold;
  cold.name = "cosim_pdn_cold_epochs_32x32";
  cold.wall_ms = cold_ms;
  cold.iterations = epochs;
  json.add(cold);
  wsp::bench::Measurement single;
  single.name = "cosim_pdn_single_solve_32x32";
  single.wall_ms = single_ms;
  json.add(single);

  if (warm_ms > 2.0 * cold_ms) {
    std::fprintf(stderr,
                 "FAIL: warm-started epoch solves (%.2f ms) cost more than "
                 "2x cold starts (%.2f ms)\n",
                 warm_ms, cold_ms);
    return 1;
  }
  return 0;
}

/// Narrated coupled-vs-static epoch table for the full (non-quick) run.
void print_coupled_trace() {
  const cosim::CosimOptions o = coupled_options(32);
  cosim::CosimLoop loop(o);
  std::printf("== coupled epoch trace (32x32, hotspot at (16,16)) ==\n");
  std::printf("%-6s %-10s %-12s %-14s %-12s %s\n", "epoch", "travs",
              "min_V", "excess_droop", "mean_BER", "warm_iters");
  loop.run_epochs(8);
  for (const cosim::EpochReport& r : loop.epochs())
    std::printf("%-6llu %-10llu %-12.4f %-14.6f %-12.3e %d\n",
                static_cast<unsigned long long>(r.epoch),
                static_cast<unsigned long long>(r.traversals),
                r.min_supply_v, r.max_excess_droop_v, r.mean_ber,
                r.coupled_iterations);
  std::printf("\n");
}

void BM_CosimEpoch(benchmark::State& state) {
  const cosim::CosimOptions o =
      coupled_options(static_cast<int>(state.range(0)));
  cosim::CosimLoop loop(o);
  for (auto _ : state) {
    loop.run_epochs(1);
    benchmark::DoNotOptimize(loop.epochs_completed());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * o.epoch_cycles));
}
BENCHMARK(BM_CosimEpoch)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool quick = wsp::bench::consume_quick_flag(&argc, argv);
  wsp::bench::JsonReporter json("cosim");
  if (!quick) print_coupled_trace();
  int rc = run_coupled_loop(quick, json);
  rc |= run_warm_vs_cold(quick, json);
  json.write();
  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return rc;
}
