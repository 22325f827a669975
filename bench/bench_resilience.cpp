// Runtime-resilience experiments: Monte Carlo degradation campaigns (how
// much usable wafer and pair reachability survive bursts of runtime
// faults), clock re-selection latency after mid-tree tile deaths, and the
// cycle cost of the NoC transaction layer with its timeout/retry machinery
// armed, up to the campaign-32 configuration.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "wsp/clock/forwarding.hpp"
#include "wsp/clock/recovery.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/noc/link_integrity.hpp"
#include "wsp/resilience/campaign.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace {

using namespace wsp;
using namespace wsp::resilience;

/// Collapses a trial report into a comparison fingerprint covering every
/// field that could expose a determinism break (order-dependent counters,
/// trajectories, per-event outcomes).
std::uint64_t fingerprint(const DegradationReport& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(r.initial_usable);
  mix(r.final_usable);
  mix(r.total_cycles);
  mix(r.mesh_dropped);
  mix(r.noc_stats.issued);
  mix(r.noc_stats.completed);
  mix(r.noc_stats.lost);
  mix(r.noc_stats.timeouts);
  mix(r.events.size());
  for (const EventOutcome& e : r.events) {
    mix(e.applied_cycle);
    mix(e.usable_after);
    mix(e.recovery_cycles);
    mix(static_cast<std::uint64_t>(e.recovered));
  }
  for (const TrajectoryPoint& p : r.trajectory) {
    mix(p.cycle);
    mix(p.usable_tiles);
  }
  return h;
}

std::vector<std::uint64_t> fingerprints(
    const std::vector<DegradationReport>& reports) {
  std::vector<std::uint64_t> out;
  out.reserve(reports.size());
  for (const DegradationReport& r : reports) out.push_back(fingerprint(r));
  return out;
}

/// The NoC of a perfbench campaign-32 trial: the 32x32 wafer with link
/// integrity on and the campaign's grid-scaled round-trip timeout,
/// 8 * (32 + 32) * link_latency + 128 = 1,152 cycles.
noc::NocOptions campaign32_noc() {
  noc::NocOptions o;
  o.mesh.integrity.enabled = true;
  o.response_timeout = 1152;
  return o;
}

/// Synthetic uniform traffic at `rate` driving a NocSystem on a square
/// fault-free wafer, one driver step per simulated cycle.
struct NocStepLoop {
  noc::NocSystem noc;
  std::unique_ptr<workloads::TrafficGenerator> gen;
  workloads::TrafficDriver driver;
  NocStepLoop(int width, const noc::NocOptions& o, double rate)
      : noc(FaultMap(TileGrid(width, width)), o),
        gen(workloads::make_synthetic({.injection_rate = rate}, noc.faults(),
                                      Rng(1))),
        driver(noc, *gen) {}
};

/// Concurrent Monte Carlo scaling: the same campaign, trials dispatched
/// over 1/2/8 threads, wall time + the bit-identity check on the reports.
int run_trial_scaling(bool quick) {
  wsp::bench::JsonReporter json("resilience");
  const int repeats = quick ? 2 : 3;
  const int trials = quick ? 4 : 8;

  CampaignOptions o;
  o.config = SystemConfig::reduced(16, 16);
  o.seed = 11;
  o.run_cycles = quick ? 600 : 1200;
  o.fault_horizon = quick ? 400 : 800;
  o.injection_rate = 0.01;
  o.mix.tile_deaths = 4;
  o.mix.link_failures = 2;
  o.mix.ldo_brownouts = 1;
  const DegradationCampaign campaign(o);

  std::printf("== concurrent Monte Carlo campaign scaling (16x16, %d "
              "trials) ==\n",
              trials);
  std::printf("%8s %12s %10s %12s\n", "threads", "wall ms", "speedup",
              "identical");

  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 8};
  std::vector<std::uint64_t> baseline;
  double serial_ms = 0.0;
  int rc = 0;
  for (const int threads : thread_counts) {
    exec::set_shared_threads(threads);
    std::vector<std::uint64_t> prints;
    const double ms = wsp::bench::min_wall_ms(
        [&] { prints = fingerprints(campaign.run_trials(trials)); },
        repeats, 1);
    if (threads == 1) {
      serial_ms = ms;
      baseline = prints;
    }
    const bool identical = prints == baseline;
    if (!identical) rc = 1;
    std::printf("%8d %12.2f %9.2fx %12s\n", threads, ms,
                serial_ms > 0 ? serial_ms / ms : 0.0,
                identical ? "yes" : "NO — DIVERGED");

    wsp::bench::Measurement m;
    m.name = "campaign_run_trials_16x16";
    m.wall_ms = ms;
    m.iterations = trials;
    m.threads = threads;
    m.speedup_vs_serial = serial_ms > 0 ? serial_ms / ms : 0.0;
    json.add(m);
  }
  exec::set_shared_threads(0);

  // Single-trial wall time at the default thread count for cross-PR
  // tracking.
  {
    wsp::bench::Measurement m;
    m.name = "campaign_single_trial_16x16";
    m.threads = exec::shared_threads();
    m.wall_ms = wsp::bench::min_wall_ms(
        [&] { benchmark::DoNotOptimize(campaign.run().final_usable); },
        repeats, 1);
    json.add(m);
  }

  // The NoC transaction layer plus both mesh steps under the campaign-32
  // configuration, per simulated cycle.  The loop keeps stepping across
  // repetitions, so every timed one runs at the traffic's steady state.
  {
    NocStepLoop loop(32, campaign32_noc(), 0.01);
    wsp::bench::Measurement m;
    m.name = "noc_step_campaign32_32x32";
    m.iterations = quick ? 400 : 2000;
    m.threads = 1;
    m.wall_ms = wsp::bench::min_wall_ms(
        [&] {
          for (int c = 0; c < m.iterations; ++c) loop.driver.step();
        },
        repeats, 1);
    json.add(m);
  }

  if (rc != 0)
    std::fprintf(stderr,
                 "FAIL: threaded run_trials diverged from the serial "
                 "baseline\n");
  std::printf("\n");
  json.write();
  return rc;
}

void print_campaign_sweep() {
  std::printf("== Monte Carlo degradation campaigns (16x16 wafer section, "
              "5 trials each) ==\n");
  std::printf("%12s %14s %16s %16s %12s %8s %8s\n", "tile deaths",
              "usable frac", "reachability %", "recovery (cyc)", "lost/issued",
              "SSI", "drained");
  for (const std::size_t deaths : {1u, 3u, 6u, 12u}) {
    CampaignOptions o;
    o.config = SystemConfig::reduced(16, 16);
    o.seed = 1;
    o.run_cycles = 1500;
    o.fault_horizon = 1000;
    o.injection_rate = 0.01;
    o.mix.tile_deaths = deaths;
    o.mix.link_failures = deaths / 2;
    o.mix.ldo_brownouts = 1;
    o.mix.packet_corruptions = 2;
    const CampaignSummary s =
        summarize(DegradationCampaign(o).run_trials(5));
    std::printf("%12zu %14.3f %16.2f %16.1f %12.4f %5d/5 %6d/5\n", deaths,
                s.mean_final_usable_fraction, s.mean_pair_reachability_pct,
                s.mean_recovery_cycles, s.lost_per_issued,
                s.single_system_image_survived, s.fully_drained);
  }
  std::printf("\n");
}

void print_clock_recovery_latency() {
  std::printf("-- clock re-selection after an interior tile death (single "
              "generator) --\n");
  std::printf("%10s %14s %14s %14s\n", "array", "invalidated", "relatched",
              "wave steps");
  for (const int n : {8, 16, 32}) {
    const TileGrid grid(n, n);
    FaultMap fm(grid);
    const std::vector<TileCoord> gens = {{0, 0}};
    const clock::ForwardingPlan plan = clock::simulate_forwarding(fm, gens);
    fm.set_faulty({n / 2, n / 2});
    const clock::ReclockReport r =
        clock::reselect_after_faults(plan, fm, gens);
    std::printf("%7dx%-2d %14zu %14zu %14d\n", n, n, r.invalidated.size(),
                r.relatched.size(), r.relatch_steps);
  }
  std::printf("\n");
}

/// Hop-level CRC/NACK recovery vs the end-to-end timeout path: the same
/// seeded traffic over the same noisy links, with link retransmission on
/// and off.  Hop repair costs ~2 link latencies; the timeout path costs a
/// full response deadline plus a replayed round trip — the mean and tail
/// latencies (and the loss column) make the gap visible at every BER.
void print_ber_sweep() {
  std::printf("== link-integrity BER sweep (12x12, uniform traffic, "
              "hop retransmit vs timeout-only recovery) ==\n");
  std::printf("%10s %6s %12s %10s %10s %8s %10s %10s\n", "BER", "retx",
              "crc_detect", "retrans", "timeouts", "lost", "mean lat",
              "p99 lat");
  for (const double ber : {0.0, 1e-5, 1e-4, 1e-3}) {
    for (const bool retx : {true, false}) {
      const TileGrid grid(12, 12);
      noc::NocOptions opt;
      opt.response_timeout = 400;
      opt.mesh.integrity.enabled = true;
      opt.mesh.integrity.retransmit = retx;
      noc::NocSystem noc(FaultMap(grid), opt);
      noc.set_link_ber(noc::LinkBerMap::uniform(grid, ber));

      const auto gen = workloads::make_synthetic({.injection_rate = 0.02},
                                                 noc.faults(), Rng(7));
      const std::uint64_t p99 =
          workloads::run_workload_traffic(noc, *gen, 3000).report.p99_latency;
      const noc::NocStats st = noc.stats();
      std::printf("%10.0e %6s %12llu %10llu %10llu %8llu %10.1f %10llu\n",
                  ber, retx ? "on" : "off",
                  static_cast<unsigned long long>(st.crc_detected),
                  static_cast<unsigned long long>(st.link_retransmits),
                  static_cast<unsigned long long>(st.timeouts),
                  static_cast<unsigned long long>(st.lost),
                  st.mean_latency(), static_cast<unsigned long long>(p99));
    }
  }
  std::printf("\n");
}

void BM_CampaignRun(benchmark::State& state) {
  CampaignOptions o;
  o.config = SystemConfig::reduced(static_cast<int>(state.range(0)),
                                   static_cast<int>(state.range(0)));
  o.seed = 3;
  o.run_cycles = 800;
  o.fault_horizon = 500;
  o.injection_rate = 0.01;
  const DegradationCampaign campaign(o);
  for (auto _ : state) {
    const DegradationReport r = campaign.run();
    benchmark::DoNotOptimize(r.final_usable);
  }
}
BENCHMARK(BM_CampaignRun)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_ReclockWave(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const TileGrid grid(n, n);
  FaultMap fm(grid);
  const std::vector<TileCoord> gens = {{0, 0}};
  const clock::ForwardingPlan plan = clock::simulate_forwarding(fm, gens);
  fm.set_faulty({n / 2, n / 2});
  for (auto _ : state) {
    const clock::ReclockReport r =
        clock::reselect_after_faults(plan, fm, gens);
    benchmark::DoNotOptimize(r.relatched.size());
  }
}
BENCHMARK(BM_ReclockWave)->Arg(16)->Arg(32);

/// Cycle cost of the NoC on a fault-free 16x16 run with the timeout off
/// (0) and armed (1).  Arming it adds one deadline per transaction: a FIFO
/// push at issue and a pop plus one id lookup when it falls due, with a
/// heap only for retries.  The campaign-32 NoC is timed in the report
/// pass (noc_step_campaign32_32x32), which the --quick run records.
void BM_NocStepTimeoutMachinery(benchmark::State& state) {
  noc::NocOptions opt;
  opt.response_timeout = state.range(0) ? 512 : 0;
  NocStepLoop loop(16, opt, 0.02);
  for (auto _ : state) loop.driver.step();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) ? "timeout armed" : "timeout off");
}
BENCHMARK(BM_NocStepTimeoutMachinery)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  const bool quick = wsp::bench::consume_quick_flag(&argc, argv);
  if (!quick) {
    print_campaign_sweep();
    print_clock_recovery_latency();
    print_ber_sweep();
  }
  const int rc = run_trial_scaling(quick);
  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return rc;
}
