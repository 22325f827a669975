// cosim-spiking: cosim::CosimLoop at 1 thread on the 32x32 wafer under a
// spiking-burst workload, with a COSM snapshot every 32 epochs and the
// last one reloaded into a fresh loop at the end.  NoC traffic is sparse,
// so the per-epoch warm PDN re-solve, BER derivation, activity harvest and
// gauge publishing dominate; checkpoint I/O runs and the exec pool does not.
//
// The traced run times every step_cycle() of a real loop (the epoch
// boundary calls carry the coupling step) and its checkpoint calls, then
// recomposes the loop from the public layer calls in the loop's own order
// and checks that the recomposition reproduces its EpochReports exactly.
#include <algorithm>
#include <filesystem>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

#include "ledger.hpp"
#include "wsp/cosim/cosim.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/noc/link_integrity.hpp"
#include "wsp/pdn/wafer_pdn.hpp"

namespace perfbench {
namespace {

using namespace wsp;

constexpr std::uint64_t kEpochCycles = 16;
constexpr std::uint64_t kEpochs = 128;
constexpr std::uint64_t kSnapshotEvery = 32;  ///< epochs between snapshots

cosim::CosimOptions spiking_options(std::uint64_t seed) {
  cosim::CosimOptions o;
  o.config = SystemConfig::reduced(32, 32);
  o.seed = 13;
  o.epoch_cycles = kEpochCycles;
  o.noc.mesh.integrity.enabled = true;
  // bench_cosim's amplified voltage->BER mapping, so the coupling is
  // exercised rather than idling at the BER floor.
  o.pdn.ldo.line_regulation = 0.1;
  o.ber.floor_ber = 1e-6;
  o.ber.volts_per_decade = 0.003;
  workloads::WorkloadSpec& w = o.workload;
  w.cls = workloads::WorkloadClass::SpikingBurst;
  w.seed = seed;
  w.spiking.background_rate = 0.002;
  w.spiking.burst_interval = 256;
  w.spiking.hotspot = {16, 16};
  w.spiking.burst_radius = 3;
  w.spiking.burst_cycles = 48;
  w.spiking.burst_intensity = 0.6;
  return o;
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

/// Host time of each layer in one recomposed run, and its whole wall time
/// (construction excluded, as in the untraced loop time it is compared to).
struct LayerTimes {
  double emit = 0.0, issue = 0.0, step = 0.0, harvest = 0.0, power_map = 0.0,
         solve = 0.0, ber = 0.0, wall = 0.0;
  double covered() const {
    return emit + issue + step + harvest + power_map + solve + ber;
  }
};

/// CosimLoop rebuilt from the public layer calls in the loop's order
/// (CosimLoop::step_cycle and couple): emit, issue and step every cycle;
/// at each epoch boundary harvest, activity_power_map, solve_batch_warm
/// (and reading its per-tile result), then from_tile_voltages and
/// set_link_ber.  Gauge publishing is left out: cosim.publish_ms is the
/// real loop's coupling time minus these calls.  Returns the epoch reports.
std::vector<cosim::EpochReport> recompose(const cosim::CosimOptions& o,
                                          LayerTimes& t, Ledger& out) {
  const TileGrid grid = o.config.grid();
  const FaultMap faults(grid);
  obs::MetricsRegistry metrics;
  noc::NocSystem noc(faults, o.noc, &metrics);
  pdn::WaferPdn pdn(o.config, o.pdn);
  pdn.bind_metrics(&metrics);
  const auto gen = workloads::make_generator(o.workload, o.config, faults);
  cosim::ActivityTracker tracker;
  std::vector<std::vector<double>> seeds(2);
  std::vector<std::vector<double>> maps(2);
  maps[1] = cosim::activity_power_map(
      std::vector<noc::TileActivity>(grid.tile_count()), faults,
      o.config.tile_peak_power_w, o.epoch_cycles, o.scale);

  std::vector<cosim::EpochReport> epochs;
  std::vector<workloads::Injection> inject;
  std::vector<noc::CompletedTransaction> done;
  std::vector<pdn::SolveStats> stats;
  std::vector<double>& step_us = out.series("calls:noc.step_us");
  std::vector<double>& solve_ms = out.series("calls:pdn.solve_ms");
  std::uint64_t injections = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t c = 1; c <= kEpochs * kEpochCycles; ++c) {
    inject.clear();
    {
      const Span s(t.emit);
      gen->emit(inject);
    }
    injections += inject.size();
    {
      const Span s(t.issue);
      for (const workloads::Injection& inj : inject)
        if (inj.dst != inj.src)
          (void)noc.issue(inj.src, inj.dst, inj.type, inj.payload);
    }
    done.clear();
    const Clock::time_point a = Clock::now();
    noc.step(done);
    const double cycle_ms = ms_since(a);
    t.step += cycle_ms;
    step_us.push_back(cycle_ms * 1e3);
    if (c % kEpochCycles != 0) continue;

    cosim::EpochReport e;
    e.epoch = epochs.size();
    e.end_cycle = noc.now();
    const std::vector<noc::TileActivity>* delta = nullptr;
    {
      const Span s(t.harvest);
      delta = &tracker.harvest(noc);
      for (const noc::TileActivity& act : *delta) {
        e.injections += act.injections;
        e.traversals += act.traversals;
        e.retransmits += act.retransmits;
      }
    }
    {
      const Span s(t.power_map);
      maps[0] = cosim::activity_power_map(*delta, faults,
                                          o.config.tile_peak_power_w,
                                          o.epoch_cycles, o.scale);
      for (const double p : maps[0]) e.total_power_w += p;
    }
    std::vector<double> regulated(grid.tile_count(), 0.0);
    {
      const Clock::time_point b = Clock::now();
      const std::vector<pdn::PdnReport> reports =
          pdn.solve_batch_warm(maps, seeds, &stats);
      const pdn::PdnReport& coupled = reports[0];
      const pdn::PdnReport& baseline = reports[1];
      e.min_supply_v = coupled.min_supply_v;
      e.coupled_iterations = stats[0].iterations;
      double min_reg = std::numeric_limits<double>::infinity();
      double excess = 0.0;
      for (std::size_t i = 0; i < regulated.size(); ++i) {
        regulated[i] = coupled.tiles[i].regulated_v;
        min_reg = std::min(min_reg, regulated[i]);
        excess = std::max(
            excess, baseline.tiles[i].supply_v - coupled.tiles[i].supply_v);
      }
      e.min_regulated_v = regulated.empty() ? 0.0 : min_reg;
      e.max_excess_droop_v = excess;
      const double ms = ms_since(b);
      t.solve += ms;
      solve_ms.push_back(ms);
    }
    if (o.noc.mesh.integrity.enabled) {
      const Span s(t.ber);
      const noc::LinkBerMap ber =
          noc::LinkBerMap::from_tile_voltages(grid, regulated, o.ber);
      double sum = 0.0;
      std::size_t links = 0;
      grid.for_each([&](TileCoord tile) {
        for (const Direction d : kAllDirections) {
          if (!grid.contains(step(tile, d))) continue;
          const double b = ber.ber(tile, d);
          sum += b;
          e.max_ber = std::max(e.max_ber, b);
          ++links;
        }
      });
      e.mean_ber = links ? sum / static_cast<double>(links) : 0.0;
      noc.set_link_ber(ber);
    }
    epochs.push_back(e);
  }
  t.wall = ms_since(start);

  const noc::NocStats s = noc.stats();
  double iterations = 0.0;
  for (const cosim::EpochReport& e : epochs) iterations += e.coupled_iterations;
  out.set("value:workloads.injections", static_cast<double>(injections));
  out.set("value:noc.completed_frac",
          s.issued ? static_cast<double>(s.completed) /
                         static_cast<double>(s.issued)
                   : 0.0);
  out.set("value:pdn.iters_mean",
          iterations / static_cast<double>(std::max<std::size_t>(
                           1, epochs.size())));
  return epochs;
}

}  // namespace

void run_cosim(const RunArgs& args, Ledger& out) {
  const cosim::CosimOptions o = spiking_options(args.seed);
  const std::string snapshot = args.scratch_dir + "/cosim.cosm";
  const double tiles = static_cast<double>(o.config.grid().tile_count());
  exec::set_shared_threads(1);
  out.set("threads", 1);

  std::vector<std::uint8_t> first_report;
  const auto untraced = [&](int) {
    const Clock::time_point t0 = Clock::now();
    cosim::CosimLoop loop(o);
    const Clock::time_point t1 = Clock::now();
    cosim::CosimLoop reloaded(o);  // snapshot target, built untimed
    std::vector<double>& epoch_ms = out.series("epoch_ms");
    double loop_ms = 0.0;
    const Clock::time_point t2 = Clock::now();
    for (std::uint64_t e = 1; e <= kEpochs; ++e) {
      const Clock::time_point a = Clock::now();
      loop.run_epochs(1);
      const double ms = ms_since(a);
      epoch_ms.push_back(ms);
      loop_ms += ms;
      if (e % kSnapshotEvery == 0) loop.save_checkpoint(snapshot);
    }
    reloaded.load_checkpoint(snapshot);
    const double wall_ms = ms_since(t2);
    out.sample("setup_s", ms_between(t0, t1) / 1e3);
    out.sample("wall_s", wall_ms / 1e3);
    out.sample("untraced_wall_ms", loop_ms);
    out.sample("epochs_per_rep", static_cast<double>(kEpochs));

    const cosim::CosimReport report = loop.report();
    const std::vector<std::uint8_t> bytes = cosim::serialize_report(report);
    if (first_report.empty()) first_report = bytes;
    out.check("cosim.report_bytes_repeat", bytes == first_report);
    out.check("cosim.snapshot_reload_fingerprint",
              reloaded.state_fingerprint() == loop.state_fingerprint());
    out.set("tile_cycles", tiles * static_cast<double>(loop.now()));
    out.set("sim_p99_cycles",
            static_cast<double>(loop.latency_summary().p99_latency));
    out.set("sim_usable_frac",
            static_cast<double>(loop.noc().faults().healthy_count()) / tiles);
    out.set("value:pdn.min_supply_mv", report.worst_min_supply_v * 1e3);
  };

  // The real loop, one step_cycle() at a time, plus its checkpoint calls.
  std::vector<cosim::EpochReport> loop_epochs;
  const auto real_loop = [&](int) {
    cosim::CosimLoop loop(o);
    cosim::CosimLoop reloaded(o);
    std::vector<double> plain_ms;
    std::vector<double> boundary_ms;
    double save_ms = 0.0, load_ms = 0.0, loop_ms = 0.0;
    for (std::uint64_t c = 1; c <= kEpochs * kEpochCycles; ++c) {
      const Clock::time_point a = Clock::now();
      loop.step_cycle();
      const double ms = ms_since(a);
      loop_ms += ms;
      if (c % kEpochCycles != 0) {
        plain_ms.push_back(ms);
        continue;
      }
      boundary_ms.push_back(ms);
      if ((c / kEpochCycles) % kSnapshotEvery == 0) {
        const Span s(save_ms);
        loop.save_checkpoint(snapshot);
      }
    }
    {
      const Span s(load_ms);
      reloaded.load_checkpoint(snapshot);
    }
    // Coupling time: what each boundary call costs beyond a plain cycle.
    const double plain = median(plain_ms);
    double couple_ms = 0.0;
    for (const double b : boundary_ms) couple_ms += b - plain;
    // The tracing overhead compares this call-by-call timed loop with the
    // untraced one: the recomposition below leaves out gauge publishing, so
    // its wall time is not the same work.
    out.sample("overhead_traced_ms", loop_ms);
    out.sample("layer:cosim.couple_ms", couple_ms);
    out.sample("layer:ckpt.save_ms", save_ms);
    out.sample("layer:ckpt.load_ms", load_ms);
    out.set("value:ckpt.bytes", file_bytes(snapshot));
    out.check("cosim.traced_snapshot_reload_fingerprint",
              reloaded.state_fingerprint() == loop.state_fingerprint());
    loop_epochs = loop.epochs();
  };

  const auto recomposed = [&](int) {
    LayerTimes t;
    const std::vector<cosim::EpochReport> epochs = recompose(o, t, out);
    out.check("cosim.recomposition_matches_loop", epochs == loop_epochs);
    out.sample("traced_wall_ms", t.wall);
    out.sample("traced_covered_ms", t.covered());
    out.sample("layer:workloads.emit_ms", t.emit);
    out.sample("layer:noc.issue_ms", t.issue);
    out.sample("layer:noc.step_ms", t.step);
    out.sample("layer:cosim.harvest_ms", t.harvest);
    out.sample("layer:cosim.power_map_ms", t.power_map);
    out.sample("layer:pdn.solve_ms", t.solve);
    out.sample("layer:noc.ber_ms", t.ber);
  };

  if (!args.trace) {
    repeat_for(args.seconds, 3, untraced);
    return;
  }
  // Interleaved, so drift in host speed reaches all three alike.
  repeat_for(args.seconds, 2, [&](int i) {
    untraced(i);
    real_loop(i);
    recomposed(i);
  });
}

}  // namespace perfbench
