#include "wsp/resilience/campaign.hpp"

#include <algorithm>
#include <csignal>
#include <utility>

#include "wsp/arch/bringup.hpp"
#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/clock/forwarding.hpp"
#include "wsp/clock/recovery.hpp"
#include "wsp/common/error.hpp"
#include "wsp/cosim/cosim.hpp"
#include "wsp/exec/parallel_for.hpp"
#include "wsp/obs/trace.hpp"
#include "wsp/resilience/fault_injector.hpp"

namespace wsp::resilience {

namespace {

/// An event watched until every transaction in flight when it landed has
/// resolved (completed or been declared lost).  The driver is the trial's
/// only issuer and ids rise, so that set is the live ids below `ids_below`.
struct RecoveryTracker {
  std::size_t event_index;
  std::uint64_t ids_below;
};

/// Cycles between firmware scrubs of the per-link error counters.
constexpr std::uint64_t kLinkScrubPeriod = 64;

}  // namespace

DegradationCampaign::DegradationCampaign(const CampaignOptions& options)
    : options_(options) {
  options_.config.validate();
  require(options_.run_cycles >= 1, "campaign needs at least one cycle");
  require(options_.injection_rate >= 0.0 && options_.injection_rate <= 1.0,
          "injection rate must be a probability");
  require(options_.trajectory_sample_period >= 1,
          "trajectory sample period must be >= 1");
}

DegradationReport DegradationCampaign::run() const {
  WSP_TRACE_SPAN("campaign.trial");
  const SystemConfig& config = options_.config;
  const TileGrid grid = config.grid();
  Rng rng(options_.seed);

  // --- assembly-time state: faults, clock plan, initial usable map -------
  FaultMap assembly =
      options_.initial_fault_probability > 0.0
          ? FaultMap::random_with_probability(
                grid, options_.initial_fault_probability, rng)
          : FaultMap(grid);

  std::vector<TileCoord> generators = options_.clock_generators;
  if (generators.empty()) {
    const std::optional<TileCoord> edge =
        arch::first_healthy_edge_tile(assembly);
    require(edge.has_value(), "no healthy edge tile to generate the clock");
    generators.push_back(*edge);
  }

  clock::ForwardingPlan clock_plan =
      clock::simulate_forwarding(assembly, generators);

  FaultMap usable = assembly;
  grid.for_each([&](TileCoord c) {
    if (assembly.is_healthy(c) &&
        !clock_plan.tiles[grid.index_of(c)].reached)
      usable.set_faulty(c, true);
  });

  FaultSchedule schedule =
      options_.schedule
          ? *options_.schedule
          : FaultSchedule::random(grid, options_.mix, options_.fault_horizon,
                                  rng);
  FaultInjector injector(usable, schedule);

  noc::NocOptions nopt = options_.noc;
  if (nopt.response_timeout == 0) {
    // Grid-scaled default: a worst-case relayed round trip is ~4 diameter
    // traversals; leave generous congestion slack on top.
    nopt.response_timeout =
        static_cast<std::uint64_t>(8 * (grid.width() + grid.height()) *
                                   std::max(1, nopt.mesh.link_latency)) +
        128;
  }
  noc::NocSystem noc(usable, nopt);

  // --- voltage-aware link BER (tentpole coupling: pdn -> noc) ------------
  // The BER map is derived from the regulated LDO output of each link's
  // endpoints and re-derived on every PDN re-solve; scheduled
  // LinkBerDegradation events are layered on top (latest event per link
  // wins, since they re-apply in order).
  const bool integrity_on = nopt.mesh.integrity.enabled;
  noc::LinkBerMap base_ber(grid);
  // Per-trial scratch reused by every rebind: copy-assigning base_ber into
  // it reuses the allocation, instead of constructing a fresh full map per
  // brownout event per trial.
  noc::LinkBerMap ber_scratch(grid);
  const auto ber_from_report = [&](const pdn::PdnReport& pr) {
    std::vector<double> v(grid.tile_count(), options_.ber.nominal_v);
    for (std::size_t i = 0; i < v.size() && i < pr.tiles.size(); ++i)
      v[i] = pr.tiles[i].regulated_v;
    return noc::LinkBerMap::from_tile_voltages(grid, v, options_.ber);
  };
  const auto rebind_ber = [&](const FaultInjector& inj) {
    if (!integrity_on) return;
    ber_scratch = base_ber;
    for (const FaultEvent& e : inj.ber_degradations())
      ber_scratch.set_ber(e.tile, e.link, e.magnitude);
    noc.set_link_ber(ber_scratch);
  };
  // Kept alive for the whole trial when coupling is on: the cached
  // multigrid hierarchy and the warm-start seed below are what make the
  // per-epoch re-solves cheap.
  std::optional<pdn::WaferPdn> wafer_pdn;
  if (integrity_on) {
    wafer_pdn.emplace(config, options_.pdn.pdn);
    base_ber = ber_from_report(wafer_pdn->solve_uniform());  // at peak
    rebind_ber(injector);
  }
  const bool coupled = integrity_on && options_.cosim_epoch_cycles > 0;
  cosim::ActivityTracker activity;
  std::vector<std::vector<double>> epoch_power(1);
  std::vector<std::vector<double>> epoch_seed(1);
  noc::LinkHealthMonitor monitor(grid);

  // The trial's traffic.  Synthetic draws from the trial RNG itself,
  // handed over once the assembly faults and the schedule (its only other
  // uses) are drawn.  Any other class is seeded workload.seed + trial
  // seed, so Monte Carlo trials differ the same way.
  std::unique_ptr<workloads::TrafficGenerator> gen;
  if (options_.workload.cls == workloads::WorkloadClass::Synthetic) {
    gen = workloads::make_synthetic({.pattern = options_.pattern,
                                     .injection_rate = options_.injection_rate},
                                    usable, std::move(rng));
  } else {
    workloads::WorkloadSpec spec = options_.workload;
    spec.seed = spec.seed + options_.seed;
    gen = workloads::make_generator(spec, config, usable);
  }
  workloads::TrafficDriver driver(noc, *gen);

  DegradationReport report;
  report.initial_usable = usable.healthy_count();
  report.trajectory.push_back({0, report.initial_usable});

  // Trackers are in event order, so ids_below never decreases.  Settling
  // advances the `oldest_live` watermark past resolved ids and closes the
  // trackers it has passed: those events recovered at the current cycle.
  std::vector<RecoveryTracker> trackers;
  std::size_t settled = 0;
  std::uint64_t oldest_live = noc.next_transaction_id();
  const auto settle_trackers = [&] {
    while (oldest_live < noc.next_transaction_id() &&
           !noc.is_inflight(oldest_live))
      ++oldest_live;
    for (; settled < trackers.size() &&
           trackers[settled].ids_below <= oldest_live;
         ++settled) {
      EventOutcome& out = report.events[trackers[settled].event_index];
      out.recovery_cycles = noc.now() - out.applied_cycle;
      out.recovered = true;
    }
  };
  // Usable count after the previous event (the injector mutates the map
  // *before* returning notices, so each event's cost is measured against
  // the running count, direct kill and collateral alike).
  std::size_t prev_usable = report.initial_usable;

  // --- traffic window with fault injection -------------------------------
  for (std::uint64_t cycle = 0; cycle < options_.run_cycles; ++cycle) {
    for (const FaultNotice& n : injector.advance_to(noc.now())) {
      EventOutcome out;
      out.notice = n;
      out.applied_cycle = noc.now();

      switch (n.kind) {
        case RuntimeFaultKind::TileDeath:
        case RuntimeFaultKind::ClockGenLoss: {
          // Drop dead / silenced generators, then run the re-latch wave;
          // orphans lose their clock and become unusable.
          std::vector<TileCoord> survivors;
          for (TileCoord g : generators) {
            if (injector.faults().is_faulty(g)) continue;
            const auto& lost = injector.lost_generators();
            if (std::find(lost.begin(), lost.end(), g) != lost.end())
              continue;
            survivors.push_back(g);
          }
          clock::ReclockReport rr = clock::reselect_after_faults(
              clock_plan, injector.faults(), survivors);
          clock_plan = std::move(rr.plan);
          for (TileCoord t : rr.newly_orphaned) injector.mark_unusable(t);
          out.clock_relatched = static_cast<int>(rr.relatched.size());
          out.clock_orphaned = static_cast<int>(rr.newly_orphaned.size());
          break;
        }
        case RuntimeFaultKind::LdoBrownout: {
          const PdnDegradationReport pr = resolve_after_brownouts(
              config, injector.brownouts(), options_.pdn);
          for (TileCoord t : pr.unusable())
            if (injector.faults().is_healthy(t)) injector.mark_unusable(t);
          out.pdn_undervolted = static_cast<int>(pr.undervolted.size());
          if (integrity_on) {
            // The sagged plane shrinks link eye margins everywhere the
            // droop deepened: re-derive the base map from the degraded
            // solve (rebound below, after the fault state settles).
            base_ber = ber_from_report(pr.degraded);
          }
          break;
        }
        case RuntimeFaultKind::LinkFailure:
        case RuntimeFaultKind::LinkRetirement:
          break;  // the injector already recorded it in the LinkFaultSet
        case RuntimeFaultKind::PacketCorruption:
          noc.inject_corruption(n.tile);
          break;
        case RuntimeFaultKind::LinkBerDegradation:
          break;  // channel quality only: no topology change, rebind below
      }

      if (n.kind != RuntimeFaultKind::PacketCorruption &&
          n.kind != RuntimeFaultKind::LinkBerDegradation) {
        noc.apply_fault_state(injector.faults(), injector.link_faults());
        // The generator stops injecting from dead tiles and re-derives its
        // phase geometry (ring membership, halo neighbours, stage routes,
        // vertex owners) from the same settled fault state the NoC
        // replans from.
        gen->apply_fault_state(injector.faults());
      }
      // Rebind the BER map only after the fault *and* clock state have
      // settled: clock re-selection (TileDeath / ClockGenLoss) mutates the
      // usable map after any PDN-derived base map was computed, so the
      // rebind must follow the re-selection and the apply_fault_state —
      // not sit inside the individual event cases.
      if (n.kind != RuntimeFaultKind::PacketCorruption) rebind_ber(injector);

      out.usable_after = injector.faults().healthy_count();
      out.newly_unusable = prev_usable - out.usable_after;
      prev_usable = out.usable_after;
      trackers.push_back({report.events.size(), noc.next_transaction_id()});
      report.events.push_back(out);
      report.trajectory.push_back({noc.now(), out.usable_after});
    }

    // Inject traffic from currently usable tiles and step the NoC.
    driver.step();

    // Firmware link-health scrub: harvest the per-link error counters and
    // retire links whose observed error rate says they are dying, routing
    // around them before they fail hard.
    if (integrity_on && (cycle + 1) % kLinkScrubPeriod == 0) {
      for (const noc::RetiredLink& r : monitor.scrub(noc)) {
        injector.retire_link(r.tile, r.dir);
        noc.retire_link(r.tile, r.dir);
        report.retirements.push_back(r);
      }
    }

    // PDN<->NoC epoch coupling: re-solve the planes from the NoC's
    // measured per-tile activity (warm-started from last epoch's
    // solution) and re-derive the voltage-aware BER map, so droop follows
    // the traffic that actually flowed and BER follows the droop.
    if (coupled && (cycle + 1) % options_.cosim_epoch_cycles == 0) {
      epoch_power[0] = cosim::activity_power_map(
          activity.harvest(noc), injector.faults(), config.tile_peak_power_w,
          options_.cosim_epoch_cycles);
      // Browned-out LDOs draw their elevated load wherever they sit.
      for (const TileCoord t : injector.brownouts())
        if (injector.faults().is_healthy(t))
          epoch_power[0][grid.index_of(t)] =
              config.tile_peak_power_w * options_.pdn.brownout_load_factor;
      base_ber =
          ber_from_report(wafer_pdn->solve_batch_warm(epoch_power,
                                                      epoch_seed)[0]);
      rebind_ber(injector);
    }

    settle_trackers();

    if ((cycle + 1) % options_.trajectory_sample_period == 0)
      report.trajectory.push_back(
          {noc.now(), injector.faults().healthy_count()});
  }

  // --- drain: everything in flight completes, retries, or is lost --------
  {
    WSP_TRACE_SPAN("campaign.drain");
    const std::uint64_t drain_limit = noc.now() + options_.drain_cycles;
    std::vector<noc::CompletedTransaction> done;
    while (noc.inflight_transactions() > 0 && noc.now() < drain_limit) {
      done.clear();
      noc.step(done);
      settle_trackers();
    }
  }
  report.drained = noc.inflight_transactions() == 0;
  for (; settled < trackers.size(); ++settled) {
    EventOutcome& out = report.events[trackers[settled].event_index];
    out.recovery_cycles = noc.now() - out.applied_cycle;
    out.recovered = false;
  }

  report.total_cycles = noc.now();
  report.noc_stats = noc.stats();
  report.mesh_dropped =
      noc.network(noc::NetworkKind::XY).stats().dropped_at_fault +
      noc.network(noc::NetworkKind::XY).stats().purged_in_dead_router +
      noc.network(noc::NetworkKind::YX).stats().dropped_at_fault +
      noc.network(noc::NetworkKind::YX).stats().purged_in_dead_router;
  report.final_usable = injector.faults().healthy_count();
  report.trajectory.push_back({noc.now(), report.final_usable});

  // --- post-burst fabric census ------------------------------------------
  const noc::PairReachability census = noc.selector().reachable_pairs();
  report.pair_reachability_pct =
      census.pairs ? 100.0 * static_cast<double>(census.reachable) /
                         static_cast<double>(census.pairs)
                   : 100.0;
  report.single_system_image =
      census.pairs > 0 && census.reachable == census.pairs;

  // --- re-bring-up on the degraded wafer ---------------------------------
  // The surviving original generators; with none, run_bringup picks the
  // first healthy edge tile, and with no such tile there is no clock.
  arch::BringupOptions bopt;
  for (TileCoord g : generators)
    if (injector.faults().is_healthy(g)) bopt.clock_generators.push_back(g);
  if (!bopt.clock_generators.empty() ||
      arch::first_healthy_edge_tile(injector.faults())) {
    const arch::BringupReport b =
        arch::run_bringup(config, injector.faults(), bopt);
    report.rebringup = RebringupSummary{b.faulty_tiles, b.screening_tcks,
                                        b.usable_tiles, b.single_system_image};
  }
  return report;
}

std::vector<DegradationReport> DegradationCampaign::run_trials(
    int trials) const {
  require(trials >= 1, "at least one trial");
  return run_trial_range(0, trials);
}

std::vector<DegradationReport> DegradationCampaign::run_trial_range(
    int first, int count) const {
  require(first >= 0, "first trial must be non-negative");
  require(count >= 1, "at least one trial");
  // Trials are embarrassingly parallel: each one owns its wafer state and
  // is a pure function of (options, seed + trial index), so fanning them
  // out with exec::parallel_for keeps the report vector bit-identical for
  // any thread count — and, because trial t always means seed + t no
  // matter which range (or process) computes it, for any sharding too.
  // This is wsp::exec's only user: everything inside a trial (the PDN
  // re-solves included) is serial, so the threads are never
  // oversubscribed.
  std::vector<DegradationReport> reports(static_cast<std::size_t>(count));
  exec::parallel_for(
      reports.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t t = b; t < e; ++t) {
          CampaignOptions o = options_;
          o.seed = options_.seed + static_cast<std::uint64_t>(first) +
                   static_cast<std::uint64_t>(t);
          reports[t] = DegradationCampaign(o).run();
        }
      });
  return reports;
}

namespace {

// The SIGTERM handler may only touch a sig_atomic_t; everything else (the
// snapshot flush, the throw) happens at the next trial-batch boundary on
// the normal control path.
volatile std::sig_atomic_t g_sigterm_flag = 0;

extern "C" void wsp_campaign_sigterm(int) { g_sigterm_flag = 1; }

/// Installs the flag-setting SIGTERM handler for the lifetime of one
/// checkpointed run and restores the previous disposition afterwards.
class ScopedSigtermFlag {
 public:
  explicit ScopedSigtermFlag(bool enable) : armed_(false) {
    if (!enable) return;
    g_sigterm_flag = 0;
    struct sigaction sa = {};
    sa.sa_handler = wsp_campaign_sigterm;
    sigemptyset(&sa.sa_mask);
    armed_ = sigaction(SIGTERM, &sa, &previous_) == 0;
  }
  ~ScopedSigtermFlag() {
    if (armed_) sigaction(SIGTERM, &previous_, nullptr);
  }
  ScopedSigtermFlag(const ScopedSigtermFlag&) = delete;
  ScopedSigtermFlag& operator=(const ScopedSigtermFlag&) = delete;

  bool fired() const { return armed_ && g_sigterm_flag != 0; }

 private:
  bool armed_;
  struct sigaction previous_ = {};
};

}  // namespace

std::vector<DegradationReport> DegradationCampaign::run_trials_checkpointed(
    int trials, const CampaignCheckpointOptions& ckpt) const {
  return run_trial_range_checkpointed(0, trials, trials, ckpt);
}

std::vector<DegradationReport>
DegradationCampaign::run_trial_range_checkpointed(
    int first, int count, int total_trials,
    const CampaignCheckpointOptions& ckpt) const {
  require(first >= 0, "first trial must be non-negative");
  require(count >= 1, "at least one trial");
  require(first + count <= total_trials,
          "trial range exceeds the campaign trial count");
  require(!ckpt.path.empty(), "checkpoint path must be set");
  require(ckpt.every_trials >= 1, "checkpoint period must be >= 1");
  const std::uint32_t fp = options_fingerprint();

  std::vector<DegradationReport> reports;
  bool resuming = false;
  CampaignReportsFile existing;
  try {
    existing = load_campaign_reports(ckpt.path);
    resuming = true;
  } catch (const ckpt::Error& e) {
    // No snapshot yet (first run, or the previous run died before its
    // first checkpoint) is the normal cold-start path.  Anything else —
    // corruption, truncation, a foreign frame — stays loud.
    if (e.kind() != ckpt::ErrorKind::Io) throw;
  }
  if (resuming) {
    if (existing.fingerprint != fp)
      throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                        "checkpoint belongs to a different campaign");
    if (existing.first_trial != first ||
        existing.total_trials != total_trials ||
        existing.reports.size() > static_cast<std::size_t>(count))
      throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                        "checkpoint trial range does not match this run");
    reports = std::move(existing.reports);
  }

  const ScopedSigtermFlag preempt(ckpt.flush_on_sigterm);
  while (reports.size() < static_cast<std::size_t>(count)) {
    if (preempt.fired()) {
      // The per-batch snapshot below already persisted everything we ran;
      // this re-save only matters when resumption loaded trials without
      // running a batch yet.  Saving an identical snapshot is harmless
      // (write-temp-then-rename), so flush unconditionally and leave.
      save_campaign_reports(ckpt.path, {fp, total_trials, first, reports});
      throw CampaignPreempted(static_cast<int>(reports.size()));
    }
    const int done = static_cast<int>(reports.size());
    const int batch = std::min(ckpt.every_trials, count - done);
    std::vector<DegradationReport> chunk =
        run_trial_range(first + done, batch);
    for (DegradationReport& r : chunk) reports.push_back(std::move(r));
    save_campaign_reports(ckpt.path, {fp, total_trials, first, reports});
    if (ckpt.after_checkpoint)
      ckpt.after_checkpoint(static_cast<int>(reports.size()));
  }
  return reports;
}

CampaignSummary summarize(const std::vector<DegradationReport>& reports) {
  CampaignSummary s;
  s.trials = static_cast<int>(reports.size());
  if (reports.empty()) return s;
  double usable_frac = 0.0;
  double recovery_sum = 0.0;
  std::size_t recovered_events = 0;
  std::uint64_t lost = 0;
  std::uint64_t issued = 0;
  for (const DegradationReport& r : reports) {
    usable_frac += r.initial_usable
                       ? static_cast<double>(r.final_usable) /
                             static_cast<double>(r.initial_usable)
                       : 0.0;
    s.mean_pair_reachability_pct += r.pair_reachability_pct;
    for (const EventOutcome& e : r.events)
      if (e.recovered) {
        recovery_sum += static_cast<double>(e.recovery_cycles);
        ++recovered_events;
      }
    lost += r.noc_stats.lost;
    issued += r.noc_stats.issued;
    if (r.single_system_image) ++s.single_system_image_survived;
    if (r.drained) ++s.fully_drained;
  }
  s.mean_final_usable_fraction = usable_frac / s.trials;
  s.mean_pair_reachability_pct /= s.trials;
  s.mean_recovery_cycles =
      recovered_events ? recovery_sum / static_cast<double>(recovered_events)
                       : 0.0;
  s.lost_per_issued =
      issued ? static_cast<double>(lost) / static_cast<double>(issued) : 0.0;
  return s;
}

void publish_metrics(const std::vector<DegradationReport>& reports,
                     obs::MetricsRegistry& registry) {
  obs::Counter& trials = registry.counter("campaign.trials");
  obs::Counter& events = registry.counter("campaign.events");
  obs::Counter& recovered = registry.counter("campaign.events_recovered");
  obs::Counter& retirements = registry.counter("campaign.retirements");
  obs::Counter& drained = registry.counter("campaign.drained");
  obs::Counter& ssi = registry.counter("campaign.single_system_image");
  obs::Counter& issued = registry.counter("campaign.noc.issued");
  obs::Counter& completed = registry.counter("campaign.noc.completed");
  obs::Counter& lost = registry.counter("campaign.noc.lost");
  obs::Counter& timeouts = registry.counter("campaign.noc.timeouts");
  obs::Counter& retries = registry.counter("campaign.noc.retries");
  obs::Histogram& recovery = registry.histogram("campaign.recovery_cycles");
  obs::Histogram& final_usable = registry.histogram("campaign.final_usable");

  double reachability_sum = 0.0;
  for (const DegradationReport& r : reports) {
    trials.add();
    events.add(r.events.size());
    retirements.add(r.retirements.size());
    if (r.drained) drained.add();
    if (r.single_system_image) ssi.add();
    issued.add(r.noc_stats.issued);
    completed.add(r.noc_stats.completed);
    lost.add(r.noc_stats.lost);
    timeouts.add(r.noc_stats.timeouts);
    retries.add(r.noc_stats.retries);
    for (const EventOutcome& e : r.events) {
      if (!e.recovered) continue;
      recovered.add();
      recovery.record(e.recovery_cycles);
    }
    final_usable.record(r.final_usable);
    reachability_sum += r.pair_reachability_pct;
  }
  registry.gauge("campaign.mean_pair_reachability_pct")
      .set(reports.empty() ? 0.0
                           : reachability_sum /
                                 static_cast<double>(reports.size()));
}

// --- checkpointing ----------------------------------------------------------

namespace {

constexpr std::uint32_t kCampaignKind = ckpt::fourcc("CAMP");
constexpr std::uint32_t kCampaignStateVersion = 1;

auto file_header(Of<CampaignReportsFile> auto& f) {
  return std::tie(f.fingerprint, f.total_trials, f.first_trial);
}

// The report after its "NSTA" tag.
auto report_tail(Of<DegradationReport> auto& r) {
  return std::tie(r.noc_stats, r.mesh_dropped, r.initial_usable,
                  r.final_usable, r.pair_reachability_pct,
                  r.single_system_image, r.drained, r.total_cycles,
                  r.rebringup);
}

}  // namespace

void save_report(ckpt::Writer& w, const DegradationReport& report) {
  w.tag(ckpt::fourcc("DRPT"));
  w.tag(ckpt::fourcc("TRAJ"));
  ckpt::save_fields(w, report.trajectory);
  w.tag(ckpt::fourcc("EVNT"));
  ckpt::save_fields(w, report.events);
  w.tag(ckpt::fourcc("RETD"));
  ckpt::save_fields(w, report.retirements);
  w.tag(ckpt::fourcc("NSTA"));
  ckpt::save_fields(w, report_tail(report));
}

DegradationReport load_report(ckpt::Reader& r) {
  DegradationReport report;
  r.expect_tag(ckpt::fourcc("DRPT"), "DegradationReport");
  r.expect_tag(ckpt::fourcc("TRAJ"), "report trajectory");
  ckpt::load_fields(r, report.trajectory);
  r.expect_tag(ckpt::fourcc("EVNT"), "report events");
  ckpt::load_fields(r, report.events);
  r.expect_tag(ckpt::fourcc("RETD"), "report retirements");
  ckpt::load_fields(r, report.retirements);
  r.expect_tag(ckpt::fourcc("NSTA"), "report NoC stats");
  ckpt::load_fields(r, report_tail(report));
  return report;
}

std::uint32_t DegradationCampaign::options_fingerprint() const {
  ckpt::Writer w;
  ckpt::save_fields(w, options_);
  return ckpt::crc32(w.bytes().data(), w.size());
}

void save_campaign_reports(const std::string& path,
                           const CampaignReportsFile& file) {
  ckpt::Writer w;
  ckpt::save_fields(w, file_header(file));
  w.u64(file.reports.size());
  for (const DegradationReport& r : file.reports) save_report(w, r);
  ckpt::save_frame_file(path, kCampaignKind, kCampaignStateVersion, w);
}

CampaignReportsFile load_campaign_reports(const std::string& path) {
  const ckpt::Frame frame = ckpt::load_frame_file(path, kCampaignKind);
  if (frame.state_version != kCampaignStateVersion)
    throw ckpt::Error(ckpt::ErrorKind::VersionMismatch,
                      "campaign snapshot schema revision unknown");
  ckpt::Reader r(frame.payload);
  CampaignReportsFile file;
  ckpt::load_fields(r, file_header(file));
  if (file.total_trials < 1 || file.first_trial < 0 ||
      file.first_trial > file.total_trials)
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "campaign snapshot trial range is malformed");
  // A report is at least ~215 bytes; 64 is a safe allocation guard.
  const std::size_t n = r.length(64);
  if (file.first_trial + static_cast<int>(n) > file.total_trials)
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "campaign snapshot holds more reports than trials");
  file.reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) file.reports.push_back(load_report(r));
  if (!r.done())
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "trailing bytes after campaign reports");
  return file;
}

std::vector<DegradationReport> merge_campaign_reports(
    std::vector<CampaignReportsFile> shards, std::uint32_t fingerprint) {
  if (shards.empty())
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "no shard files to merge");
  std::sort(shards.begin(), shards.end(),
            [](const CampaignReportsFile& a, const CampaignReportsFile& b) {
              return a.first_trial < b.first_trial;
            });
  // Every rejection names the offending shard's trial range: with dozens
  // of partial files on the floor, "shard trials [12, 16)" points at one.
  const auto shard_name = [](const CampaignReportsFile& s) {
    return "shard trials [" + std::to_string(s.first_trial) + ", " +
           std::to_string(s.first_trial + static_cast<int>(s.reports.size())) +
           ")";
  };
  const int total = shards.front().total_trials;
  std::vector<DegradationReport> merged;
  int next = 0;
  const CampaignReportsFile* prev = nullptr;
  for (CampaignReportsFile& s : shards) {
    if (s.fingerprint != fingerprint)
      throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                        shard_name(s) +
                            " belongs to a different campaign "
                            "(fingerprint mismatch)");
    if (s.total_trials != total)
      throw ckpt::Error(
          ckpt::ErrorKind::SchemaMismatch,
          shard_name(s) + " disagrees on the campaign trial count (" +
              std::to_string(s.total_trials) + " vs " + std::to_string(total) +
              ")");
    if (prev && s.first_trial == prev->first_trial)
      throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                        "duplicate " + shard_name(s));
    if (s.first_trial < next)
      throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                        shard_name(s) + " overlaps the preceding shard");
    if (s.first_trial > next)
      throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                        "gap before " + shard_name(s) + ": trials [" +
                            std::to_string(next) + ", " +
                            std::to_string(s.first_trial) + ") missing");
    next += static_cast<int>(s.reports.size());
    prev = &s;
    for (DegradationReport& r : s.reports) merged.push_back(std::move(r));
  }
  if (next != total)
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "merged shards cover trials [0, " +
                          std::to_string(next) + ") of " +
                          std::to_string(total) + " — tail missing");
  return merged;
}

}  // namespace wsp::resilience
