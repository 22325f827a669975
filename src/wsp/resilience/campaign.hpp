// Monte Carlo degradation campaigns: the runtime half of the paper's
// resiliency story, measured end to end.
//
// A campaign replays a seeded FaultSchedule against a live wafer while
// synthetic traffic runs, coordinating the three degradation layers as
// each fault lands:
//   * NoC      — fault-map replan + end-to-end timeout/bounded-retry
//                (NocSystem), falling back X-Y -> Y-X -> relayed;
//   * clock    — ClockSelector re-latch wave for tiles whose forwarded
//                source died (clock::reselect_after_faults), orphans
//                marked unusable;
//   * PDN      — droop re-solve with browned-out LDO loads
//                (resolve_after_brownouts) on the trial's one WaferPdn,
//                undervolted tiles marked unusable.
// It then drains all traffic, censuses pair reachability on the surviving
// fabric, and re-runs arch bring-up so the wafer's post-burst single-
// system-image status is established the same way assembly-time bring-up
// establishes it.  Everything is deterministic in the seed: two runs with
// identical options produce bit-identical reports.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "wsp/common/config.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/noc/link_health.hpp"
#include "wsp/noc/link_integrity.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/noc/traffic.hpp"
#include "wsp/obs/metrics.hpp"
#include "wsp/resilience/fault_schedule.hpp"
#include "wsp/resilience/pdn_degradation.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace wsp::ckpt {
class Writer;
class Reader;
}  // namespace wsp::ckpt

namespace wsp::resilience {

struct CampaignOptions {
  SystemConfig config = SystemConfig::reduced(8, 8);
  std::uint64_t seed = 1;
  /// Assembly-time (pre-existing) fault probability per tile.
  double initial_fault_probability = 0.0;
  /// Random schedule parameters; ignored when `schedule` is set.
  ScheduleMix mix{};
  std::uint64_t fault_horizon = 4000;  ///< last random event by this cycle
  /// Explicit schedule (regression scenarios) overriding the random one.
  std::optional<FaultSchedule> schedule;
  /// Traffic window (cycles with injection), then drain.
  std::uint64_t run_cycles = 6000;
  std::uint64_t drain_cycles = 200000;
  noc::TrafficPattern pattern = noc::TrafficPattern::UniformRandom;
  double injection_rate = 0.01;  ///< per usable tile per cycle
  /// NoC options; response_timeout == 0 selects a grid-scaled default so
  /// the retry machinery is always armed during a campaign.
  noc::NocOptions noc{};
  PdnDegradationOptions pdn{};
  /// Clock generators; empty = first healthy edge tile.
  std::vector<TileCoord> clock_generators;
  std::uint64_t trajectory_sample_period = 256;
  /// Voltage->BER mapping of the link channel.  Active only when
  /// noc.mesh.integrity.enabled: the campaign then derives a voltage-aware
  /// BER map from the PDN solve (re-derived after every brownout), layers
  /// scheduled LinkBerDegradation events on top, scrubs the per-link error
  /// counters on a fixed firmware period and retires the links that
  /// noc::LinkHealthMonitor flags — all before they fail hard.
  noc::BerParams ber{};
  /// PDN<->NoC epoch coupling (wsp::cosim) inside each trial.  0 keeps the
  /// classic static behaviour: one uniform-activity solve up front, BER
  /// re-derived only on brownout events.  >= 1 re-solves the planes every
  /// cosim_epoch_cycles cycles from the NoC's measured per-tile activity
  /// (warm-started from the previous epoch's solution) and re-derives the
  /// voltage-aware BER map, so droop follows traffic and BER follows droop
  /// for the whole trial.  Active only when noc.mesh.integrity.enabled.
  std::uint64_t cosim_epoch_cycles = 0;
  /// Workload driving each trial's traffic window through a
  /// wsp::workloads::TrafficDriver.  For the Synthetic class (the default)
  /// the generator runs `pattern` / `injection_rate` above on the trial
  /// RNG, continuing it after the assembly faults and the schedule; the
  /// spec's own synthetic/seed fields are ignored.  Any other class is
  /// seeded workload.seed + trial seed.  Every topology event re-derives
  /// the generator's fault state, so no tile injects after it dies and
  /// collectives re-ring and pipelines re-route around dead tiles.
  workloads::WorkloadSpec workload{};
};

auto fields(Of<CampaignOptions> auto& o) {
  return std::tie(o.config, o.seed, o.initial_fault_probability, o.mix,
                  o.fault_horizon, o.schedule, o.run_cycles, o.drain_cycles,
                  o.pattern, o.injection_rate, o.noc, o.pdn,
                  o.clock_generators, o.trajectory_sample_period,
                  o.ber, o.cosim_epoch_cycles, o.workload);
}

/// Usable-tile count at a point in time.
struct TrajectoryPoint {
  std::uint64_t cycle = 0;
  std::size_t usable_tiles = 0;
  friend bool operator==(const TrajectoryPoint&,
                         const TrajectoryPoint&) = default;
};

auto fields(Of<TrajectoryPoint> auto& p) {
  return std::tie(p.cycle, p.usable_tiles);
}

/// Per-event outcome: what the fault cost and how long recovery took.
struct EventOutcome {
  FaultNotice notice;
  std::uint64_t applied_cycle = 0;
  std::size_t usable_after = 0;
  std::size_t newly_unusable = 0;  ///< tiles this event removed (with its
                                   ///< clock/PDN collateral)
  /// Cycles until every transaction in flight at the event either
  /// completed or was declared lost — the end-to-end recovery latency.
  std::uint64_t recovery_cycles = 0;
  bool recovered = false;
  int clock_relatched = 0;  ///< tiles that re-latched a surviving clock
  int clock_orphaned = 0;   ///< tiles orphaned from every generator
  int pdn_undervolted = 0;  ///< collateral out-of-regulation tiles
};

auto fields(Of<EventOutcome> auto& e) {
  return std::tie(e.notice, e.applied_cycle, e.usable_after, e.newly_unusable,
                  e.recovery_cycles, e.recovered, e.clock_relatched,
                  e.clock_orphaned, e.pdn_undervolted);
}

/// The re-bring-up numbers a campaign report keeps (arch::BringupReport's
/// clock plan, duty/skew reports and usable map are re-derivable by
/// re-running bring-up on the post-burst fault map).
struct RebringupSummary {
  std::size_t faulty_tiles = 0;
  std::uint64_t screening_tcks = 0;
  std::size_t usable_tiles = 0;
  bool single_system_image = false;
};

auto fields(Of<RebringupSummary> auto& s) {
  return std::tie(s.faulty_tiles, s.screening_tcks, s.usable_tiles,
                  s.single_system_image);
}

struct DegradationReport {
  std::vector<TrajectoryPoint> trajectory;
  std::vector<EventOutcome> events;
  /// Links the health monitor predictively retired during the run.
  std::vector<noc::RetiredLink> retirements;
  noc::NocStats noc_stats;
  std::uint64_t mesh_dropped = 0;  ///< dropped at faults + purged, both nets
  std::size_t initial_usable = 0;
  std::size_t final_usable = 0;
  /// Percentage of ordered usable pairs still routable (directly or
  /// relayed) after the full burst.
  double pair_reachability_pct = 0.0;
  bool single_system_image = false;
  /// True when traffic fully drained (no deadlock, nothing stuck).
  bool drained = false;
  std::uint64_t total_cycles = 0;
  /// Post-burst re-bring-up; nullopt when no healthy edge tile survives
  /// to generate a clock.
  std::optional<RebringupSummary> rebringup;
};

/// Periodic crash-safe checkpointing for Monte Carlo campaigns
/// (DegradationCampaign::run_trials_checkpointed).
struct CampaignCheckpointOptions {
  std::string path;      ///< snapshot file (a "CAMP" wsp::ckpt frame)
  int every_trials = 1;  ///< snapshot after every N completed trials
  /// Observability/test hook, called after each snapshot has been renamed
  /// into place with the completed-trial count (the kill-and-resume test
  /// SIGKILLs itself from here).
  std::function<void(int completed)> after_checkpoint;
  /// Graceful-shutdown seam for dispatcher-initiated preemption: when true
  /// the checkpointed runner installs a SIGTERM handler for its duration
  /// (restoring the previous disposition on exit) that only sets a flag;
  /// the flag is checked at trial-batch boundaries (granularity
  /// every_trials), where the runner flushes one final CAMP snapshot and
  /// throws CampaignPreempted.  A SIGTERMed worker therefore never loses
  /// completed trials.  SIGKILL remains the hard path — the last on-disk
  /// snapshot still resumes correctly, it just re-does the tail.
  bool flush_on_sigterm = false;
};

/// Thrown by the checkpointed runners when a SIGTERM lands with
/// flush_on_sigterm set: cooperative preemption, not an error.  The final
/// snapshot holding `completed()` trials is already renamed into place when
/// this is thrown, so rerunning the same command line resumes the tail.
class CampaignPreempted : public wsp::Error {
 public:
  explicit CampaignPreempted(int completed)
      : wsp::Error("campaign preempted by SIGTERM after " +
                   std::to_string(completed) +
                   " completed trials (snapshot flushed)"),
        completed_(completed) {}
  int completed() const { return completed_; }

 private:
  int completed_;
};

class DegradationCampaign {
 public:
  explicit DegradationCampaign(const CampaignOptions& options);

  const CampaignOptions& options() const { return options_; }

  /// One seeded trial.  Bit-identical across invocations with equal
  /// options (all randomness flows from one wsp::Rng).
  DegradationReport run() const;

  /// Monte Carlo: `trials` runs seeded seed, seed+1, ...  Independent
  /// trials dispatch concurrently onto the wsp::exec shared pool; the
  /// returned reports are bit-identical for every thread count (each trial
  /// is a pure function of its seed).
  std::vector<DegradationReport> run_trials(int trials) const;

  /// Trials [first, first+count), numbered exactly as run_trials numbers
  /// them (trial t is seeded seed + t), so checkpoint resumes and
  /// multi-process shards reproduce the single-process reports bit for
  /// bit.
  std::vector<DegradationReport> run_trial_range(int first, int count) const;

  /// run_trials with crash-safe resume: completed trials are snapshotted
  /// to ckpt.path every ckpt.every_trials trials (write-temp-then-rename,
  /// so a kill at any instant leaves either the previous snapshot or the
  /// new one).  When ckpt.path already holds a snapshot of *this* campaign
  /// — fingerprint, trial count and cursor all validated — the finished
  /// trials are loaded instead of re-run; a snapshot of a different
  /// campaign throws ckpt::Error.  A killed-and-resumed run therefore
  /// loses at most every_trials-1 trials of work and returns a report
  /// vector bit-identical to an uninterrupted run_trials(trials).
  std::vector<DegradationReport> run_trials_checkpointed(
      int trials, const CampaignCheckpointOptions& ckpt) const;

  /// run_trial_range with the same crash-safe resume: the snapshot records
  /// [first, first+count) out of a total_trials-trial campaign, which is
  /// exactly the shape a multi-process shard writes — each worker
  /// checkpoints (and resumes) its own range independently, and the
  /// partials merge with merge_campaign_reports.
  std::vector<DegradationReport> run_trial_range_checkpointed(
      int first, int count, int total_trials,
      const CampaignCheckpointOptions& ckpt) const;

  /// CRC-32 of ckpt::save_fields over every CampaignOptions field.  The
  /// campaign identity a checkpoint or shard file must match to be resumed
  /// or merged.
  std::uint32_t options_fingerprint() const;

 private:
  CampaignOptions options_;
};

/// DegradationReport (de)serialisation.  Everything the summarize /
/// publish_metrics layers read round-trips exactly, the optional
/// RebringupSummary included.
void save_report(ckpt::Writer& w, const DegradationReport& report);
DegradationReport load_report(ckpt::Reader& r);

/// One campaign's (partial) trial results on disk: the "CAMP" frame shared
/// by periodic checkpoints (first_trial == 0) and per-shard partials.
struct CampaignReportsFile {
  std::uint32_t fingerprint = 0;  ///< DegradationCampaign::options_fingerprint
  int total_trials = 0;           ///< trials in the whole campaign
  int first_trial = 0;            ///< index of reports.front()
  std::vector<DegradationReport> reports;  ///< consecutive completed trials
};

void save_campaign_reports(const std::string& path,
                           const CampaignReportsFile& file);
CampaignReportsFile load_campaign_reports(const std::string& path);

/// Stitches shard partials back into trial order.  Validates that every
/// shard carries `fingerprint`, that all agree on total_trials, and that
/// the ranges tile [0, total_trials) exactly — a gap, an overlap, a
/// duplicate shard, or a foreign shard throws ckpt::Error{SchemaMismatch}
/// whose message names the offending shard's trial range, so an operator
/// staring at a failed merge of 64 partials knows which file to look at.
/// The merged vector is bit-identical to run_trials(total_trials) on one
/// process.
std::vector<DegradationReport> merge_campaign_reports(
    std::vector<CampaignReportsFile> shards, std::uint32_t fingerprint);

/// Aggregate view over a set of Monte Carlo trials.
struct CampaignSummary {
  int trials = 0;
  double mean_final_usable_fraction = 0.0;  ///< of initially usable tiles
  double mean_recovery_cycles = 0.0;        ///< over recovered events
  double mean_pair_reachability_pct = 0.0;
  double lost_per_issued = 0.0;             ///< lost transactions / issued
  int single_system_image_survived = 0;     ///< trials ending with SSI
  int fully_drained = 0;                    ///< trials with no stuck traffic
};

CampaignSummary summarize(const std::vector<DegradationReport>& reports);

/// Folds trial reports into `registry` under the "campaign." namespace:
/// counters (trials, events, recovered events, retirements, drained /
/// single-system-image trials, aggregated NoC issued/completed/lost/
/// timeouts/retries), histograms (campaign.recovery_cycles over recovered
/// events, campaign.final_usable per trial) and summary gauges.  Reports
/// are folded in vector order, so run_trials output — itself bit-identical
/// for every thread count — produces a bit-identical registry.
void publish_metrics(const std::vector<DegradationReport>& reports,
                     obs::MetricsRegistry& registry);

}  // namespace wsp::resilience
