// Fault-tolerant fleet dispatcher: supervised multi-process campaigns.
//
// `wsp::ckpt` made a campaign crash-safe within one process; this module
// makes the *fleet* fail-operational.  A FleetDispatcher splits a
// DegradationCampaign's trial range into shards, forks (and optionally
// execs) one worker process per shard, and treats worker failure as a
// first-class event rather than an operational surprise.  The supervision
// state machine per shard:
//
//            +------------------------------- retry (backoff) ------+
//            v                                                      |
//   Pending --launch--> Running --exit 0 + valid CAMP--> Completed  |
//                          |                                        |
//                          +-- signal death / bad exit / corrupt ---+
//                          |        output / deadline escalation
//                          |
//                          +-- attempts exhausted --> Quarantined (poison)
//
// Liveness is judged from two independent signals: waitpid status (did the
// process die?) and the worker's heartbeat file (is a live process still
// making progress?).  A worker whose heartbeat payload freezes past the
// deadline — SIGSTOPped, deadlocked, NFS-hung — is escalated SIGCONT+
// SIGTERM (cooperative flush, exit 75) and, after a grace period, SIGKILL.
// Every re-dispatch resumes from the shard's crash-safe snapshot, so a
// retry re-does only the tail of the shard, and exponential backoff keeps
// a flapping host from monopolising the queue.
//
// Shards that fail max_attempts times are quarantined as poison: the run
// still terminates, the merged report covers every completed shard in
// trial order, and {shards_quarantined > 0} + a partial-coverage status is
// the honest answer instead of a hang or a silent gap.
//
// Stragglers: once nothing is pending, the slowest running shard can be
// re-issued to an idle slot (its own snapshot/output files).  Whichever
// copy finishes first wins; if both finish, the two CAMP partials must be
// byte-identical — determinism turns speculative duplication into a free
// correctness assertion.
//
// Determinism argument, spelled out once: trial t is a pure function of
// (campaign options, seed + t).  Kills, retries, stalls, duplication and
// shard scheduling change only *which process* computes a trial and *when*
// — never the trial's bytes.  Hence the acceptance property (enforced by
// tests/fleet_test.cpp and tools/fleet_chaos_gate.py): for any chaos
// schedule, the merged report is byte-identical to the undisturbed
// single-process run over all non-quarantined shards.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "wsp/fleet/chaos.hpp"
#include "wsp/fleet/worker.hpp"
#include "wsp/obs/metrics.hpp"
#include "wsp/resilience/campaign.hpp"

namespace wsp::fleet {

/// One shard of the fleet plan: a contiguous trial block.
struct ShardSpec {
  int shard = 0;
  int first = 0;
  int count = 0;
  friend bool operator==(const ShardSpec&, const ShardSpec&) = default;
};

/// How the dispatcher turns a ShardSpec into a running process.
struct WorkerCommand {
  /// Executable to exec in the forked child.  Empty selects in-process
  /// mode: the child calls `entry` and _exits with its return value —
  /// no exec, which is what unit tests want.  wsp::exec keeps no threads
  /// between calls, so a dispatch made outside any exec call forks no
  /// half-finished worker into the child.
  std::string program;
  /// Fixed argv after the program name, before the generated worker tail
  /// (typically {"--worker"}).
  std::vector<std::string> args;
  /// In-process worker body (fork-only mode).
  std::function<int(const WorkerShardArgs&)> entry;
  /// Optional per-shard argv suffix (exec mode), e.g. {"--poison"} to turn
  /// one shard into a poison shard for the chaos gate.
  std::function<std::vector<std::string>(int shard)> extra_args;
};

struct FleetOptions {
  int trials = 0;
  /// Work-queue policy: explicit shard count, or 0 to derive
  /// ceil(trials / trials_per_shard).
  int shards = 0;
  int trials_per_shard = 4;
  /// Concurrent worker processes (the fleet width).
  int max_workers = 4;
  /// Directory for shard snapshot/heartbeat/output files ("." = cwd).
  std::string work_dir = ".";
  double poll_interval_s = 0.02;
  /// No-heartbeat-progress deadline per worker.  Must exceed the worst
  /// single-trial latency — the heartbeat bumps once per trial.
  double heartbeat_timeout_s = 30.0;
  /// Hard per-attempt wall-clock deadline (0 = none).
  double attempt_deadline_s = 0.0;
  /// Grace between the cooperative SIGTERM and the SIGKILL escalation;
  /// <= 0 skips the SIGTERM and kills an overdue worker at once.
  double term_grace_s = 2.0;
  /// Dispatch attempts per shard before it is quarantined as poison.
  int max_attempts = 3;
  /// Exponential backoff before attempt k+1: base * 2^(k-1), capped.
  double backoff_base_s = 0.1;
  double backoff_cap_s = 5.0;
  /// Straggler re-issue: once nothing is pending, a shard running longer
  /// than straggler_factor x the median completed-attempt wall time (and
  /// at least straggler_min_s) is duplicated once into an idle slot.
  /// <= 0 disables.
  double straggler_factor = 0.0;
  double straggler_min_s = 1.0;
  FleetChaosOptions chaos{};
};

/// Per-attempt backoff delay (attempt is 1-based; attempt 1 has none).
double backoff_delay_s(const FleetOptions& options, int attempt);

/// Terminal record of one shard.
struct ShardOutcome {
  int shard = 0;
  int first = 0;
  int count = 0;
  int attempts = 0;  ///< dispatch attempts consumed (primaries only)
  bool completed = false;
  bool quarantined = false;
  int kills = 0;  ///< dispatcher SIGKILL escalations on this shard
  bool straggler_reissued = false;
  bool duplicate_won = false;  ///< the re-issued copy finished first
};

/// What the fleet produced, complete or degraded.
struct FleetReport {
  /// Merged trial reports from completed shards, in trial order.  Covers
  /// [0, trials) exactly when complete(); otherwise the quarantined
  /// ranges are absent and callers must treat coverage as partial.
  std::vector<resilience::DegradationReport> reports;
  std::vector<ShardOutcome> shards;
  int trials = 0;
  int shards_total = 0;
  int shards_completed = 0;
  int shards_quarantined = 0;
  int retries = 0;       ///< primary re-dispatches beyond first attempts
  int worker_kills = 0;  ///< SIGKILL escalations (hung/stalled workers)
  int stragglers_reissued = 0;
  ChaosStats chaos;
  bool complete() const { return shards_quarantined == 0; }
};

class FleetDispatcher {
 public:
  FleetDispatcher(const resilience::DegradationCampaign& campaign,
                  const FleetOptions& options);

  /// The contiguous-block shard plan (sizes differ by at most one trial).
  std::vector<ShardSpec> plan() const;

  /// Drives every shard to Completed or Quarantined and collects the
  /// merge.  Never hangs: heartbeat deadlines bound each attempt and
  /// max_attempts bounds the retries.  Throws wsp::Error only on
  /// infrastructure failure (fork failure, a straggler byte-compare
  /// mismatch — i.e. a determinism bug — or unreadable completed output);
  /// worker failures are data, not exceptions.
  FleetReport run(const WorkerCommand& command) const;

  const FleetOptions& options() const { return options_; }

 private:
  const resilience::DegradationCampaign& campaign_;
  FleetOptions options_;
};

/// Folds a fleet run into `registry` under the "fleet." namespace:
/// counters {shards_total, shards_completed, shards_quarantined, retries,
/// worker_kills, stragglers_reissued, chaos.{kills,stalls,resumes}}, an
/// attempts-per-shard histogram, and a coverage gauge.
void publish_fleet_metrics(const FleetReport& report,
                           obs::MetricsRegistry& registry);

}  // namespace wsp::fleet
