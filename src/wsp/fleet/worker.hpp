// Fleet worker protocol: the process a dispatcher forks/execs per shard.
//
// A worker owns one contiguous trial range of a DegradationCampaign.  Its
// whole contract is file-shaped, so the dispatcher never needs a pipe or a
// socket:
//
//   * args.ckpt       — crash-safe "CAMP" snapshot, written after every
//                       trial; a re-dispatched attempt resumes from it and
//                       re-does only the tail.
//   * args.heartbeat  — "HBEA" liveness beacon, atomically bumped at start
//                       and at every checkpoint; the dispatcher's only
//                       progress signal.
//   * args.out        — the finished "CAMP" partial, written *last*; its
//                       existence plus exit code 0 means the shard is done.
//
// On SIGTERM (dispatcher preemption) the worker flushes one final snapshot
// at the next trial boundary and exits kWorkerExitPreempted — completed
// trials are never lost.  On SIGKILL nothing runs, and the snapshot on
// disk is the resume point; both paths reproduce the uninterrupted run bit
// for bit because trial t is a pure function of (options, seed + t).
//
// The argv tail produced by worker_argv / consumed by parse_worker_argv is
// the exec-mode wire format; in-process (fork-only) dispatch passes the
// struct directly.
#pragma once

#include <string>
#include <vector>

#include "wsp/resilience/campaign.hpp"

namespace wsp::fleet {

/// Worker exit codes the dispatcher branches on.
inline constexpr int kWorkerExitOk = 0;
inline constexpr int kWorkerExitError = 1;    ///< typed failure, retryable
inline constexpr int kWorkerExitBadArgs = 2;  ///< malformed argv tail
/// Cooperative SIGTERM preemption (EX_TEMPFAIL): the final snapshot is on
/// disk, re-dispatch resumes the tail.
inline constexpr int kWorkerExitPreempted = 75;

/// One shard assignment, as handed to a worker.
struct WorkerShardArgs {
  int shard = 0;         ///< shard index in the fleet plan
  int attempt = 1;       ///< dispatch attempt (1-based)
  int first = 0;         ///< first trial of the range
  int count = 0;         ///< trials in the range
  int total_trials = 0;  ///< trials in the whole campaign
  bool duplicate = false;  ///< straggler re-issue copy (own ckpt/out files)
  /// Chaos trial boundary (0 = none): after this many completed trials the
  /// worker stops itself (SIGSTOP) right after its heartbeat, so the
  /// dispatcher's deterministic kill or stall lands there, mid-range, however
  /// fast the trials run.
  int pause_after = 0;
  std::string out;         ///< finished CAMP partial (written last)
  std::string ckpt;        ///< crash-safe snapshot (resume seam)
  std::string heartbeat;   ///< HBEA liveness beacon
};

/// Serialises `args` into the argv tail a dispatcher appends after the
/// worker command's fixed prefix (e.g. "--worker").
std::vector<std::string> worker_argv(const WorkerShardArgs& args);

/// Parses the tail back.  Strict: an unknown flag, a missing value, or a
/// missing required field throws wsp::Error — a worker launched with a
/// garbled command line must die loudly (kWorkerExitBadArgs), not run the
/// wrong trials.
WorkerShardArgs parse_worker_argv(const std::vector<std::string>& argv);

/// Runs one shard to completion: writes the initial heartbeat, resumes
/// run_trial_range_checkpointed from args.ckpt (checkpoint + heartbeat
/// after every trial, SIGTERM flush armed), then writes the CAMP partial
/// to args.out.  Returns a kWorkerExit* code; never throws.
int run_worker(const resilience::DegradationCampaign& campaign,
               const WorkerShardArgs& args);

}  // namespace wsp::fleet
