// Chaos harness for the fleet dispatcher: seeded fault injection into the
// dispatcher's *own* worker processes.
//
// The paper's thesis — a 2048-chiplet wafer keeps computing through faulty
// links and chiplets — has to hold one level up: the simulation campaign
// must keep computing through dead, hung, and slow workers.  The chaos
// engine makes that a testable property instead of an operational anecdote
// by injecting the three canonical worker failures from inside the
// supervision loop:
//
//   * Kill   — SIGKILL, the node-crash / OOM-killer case.  No flush, no
//              handler; only the crash-safe shard snapshot survives.
//   * Stall  — SIGSTOP, the livelock / NFS-hang / cgroup-freeze case.  The
//              worker is alive to the kernel but its heartbeat payload
//              freezes; the dispatcher must notice and escalate.
//   * Resume — SIGCONT after a configured stall, the transient-hiccup case
//              (the worker comes back and should be allowed to finish).
//
// Two trigger families: probabilistic per-tick draws from a seeded
// wsp::Rng, and deterministic "first attempt, after N completed trials"
// triggers that guarantee a mid-shard injection regardless of machine
// speed — a fast box must not dodge the test by finishing before the dice
// land.  The acceptance property lives in tests/fleet_test.cpp and
// tools/fleet_chaos_gate.py: any chaos schedule yields a merged report
// byte-identical to the undisturbed single-process run for every
// non-quarantined shard.
#pragma once

#include <cstdint>
#include <set>

#include "wsp/common/rng.hpp"

namespace wsp::fleet {

/// What the chaos engine decided to do to one worker at one tick.
enum class ChaosAction : std::uint8_t { None, Kill, Stall, Resume };

struct FleetChaosOptions {
  bool enabled = false;
  std::uint64_t seed = 1;
  /// Per supervision tick, per live (unstalled) worker: SIGKILL draw.
  double kill_probability = 0.0;
  /// Per supervision tick, per live (unstalled) worker: SIGSTOP draw.
  double stall_probability = 0.0;
  /// Seconds a stalled worker stays stopped before chaos SIGCONTs it;
  /// <= 0 never resumes, so the heartbeat deadline must fire and the
  /// dispatcher's SIGCONT+SIGTERM / SIGKILL escalation is exercised.
  double stall_resume_s = 0.0;
  /// Deterministic trigger: SIGKILL each shard's attempt-1 worker as soon
  /// as its heartbeat reports >= this many completed trials (0 = off).  The
  /// worker stops itself at that trial boundary (WorkerShardArgs::
  /// pause_after), so the kill always lands mid-range.  The retry then
  /// resumes from the snapshot and re-does only the tail.
  std::uint64_t first_attempt_kill_after = 0;
  /// Same deterministic trigger with SIGSTOP (0 = off).  Combined with
  /// stall_resume_s <= 0 this forces the escalation path on every shard.
  std::uint64_t first_attempt_stall_after = 0;
  /// Upper bound on probabilistically injected events, so a hot RNG cannot
  /// grind a campaign through its whole retry budget.  Deterministic
  /// triggers are exempt (they fire exactly once per shard by design).
  int max_events = 64;
};

struct ChaosStats {
  int kills = 0;    ///< SIGKILLs injected
  int stalls = 0;   ///< SIGSTOPs injected
  int resumes = 0;  ///< SIGCONTs injected
};

/// Seeded decision engine, queried once per supervision tick per live
/// worker.  All randomness flows from one wsp::Rng, so a chaos schedule is
/// reproducible given the same seed and the same query sequence; the
/// query sequence itself is wall-clock dependent, which is exactly the
/// point — the *output* of the campaign must be invariant anyway.
class ChaosEngine {
 public:
  explicit ChaosEngine(const FleetChaosOptions& options)
      : options_(options), rng_(options.seed) {}

  /// Decision for one worker: `stalled_for_s` is how long it has been
  /// SIGSTOPped (0 when running).  The dispatcher applies the signal.
  ChaosAction decide(int shard, int attempt, std::uint64_t completed,
                     bool stalled, double stalled_for_s);

  const ChaosStats& stats() const { return stats_; }

 private:
  FleetChaosOptions options_;
  Rng rng_;
  ChaosStats stats_;
  int events_ = 0;
  std::set<int> deterministically_killed_;
  std::set<int> deterministically_stalled_;
};

}  // namespace wsp::fleet
