// Fault-tolerant fleet dispatch: supervision, chaos invariance, and the
// poison-shard quarantine.
//
// The acceptance property from the module contract: for any chaos
// schedule, the fleet's merged report is byte-identical to the
// undisturbed single-process campaign for every non-quarantined shard.
// These tests exercise it in-process (fork-only workers, no exec) so the
// whole supervision loop — heartbeats, SIGKILL retries, SIGSTOP
// escalation, backoff, quarantine, straggler duplication — runs under
// the sanitizers too.  The process-level exec path is covered by
// tools/fleet_chaos_gate.py driving examples/fleet_campaign.
//
// Fork safety: wsp::exec keeps no threads between calls, so the fork
// carries none.  Every dispatch test still pins the exec thread count to
// one, so each in-process child runs its shard on its calling thread.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/fleet/dispatcher.hpp"
#include "wsp/obs/metrics.hpp"
#include "wsp/resilience/campaign.hpp"

namespace wsp {
namespace {

using fleet::ChaosAction;
using fleet::ChaosEngine;
using fleet::FleetChaosOptions;
using fleet::FleetDispatcher;
using fleet::FleetOptions;
using fleet::FleetReport;
using fleet::ShardSpec;
using fleet::WorkerCommand;
using fleet::WorkerShardArgs;
using resilience::CampaignOptions;
using resilience::DegradationCampaign;
using resilience::DegradationReport;

CampaignOptions small_campaign() {
  CampaignOptions o;
  o.config = SystemConfig::reduced(8, 8);
  o.seed = 11;
  o.run_cycles = 1200;
  o.fault_horizon = 900;
  o.injection_rate = 0.02;
  return o;
}

std::vector<std::uint8_t> report_bytes(
    const std::vector<DegradationReport>& reports) {
  ckpt::Writer w;
  w.u64(reports.size());
  for (const DegradationReport& r : reports) resilience::save_report(w, r);
  return w.bytes();
}

/// Per-test scratch directory for shard snapshot/heartbeat/output files,
/// so concurrently running fleet tests cannot collide in the build cwd.
class TempDir {
 public:
  explicit TempDir(const char* name) : path_(name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Pins the exec thread count to one for a scope.
class SingleThreadScope {
 public:
  SingleThreadScope() { exec::set_shared_threads(1); }
  ~SingleThreadScope() { exec::set_shared_threads(0); }
};

FleetOptions quick_fleet(const std::string& work_dir, int trials,
                         int shards) {
  FleetOptions o;
  o.trials = trials;
  o.shards = shards;
  o.max_workers = 4;
  o.work_dir = work_dir;
  o.poll_interval_s = 0.005;
  o.heartbeat_timeout_s = 30.0;
  o.term_grace_s = 1.0;
  o.backoff_base_s = 0.01;
  o.backoff_cap_s = 0.05;
  return o;
}

WorkerCommand entry_command(const DegradationCampaign& campaign) {
  WorkerCommand command;
  command.entry = [&campaign](const WorkerShardArgs& args) {
    return fleet::run_worker(campaign, args);
  };
  return command;
}

TEST(FleetPlan, PartitionsTrialsContiguouslyAndExactly) {
  const DegradationCampaign campaign(small_campaign());
  for (const auto& [trials, shards] : std::vector<std::pair<int, int>>{
           {12, 3}, {7, 3}, {5, 8}, {1, 1}, {9, 0}}) {
    FleetOptions o = quick_fleet(".", trials, shards);
    o.trials_per_shard = 4;
    const std::vector<ShardSpec> plan = FleetDispatcher(campaign, o).plan();
    ASSERT_FALSE(plan.empty());
    int next = 0;
    int max_size = 0, min_size = trials;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(plan[i].shard, static_cast<int>(i));
      EXPECT_EQ(plan[i].first, next) << "contiguous, no gap";
      EXPECT_GE(plan[i].count, 1) << "no empty shards";
      max_size = std::max(max_size, plan[i].count);
      min_size = std::min(min_size, plan[i].count);
      next += plan[i].count;
    }
    EXPECT_EQ(next, trials) << "covers [0, trials) exactly";
    EXPECT_LE(max_size - min_size, 1) << "balanced within one trial";
    if (shards == 0)
      EXPECT_EQ(static_cast<int>(plan.size()),
                (trials + o.trials_per_shard - 1) / o.trials_per_shard);
  }
}

TEST(FleetPlan, BackoffGrowsExponentiallyAndCaps) {
  FleetOptions o;
  o.backoff_base_s = 0.1;
  o.backoff_cap_s = 0.5;
  EXPECT_DOUBLE_EQ(fleet::backoff_delay_s(o, 1), 0.0);
  EXPECT_DOUBLE_EQ(fleet::backoff_delay_s(o, 2), 0.1);
  EXPECT_DOUBLE_EQ(fleet::backoff_delay_s(o, 3), 0.2);
  EXPECT_DOUBLE_EQ(fleet::backoff_delay_s(o, 4), 0.4);
  EXPECT_DOUBLE_EQ(fleet::backoff_delay_s(o, 5), 0.5) << "capped";
  EXPECT_DOUBLE_EQ(fleet::backoff_delay_s(o, 9), 0.5) << "stays capped";
}

TEST(FleetWorker, ArgvRoundTripsAndParsesStrictly) {
  WorkerShardArgs args;
  args.shard = 3;
  args.attempt = 2;
  args.first = 8;
  args.count = 4;
  args.total_trials = 16;
  args.duplicate = true;
  args.out = "out.wsp";
  args.ckpt = "snap.wsp";
  args.heartbeat = "beat.wsp";
  const WorkerShardArgs parsed =
      fleet::parse_worker_argv(fleet::worker_argv(args));
  EXPECT_EQ(parsed.shard, args.shard);
  EXPECT_EQ(parsed.attempt, args.attempt);
  EXPECT_EQ(parsed.first, args.first);
  EXPECT_EQ(parsed.count, args.count);
  EXPECT_EQ(parsed.total_trials, args.total_trials);
  EXPECT_EQ(parsed.duplicate, args.duplicate);
  EXPECT_EQ(parsed.out, args.out);
  EXPECT_EQ(parsed.ckpt, args.ckpt);
  EXPECT_EQ(parsed.heartbeat, args.heartbeat);

  // A garbled command line must die loudly, not run the wrong trials.
  EXPECT_THROW(fleet::parse_worker_argv({"--bogus", "1"}), Error);
  EXPECT_THROW(fleet::parse_worker_argv({"--count"}), Error);
  EXPECT_THROW(fleet::parse_worker_argv({"--count", "two"}), Error);
  EXPECT_THROW(fleet::parse_worker_argv({"--count", "4", "--total", "8"}),
               Error)
      << "--out missing";
}

TEST(FleetWorker, HeartbeatRoundTripsThroughDisk) {
  const TempDir dir("FLEET_heartbeat_test");
  const std::string path = dir.path() + "/beat.wsp";
  const ckpt::Heartbeat hb{3, 2, 17, 42};
  ckpt::save_heartbeat(path, hb);
  EXPECT_EQ(ckpt::load_heartbeat(path), hb);
  EXPECT_THROW(ckpt::load_heartbeat(dir.path() + "/absent.wsp"), ckpt::Error);
}

TEST(FleetDispatch, CleanRunMatchesSingleProcessBytes) {
  const SingleThreadScope single_thread;
  const TempDir dir("FLEET_clean_test");
  const DegradationCampaign campaign(small_campaign());
  const int kTrials = 6;

  const FleetDispatcher dispatcher(campaign,
                                   quick_fleet(dir.path(), kTrials, 3));
  const FleetReport fleet = dispatcher.run(entry_command(campaign));
  EXPECT_TRUE(fleet.complete());
  EXPECT_EQ(fleet.shards_completed, 3);
  EXPECT_EQ(fleet.retries, 0);
  EXPECT_EQ(report_bytes(fleet.reports),
            report_bytes(campaign.run_trials(kTrials)));
}

TEST(FleetDispatch, ChaosKillsResumeByteIdentical) {
  const SingleThreadScope single_thread;
  const TempDir dir("FLEET_chaos_kill_test");
  const DegradationCampaign campaign(small_campaign());
  const int kTrials = 6;

  FleetOptions options = quick_fleet(dir.path(), kTrials, 3);
  options.chaos.enabled = true;
  // Every shard's first attempt is SIGKILLed after one completed trial —
  // no flush, no handler; the retry must resume from the snapshot.
  options.chaos.first_attempt_kill_after = 1;
  const FleetDispatcher dispatcher(campaign, options);
  const FleetReport fleet = dispatcher.run(entry_command(campaign));

  EXPECT_TRUE(fleet.complete()) << "kills are retryable, never quarantine";
  EXPECT_GT(fleet.retries, 0);
  EXPECT_GT(fleet.chaos.kills, 0);
  EXPECT_EQ(report_bytes(fleet.reports),
            report_bytes(campaign.run_trials(kTrials)));
}

TEST(FleetDispatch, StalledWorkerIsEscalatedAndRecovered) {
  const SingleThreadScope single_thread;
  const TempDir dir("FLEET_chaos_stall_test");
  const DegradationCampaign campaign(small_campaign());
  const int kTrials = 4;

  FleetOptions options = quick_fleet(dir.path(), kTrials, 2);
  options.chaos.enabled = true;
  // SIGSTOP each shard's first attempt mid-range and never chaos-resume:
  // the heartbeat deadline must fire and the dispatcher must escalate.
  // Zero grace makes the escalation a hard SIGKILL, so the stopped worker
  // can never slip out by finishing its in-flight trial after the SIGCONT
  // — the re-dispatch path runs deterministically.  (The cooperative
  // SIGTERM-flush path is pinned down by FleetSigterm below.)
  options.chaos.first_attempt_stall_after = 1;
  options.chaos.stall_resume_s = 0.0;
  // Generous deadline and attempt budget: under sanitizers plus a loaded
  // CI box a legitimate trial can run long, and a deadline below the
  // worst trial latency would turn healthy retries into spurious
  // escalations until the shard quarantines.
  options.heartbeat_timeout_s = 3.0;
  options.term_grace_s = 0.0;
  options.max_attempts = 6;
  const FleetDispatcher dispatcher(campaign, options);
  const FleetReport fleet = dispatcher.run(entry_command(campaign));

  EXPECT_TRUE(fleet.complete());
  EXPECT_GT(fleet.chaos.stalls, 0);
  EXPECT_GT(fleet.worker_kills, 0) << "deadline escalation reached SIGKILL";
  EXPECT_GT(fleet.retries, 0) << "escalated attempts are re-dispatched";
  EXPECT_EQ(report_bytes(fleet.reports),
            report_bytes(campaign.run_trials(kTrials)));
}

TEST(FleetDispatch, PoisonShardIsQuarantinedWithPartialCoverage) {
  const SingleThreadScope single_thread;
  const TempDir dir("FLEET_poison_test");
  const DegradationCampaign campaign(small_campaign());
  const int kTrials = 6;
  const int kPoison = 1;

  FleetOptions options = quick_fleet(dir.path(), kTrials, 3);
  options.max_attempts = 2;
  WorkerCommand command = entry_command(campaign);
  command.entry = [&campaign](const WorkerShardArgs& args) {
    if (args.shard == kPoison) return fleet::kWorkerExitError;
    return fleet::run_worker(campaign, args);
  };
  const FleetDispatcher dispatcher(campaign, options);
  const FleetReport fleet = dispatcher.run(command);

  EXPECT_FALSE(fleet.complete()) << "quarantine means partial coverage";
  EXPECT_EQ(fleet.shards_quarantined, 1);
  EXPECT_EQ(fleet.shards_completed, 2);
  ASSERT_EQ(static_cast<int>(fleet.shards.size()), 3);
  EXPECT_TRUE(fleet.shards[kPoison].quarantined);
  EXPECT_EQ(fleet.shards[kPoison].attempts, options.max_attempts)
      << "the whole retry budget was spent before giving up";

  // The merged report covers exactly the completed shards, in trial order.
  const std::vector<DegradationReport> reference =
      campaign.run_trials(kTrials);
  std::vector<DegradationReport> expected;
  for (const fleet::ShardOutcome& s : fleet.shards)
    if (s.completed)
      for (int t = s.first; t < s.first + s.count; ++t)
        expected.push_back(reference[static_cast<std::size_t>(t)]);
  EXPECT_EQ(report_bytes(fleet.reports), report_bytes(expected));

  obs::MetricsRegistry registry;
  fleet::publish_fleet_metrics(fleet, registry);
  EXPECT_EQ(registry.counter("fleet.shards_quarantined").value, 1u);
  EXPECT_EQ(registry.counter("fleet.retries").value,
            static_cast<std::uint64_t>(fleet.retries));
}

TEST(FleetDispatch, StragglerIsReissuedAndStaysByteIdentical) {
  const SingleThreadScope single_thread;
  const TempDir dir("FLEET_straggler_test");
  const DegradationCampaign campaign(small_campaign());
  const int kTrials = 6;
  const int kSlow = 2;

  FleetOptions options = quick_fleet(dir.path(), kTrials, 3);
  options.straggler_factor = 1.0;
  options.straggler_min_s = 0.15;
  WorkerCommand command;
  command.entry = [&campaign](const WorkerShardArgs& args) {
    // The primary copy of one shard dawdles; its re-issued duplicate runs
    // at full speed and should win the race.  The nap dwarfs any
    // plausible fast-shard wall time so the slow shard always crosses
    // the re-issue threshold, even on a loaded sanitizer box.
    if (args.shard == kSlow && !args.duplicate) ::usleep(1000 * 1000);
    return fleet::run_worker(campaign, args);
  };
  const FleetDispatcher dispatcher(campaign, options);
  const FleetReport fleet = dispatcher.run(command);

  EXPECT_TRUE(fleet.complete());
  // Load jitter can push a healthy shard over the threshold too, so the
  // assertion is >= — what must hold exactly is that the *slow* shard was
  // re-issued and that duplication never costs determinism or retries.
  EXPECT_GE(fleet.stragglers_reissued, 1);
  EXPECT_TRUE(fleet.shards[kSlow].straggler_reissued);
  EXPECT_EQ(fleet.retries, 0) << "duplication is not a retry";
  EXPECT_EQ(report_bytes(fleet.reports),
            report_bytes(campaign.run_trials(kTrials)));
}

TEST(FleetChaos, EngineIsDeterministicForASeedAndQuerySequence) {
  FleetChaosOptions options;
  options.enabled = true;
  options.seed = 42;
  options.kill_probability = 0.2;
  options.stall_probability = 0.2;
  ChaosEngine a(options), b(options);
  for (int tick = 0; tick < 200; ++tick)
    for (int shard = 0; shard < 3; ++shard)
      EXPECT_EQ(a.decide(shard, 1, static_cast<std::uint64_t>(tick), false,
                         0.0),
                b.decide(shard, 1, static_cast<std::uint64_t>(tick), false,
                         0.0));
  EXPECT_EQ(a.stats().kills, b.stats().kills);
  EXPECT_EQ(a.stats().stalls, b.stats().stalls);
}

TEST(FleetChaos, DeterministicTriggersFireOncePerShardFirstAttemptOnly) {
  FleetChaosOptions options;
  options.enabled = true;
  options.first_attempt_kill_after = 2;
  ChaosEngine engine(options);
  EXPECT_EQ(engine.decide(0, 1, 1, false, 0.0), ChaosAction::None)
      << "not enough completed trials yet";
  EXPECT_EQ(engine.decide(0, 1, 2, false, 0.0), ChaosAction::Kill);
  EXPECT_EQ(engine.decide(0, 1, 3, false, 0.0), ChaosAction::None)
      << "fires once per shard";
  EXPECT_EQ(engine.decide(0, 2, 3, false, 0.0), ChaosAction::None)
      << "retries are allowed to finish";
  EXPECT_EQ(engine.decide(1, 1, 2, false, 0.0), ChaosAction::Kill)
      << "independent per shard";
  EXPECT_EQ(engine.stats().kills, 2);
}

TEST(FleetSigterm, CheckpointedRunFlushesAndResumes) {
  const TempDir dir("FLEET_sigterm_test");
  const DegradationCampaign campaign(small_campaign());
  const int kTrials = 4;
  const int kPreemptAfter = 2;

  resilience::CampaignCheckpointOptions ck;
  ck.path = dir.path() + "/snap.wsp";
  ck.every_trials = 1;
  ck.flush_on_sigterm = true;
  ck.after_checkpoint = [&](int completed) {
    // Self-delivered SIGTERM: the armed handler only sets a flag; the
    // runner notices at the next trial boundary, flushes, and throws.
    if (completed == kPreemptAfter) raise(SIGTERM);
  };
  try {
    campaign.run_trials_checkpointed(kTrials, ck);
    FAIL() << "expected CampaignPreempted";
  } catch (const resilience::CampaignPreempted& e) {
    EXPECT_EQ(e.completed(), kPreemptAfter);
  }
  const resilience::CampaignReportsFile flushed =
      resilience::load_campaign_reports(ck.path);
  EXPECT_EQ(static_cast<int>(flushed.reports.size()), kPreemptAfter)
      << "the final snapshot was flushed before unwinding";

  // Resume without the preemption and finish; bytes must match the
  // uninterrupted run.
  ck.after_checkpoint = nullptr;
  const std::vector<DegradationReport> resumed =
      campaign.run_trials_checkpointed(kTrials, ck);
  EXPECT_EQ(report_bytes(resumed), report_bytes(campaign.run_trials(kTrials)));
}

}  // namespace
}  // namespace wsp
