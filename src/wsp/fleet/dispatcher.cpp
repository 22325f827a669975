#include "wsp/fleet/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/error.hpp"

namespace wsp::fleet {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One live worker process under supervision.
struct LiveWorker {
  pid_t pid = -1;
  int shard = 0;
  int attempt = 1;
  bool duplicate = false;
  WorkerShardArgs args;
  Clock::time_point started;
  Clock::time_point last_progress;  ///< last heartbeat advance (or spawn)
  bool beat_seen = false;
  std::uint64_t last_sequence = 0;
  std::uint64_t completed = 0;  ///< trials per the latest heartbeat
  bool stalled = false;         ///< chaos SIGSTOP outstanding
  Clock::time_point stall_started;
  bool term_sent = false;  ///< escalation started
  Clock::time_point term_time;
  bool hard_killed = false;  ///< SIGKILL escalation delivered
};

enum class ShardState { Pending, Running, Completed, Quarantined };

/// Supervision bookkeeping for one shard.
struct ShardCtl {
  ShardSpec spec;
  ShardState state = ShardState::Pending;
  Clock::time_point eligible_at;  ///< backoff gate for the next launch
  int attempts = 0;               ///< primary attempts launched
  int kills = 0;                  ///< SIGKILL escalations on this shard
  bool duplicate_used = false;    ///< one straggler re-issue max
  bool straggler_reissued = false;
  bool duplicate_won = false;
  std::string winner_out;           ///< CAMP path of the first finisher
  resilience::CampaignReportsFile result;  ///< loaded winning partial
  int live_copies = 0;
};

}  // namespace

double backoff_delay_s(const FleetOptions& options, int attempt) {
  if (attempt <= 1) return 0.0;
  double delay = options.backoff_base_s;
  for (int i = 2; i < attempt; ++i) delay *= 2.0;
  return std::min(delay, options.backoff_cap_s);
}

FleetDispatcher::FleetDispatcher(const resilience::DegradationCampaign& campaign,
                                 const FleetOptions& options)
    : campaign_(campaign), options_(options) {
  require(options_.trials >= 1, "fleet needs at least one trial");
  require(options_.shards >= 0, "shard count must be non-negative");
  require(options_.shards > 0 || options_.trials_per_shard >= 1,
          "trials_per_shard must be >= 1 when shards is derived");
  require(options_.max_workers >= 1, "fleet needs at least one worker slot");
  require(options_.max_attempts >= 1, "max_attempts must be >= 1");
  require(options_.poll_interval_s > 0.0, "poll interval must be positive");
  require(options_.heartbeat_timeout_s > 0.0,
          "heartbeat timeout must be positive");
  require(options_.term_grace_s >= 0.0, "term grace must be non-negative");
  require(options_.backoff_base_s >= 0.0 && options_.backoff_cap_s >= 0.0,
          "backoff must be non-negative");
  require(!options_.work_dir.empty(), "work_dir must be set");
}

std::vector<ShardSpec> FleetDispatcher::plan() const {
  const int trials = options_.trials;
  int shards = options_.shards > 0
                   ? options_.shards
                   : (trials + options_.trials_per_shard - 1) /
                         options_.trials_per_shard;
  shards = std::min(std::max(shards, 1), trials);  // no empty shards
  std::vector<ShardSpec> plan(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    const int first = i * trials / shards;
    const int last = (i + 1) * trials / shards;
    plan[static_cast<std::size_t>(i)] = {i, first, last - first};
  }
  return plan;
}

FleetReport FleetDispatcher::run(const WorkerCommand& command) const {
  require(!command.program.empty() || command.entry,
          "WorkerCommand needs a program to exec or an in-process entry");
  const std::vector<ShardSpec> shards = plan();
  const std::uint32_t fp = campaign_.options_fingerprint();
  const Clock::time_point t0 = Clock::now();

  std::vector<ShardCtl> ctl(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    ctl[i].spec = shards[i];
    ctl[i].eligible_at = t0;
  }

  const auto shard_path = [&](int shard, bool duplicate, const char* suffix) {
    return options_.work_dir + "/fleet_shard" + std::to_string(shard) +
           (duplicate ? ".dup" : "") + suffix;
  };
  const auto make_args = [&](const ShardCtl& sc, int attempt, bool duplicate) {
    WorkerShardArgs args;
    args.shard = sc.spec.shard;
    args.attempt = attempt;
    args.first = sc.spec.first;
    args.count = sc.spec.count;
    args.total_trials = options_.trials;
    args.duplicate = duplicate;
    // A deterministic chaos trigger acts at a trial boundary: the first
    // attempt stops itself there, and decide() then kills or stalls it.
    const FleetChaosOptions& chaos = options_.chaos;
    if (chaos.enabled && attempt == 1 && !duplicate) {
      const std::uint64_t kill = chaos.first_attempt_kill_after;
      const std::uint64_t stall = chaos.first_attempt_stall_after;
      args.pause_after = static_cast<int>(
          kill > 0 && (stall == 0 || kill <= stall) ? kill : stall);
    }
    args.out = shard_path(sc.spec.shard, duplicate, ".wsp");
    args.ckpt = shard_path(sc.spec.shard, duplicate, ".ckpt");
    args.heartbeat = shard_path(sc.spec.shard, duplicate, ".hb");
    return args;
  };

  const auto spawn = [&](const WorkerShardArgs& args) -> pid_t {
    const pid_t pid = ::fork();
    require(pid >= 0, "fleet: fork failed");
    if (pid != 0) return pid;
    // --- child ---
    if (command.program.empty()) {
      int code = kWorkerExitError;
      try {
        code = command.entry(args);
      } catch (...) {
      }
      _exit(code);  // no atexit/flush: mirror a real worker process exit
    }
    std::vector<std::string> argv_text;
    argv_text.push_back(command.program);
    argv_text.insert(argv_text.end(), command.args.begin(),
                     command.args.end());
    const std::vector<std::string> tail = worker_argv(args);
    argv_text.insert(argv_text.end(), tail.begin(), tail.end());
    if (command.extra_args)
      for (const std::string& extra : command.extra_args(args.shard))
        argv_text.push_back(extra);
    std::vector<char*> argv;
    argv.reserve(argv_text.size() + 1);
    for (std::string& s : argv_text) argv.push_back(s.data());
    argv.push_back(nullptr);
    ::execv(command.program.c_str(), argv.data());
    std::perror("fleet: execv");
    _exit(127);
  };

  // Validates a finished worker's CAMP partial: wrong fingerprint, wrong
  // range, or unreadable bytes all demote "exit 0" to a failed attempt —
  // the dispatcher believes files, not exit codes.
  const auto load_valid_output = [&](const WorkerShardArgs& args,
                                     const ShardSpec& spec,
                                     resilience::CampaignReportsFile* out) {
    try {
      resilience::CampaignReportsFile file =
          resilience::load_campaign_reports(args.out);
      if (file.fingerprint != fp || file.first_trial != spec.first ||
          static_cast<int>(file.reports.size()) != spec.count ||
          file.total_trials != options_.trials)
        return false;
      *out = std::move(file);
      return true;
    } catch (const ckpt::Error&) {
      return false;
    }
  };

  std::vector<LiveWorker> live;
  int worker_kills = 0;
  int stragglers_reissued = 0;
  ChaosEngine chaos(options_.chaos);
  std::vector<double> attempt_durations;  // completed attempts (stragglers)

  // Whatever throws below, never leak worker processes.
  const auto kill_everything = [&]() noexcept {
    for (LiveWorker& w : live) {
      ::kill(w.pid, SIGCONT);
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
    }
    live.clear();
  };

  try {
    int terminal = 0;
    while (terminal < static_cast<int>(ctl.size())) {
      const Clock::time_point now = Clock::now();

      // --- 1. reap exits -------------------------------------------------
      for (std::size_t i = 0; i < live.size();) {
        int status = 0;
        const pid_t r = ::waitpid(live[i].pid, &status, WNOHANG);
        if (r == 0) {
          ++i;
          continue;
        }
        const LiveWorker w = live[i];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        ShardCtl& sc = ctl[static_cast<std::size_t>(w.shard)];
        --sc.live_copies;

        resilience::CampaignReportsFile loaded;
        const bool success = r == w.pid && WIFEXITED(status) &&
                             WEXITSTATUS(status) == kWorkerExitOk &&
                             load_valid_output(w.args, sc.spec, &loaded);
        if (success) {
          attempt_durations.push_back(seconds_between(w.started, now));
          if (sc.state == ShardState::Completed) {
            // Both copies of a re-issued shard finished: determinism says
            // their partials must match byte for byte.  A mismatch is a
            // library bug, not a worker failure — fail the whole run.
            require(ckpt::read_file(sc.winner_out) ==
                        ckpt::read_file(w.args.out),
                    "fleet: duplicate of shard " +
                        std::to_string(w.shard) +
                        " produced different bytes — determinism violation");
          } else {
            sc.state = ShardState::Completed;
            sc.winner_out = w.args.out;
            sc.result = std::move(loaded);
            sc.duplicate_won = w.duplicate;
            ++terminal;
            // A slower copy still running is now redundant; reclaim the
            // slot (bookkeeping kill, not a supervision escalation).
            for (LiveWorker& other : live)
              if (other.shard == w.shard) {
                ::kill(other.pid, SIGCONT);
                ::kill(other.pid, SIGKILL);
              }
          }
        } else if (sc.state != ShardState::Completed) {
          // Failed attempt: signal death (chaos or escalation), non-zero
          // exit, cooperative preemption, or a corrupt/missing partial.
          if (sc.live_copies > 0) {
            // The other copy is still computing the same trials; let it.
          } else if (sc.attempts < options_.max_attempts) {
            sc.state = ShardState::Pending;
            sc.eligible_at =
                now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              backoff_delay_s(options_, sc.attempts + 1)));
          } else {
            sc.state = ShardState::Quarantined;  // poison shard
            ++terminal;
          }
        }
      }

      // --- 2. heartbeat supervision, chaos, escalation -------------------
      for (LiveWorker& w : live) {
        ShardCtl& sc = ctl[static_cast<std::size_t>(w.shard)];
        if (sc.state == ShardState::Completed) continue;  // dying loser

        try {
          const ckpt::Heartbeat hb = ckpt::load_heartbeat(w.args.heartbeat);
          // Only this attempt's beacon counts: the file outlives attempts,
          // and crediting a dead attempt's last beat would mask a worker
          // that hung before its first write.
          if (hb.shard == static_cast<std::uint32_t>(w.shard) &&
              hb.attempt == static_cast<std::uint32_t>(w.attempt) &&
              (!w.beat_seen || hb.sequence > w.last_sequence)) {
            w.beat_seen = true;
            w.last_sequence = hb.sequence;
            w.completed = hb.completed;
            w.last_progress = now;
          }
        } catch (const ckpt::Error&) {
          // Not written yet (or mid-replace): spawn time anchors the clock.
        }

        if (options_.chaos.enabled && !w.term_sent) {
          const double stalled_for =
              w.stalled ? seconds_between(w.stall_started, now) : 0.0;
          switch (chaos.decide(w.shard, w.attempt, w.completed, w.stalled,
                               stalled_for)) {
            case ChaosAction::Kill:
              ::kill(w.pid, SIGKILL);
              break;
            case ChaosAction::Stall:
              ::kill(w.pid, SIGSTOP);
              w.stalled = true;
              w.stall_started = now;
              break;
            case ChaosAction::Resume:
              ::kill(w.pid, SIGCONT);
              w.stalled = false;
              break;
            case ChaosAction::None:
              break;
          }
        }

        const bool overdue =
            seconds_between(w.last_progress, now) >
                options_.heartbeat_timeout_s ||
            (options_.attempt_deadline_s > 0.0 &&
             seconds_between(w.started, now) > options_.attempt_deadline_s);
        if (overdue && !w.term_sent) {
          // SIGCONT first: a SIGSTOPped worker cannot run its flush-on-
          // SIGTERM path while frozen.  Zero grace goes straight to SIGKILL.
          if (options_.term_grace_s > 0.0) {
            ::kill(w.pid, SIGCONT);
            ::kill(w.pid, SIGTERM);
          }
          w.stalled = false;
          w.term_sent = true;
          w.term_time = now;
        }
        if (w.term_sent && !w.hard_killed &&
            seconds_between(w.term_time, now) >= options_.term_grace_s) {
          ::kill(w.pid, SIGKILL);
          w.hard_killed = true;
          ++worker_kills;
          ++sc.kills;
        }
      }

      // --- 3. launch: fill idle slots from the work queue ----------------
      while (static_cast<int>(live.size()) < options_.max_workers) {
        ShardCtl* next = nullptr;
        for (ShardCtl& sc : ctl)
          if (sc.state == ShardState::Pending && sc.eligible_at <= now &&
              (!next || sc.spec.shard < next->spec.shard))
            next = &sc;
        if (!next) break;
        ++next->attempts;
        LiveWorker w;
        w.shard = next->spec.shard;
        w.attempt = next->attempts;
        w.args = make_args(*next, next->attempts, /*duplicate=*/false);
        w.pid = spawn(w.args);
        w.started = now;
        w.last_progress = now;
        live.push_back(std::move(w));
        next->state = ShardState::Running;
        ++next->live_copies;
      }

      // --- 4. straggler re-issue -----------------------------------------
      if (options_.straggler_factor > 0.0 && !attempt_durations.empty() &&
          static_cast<int>(live.size()) < options_.max_workers) {
        bool any_pending = false;
        for (const ShardCtl& sc : ctl)
          if (sc.state == ShardState::Pending) any_pending = true;
        if (!any_pending) {
          std::vector<double> durations = attempt_durations;
          std::nth_element(durations.begin(),
                           durations.begin() +
                               static_cast<std::ptrdiff_t>(durations.size() / 2),
                           durations.end());
          const double median = durations[durations.size() / 2];
          const double threshold = std::max(
              options_.straggler_min_s, options_.straggler_factor * median);
          LiveWorker* slowest = nullptr;
          for (LiveWorker& w : live) {
            ShardCtl& sc = ctl[static_cast<std::size_t>(w.shard)];
            if (w.duplicate || sc.duplicate_used || w.term_sent ||
                sc.state != ShardState::Running)
              continue;
            if (seconds_between(w.started, now) <= threshold) continue;
            if (!slowest || w.started < slowest->started) slowest = &w;
          }
          if (slowest) {
            ShardCtl& sc = ctl[static_cast<std::size_t>(slowest->shard)];
            LiveWorker dup;
            dup.shard = sc.spec.shard;
            dup.attempt = sc.attempts;
            dup.duplicate = true;
            dup.args = make_args(sc, sc.attempts, /*duplicate=*/true);
            dup.pid = spawn(dup.args);
            dup.started = now;
            dup.last_progress = now;
            live.push_back(std::move(dup));
            sc.duplicate_used = true;
            sc.straggler_reissued = true;
            ++sc.live_copies;
            ++stragglers_reissued;
          }
        }
      }

      if (terminal < static_cast<int>(ctl.size()))
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options_.poll_interval_s));
    }
    kill_everything();  // redundant losers of completed shards, if any
  } catch (...) {
    kill_everything();
    throw;
  }

  // --- collect -------------------------------------------------------------
  FleetReport report;
  report.trials = options_.trials;
  report.shards_total = static_cast<int>(ctl.size());
  std::vector<resilience::CampaignReportsFile> files;
  for (ShardCtl& sc : ctl) {
    ShardOutcome outcome;
    outcome.shard = sc.spec.shard;
    outcome.first = sc.spec.first;
    outcome.count = sc.spec.count;
    outcome.attempts = sc.attempts;
    outcome.completed = sc.state == ShardState::Completed;
    outcome.quarantined = sc.state == ShardState::Quarantined;
    outcome.kills = sc.kills;
    outcome.straggler_reissued = sc.straggler_reissued;
    outcome.duplicate_won = sc.duplicate_won;
    report.shards.push_back(outcome);
    report.retries += std::max(0, sc.attempts - 1);
    if (outcome.completed) {
      ++report.shards_completed;
      files.push_back(std::move(sc.result));
    } else {
      ++report.shards_quarantined;
    }
  }
  report.worker_kills = worker_kills;
  report.stragglers_reissued = stragglers_reissued;
  report.chaos = chaos.stats();

  if (report.complete()) {
    // Full coverage: the strict merge validates the tiling end to end and
    // returns trials in exactly run_trials order.
    report.reports = resilience::merge_campaign_reports(std::move(files), fp);
  } else {
    // Degraded coverage: quarantined ranges are holes, so the strict merge
    // would (rightly) reject the tiling.  Completed shards are already
    // fingerprint/range-validated and non-overlapping by construction;
    // concatenate them in trial order and let the caller see the gap.
    std::sort(files.begin(), files.end(),
              [](const resilience::CampaignReportsFile& a,
                 const resilience::CampaignReportsFile& b) {
                return a.first_trial < b.first_trial;
              });
    for (resilience::CampaignReportsFile& f : files)
      for (resilience::DegradationReport& r : f.reports)
        report.reports.push_back(std::move(r));
  }
  return report;
}

void publish_fleet_metrics(const FleetReport& report,
                           obs::MetricsRegistry& registry) {
  registry.counter("fleet.shards_total")
      .add(static_cast<std::uint64_t>(report.shards_total));
  registry.counter("fleet.shards_completed")
      .add(static_cast<std::uint64_t>(report.shards_completed));
  registry.counter("fleet.shards_quarantined")
      .add(static_cast<std::uint64_t>(report.shards_quarantined));
  registry.counter("fleet.retries")
      .add(static_cast<std::uint64_t>(report.retries));
  registry.counter("fleet.worker_kills")
      .add(static_cast<std::uint64_t>(report.worker_kills));
  registry.counter("fleet.stragglers_reissued")
      .add(static_cast<std::uint64_t>(report.stragglers_reissued));
  registry.counter("fleet.chaos.kills")
      .add(static_cast<std::uint64_t>(report.chaos.kills));
  registry.counter("fleet.chaos.stalls")
      .add(static_cast<std::uint64_t>(report.chaos.stalls));
  registry.counter("fleet.chaos.resumes")
      .add(static_cast<std::uint64_t>(report.chaos.resumes));
  obs::Histogram& attempts = registry.histogram("fleet.attempts");
  int covered = 0;
  for (const ShardOutcome& s : report.shards) {
    attempts.record(static_cast<std::uint64_t>(s.attempts));
    if (s.completed) covered += s.count;
  }
  registry.gauge("fleet.coverage_pct")
      .set(report.trials > 0
               ? 100.0 * static_cast<double>(covered) /
                     static_cast<double>(report.trials)
               : 0.0);
}

}  // namespace wsp::fleet
