#include "wsp/fleet/worker.hpp"

#include <csignal>
#include <cstdio>
#include <utility>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/error.hpp"

namespace wsp::fleet {

std::vector<std::string> worker_argv(const WorkerShardArgs& args) {
  std::vector<std::string> argv = {
      "--shard",     std::to_string(args.shard),
      "--attempt",   std::to_string(args.attempt),
      "--first",     std::to_string(args.first),
      "--count",     std::to_string(args.count),
      "--total",     std::to_string(args.total_trials),
      "--out",       args.out,
      "--ckpt",      args.ckpt,
      "--heartbeat", args.heartbeat,
  };
  if (args.duplicate) argv.push_back("--duplicate");
  if (args.pause_after > 0)
    argv.insert(argv.end(), {"--pause-after", std::to_string(args.pause_after)});
  return argv;
}

WorkerShardArgs parse_worker_argv(const std::vector<std::string>& argv) {
  WorkerShardArgs args;
  bool have_count = false, have_total = false, have_out = false;
  const auto to_int = [](const std::string& flag, const std::string& text) {
    std::size_t used = 0;
    int v = 0;
    try {
      v = std::stoi(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    require(used == text.size() && !text.empty(),
            "worker argv: " + flag + " wants an integer, got '" + text + "'");
    return v;
  };
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    if (arg == "--duplicate") {
      args.duplicate = true;
      continue;
    }
    require(i + 1 < argv.size(), "worker argv: " + arg + " wants a value");
    const std::string& value = argv[++i];
    if (arg == "--shard") args.shard = to_int(arg, value);
    else if (arg == "--attempt") args.attempt = to_int(arg, value);
    else if (arg == "--first") args.first = to_int(arg, value);
    else if (arg == "--count") { args.count = to_int(arg, value); have_count = true; }
    else if (arg == "--total") { args.total_trials = to_int(arg, value); have_total = true; }
    else if (arg == "--out") { args.out = value; have_out = true; }
    else if (arg == "--ckpt") args.ckpt = value;
    else if (arg == "--heartbeat") args.heartbeat = value;
    else if (arg == "--pause-after") args.pause_after = to_int(arg, value);
    else throw Error("worker argv: unknown flag " + arg);
  }
  require(have_count && have_total && have_out,
          "worker argv: --count, --total and --out are required");
  require(!args.ckpt.empty() && !args.heartbeat.empty(),
          "worker argv: --ckpt and --heartbeat are required");
  return args;
}

int run_worker(const resilience::DegradationCampaign& campaign,
               const WorkerShardArgs& args) {
  try {
    require(args.count >= 1 && args.first >= 0 &&
                args.first + args.count <= args.total_trials,
            "worker shard range is malformed");
    // Beacon sequence: strictly increasing within this attempt, so the
    // dispatcher sees progress even across a resume that loads every trial
    // from the snapshot without running anything new.
    std::uint64_t sequence = 0;
    const auto beat = [&](std::uint64_t completed) {
      ckpt::save_heartbeat(args.heartbeat,
                           {static_cast<std::uint32_t>(args.shard),
                            static_cast<std::uint32_t>(args.attempt),
                            completed, sequence++});
    };
    beat(0);  // alive before the first (possibly long) trial

    resilience::CampaignCheckpointOptions ck;
    ck.path = args.ckpt;
    ck.every_trials = 1;
    ck.flush_on_sigterm = true;
    ck.after_checkpoint = [&](int completed) {
      beat(static_cast<std::uint64_t>(completed));
      if (completed == args.pause_after) std::raise(SIGSTOP);
    };
    std::vector<resilience::DegradationReport> reports =
        campaign.run_trial_range_checkpointed(args.first, args.count,
                                              args.total_trials, ck);
    resilience::save_campaign_reports(
        args.out, {campaign.options_fingerprint(), args.total_trials,
                   args.first, std::move(reports)});
    return kWorkerExitOk;
  } catch (const resilience::CampaignPreempted&) {
    return kWorkerExitPreempted;  // snapshot flushed; dispatcher resumes us
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet worker shard %d attempt %d: %s\n", args.shard,
                 args.attempt, e.what());
    return kWorkerExitError;
  }
}

}  // namespace wsp::fleet
