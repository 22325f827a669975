// campaign-32: a degradation campaign on the 32x32 wafer, run through
// DegradationCampaign::run_trials_checkpointed (a CAMP snapshot after every
// 2 trials) with the exec pool at 2 threads, followed by
// load_campaign_reports, summarize and publish_metrics.  Fixed per-trial
// costs dominate: the post-burst bring-up and the all-pairs reachability
// census.  Cycle stepping is minor and the trials run in parallel.
//
// The traced run recomposes the checkpointed runner from run_trial_range
// batches and save/load_campaign_reports, then times each trial serially
// and replays its bring-up and census on the post-burst tile map.
#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "ledger.hpp"
#include "wsp/arch/bringup.hpp"
#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/resilience/campaign.hpp"

namespace perfbench {
namespace {

using namespace wsp;
using resilience::DegradationReport;

constexpr int kTrials = 4;
constexpr int kEveryTrials = 2;
constexpr int kThreads = 2;

resilience::CampaignOptions campaign_options(std::uint64_t seed) {
  resilience::CampaignOptions o;
  o.config = SystemConfig::reduced(32, 32);
  o.seed = seed;
  o.run_cycles = 1200;
  o.fault_horizon = 800;
  o.injection_rate = 0.01;
  o.mix.tile_deaths = 4;
  o.mix.link_failures = 2;
  o.mix.ldo_brownouts = 1;
  o.mix.packet_corruptions = 0;
  o.noc.mesh.integrity.enabled = true;
  o.cosim_epoch_cycles = 64;
  return o;
}

std::vector<std::uint8_t> report_bytes(const DegradationReport& r) {
  ckpt::Writer w;
  resilience::save_report(w, r);
  return w.bytes();
}

std::uint32_t report_fingerprint(const DegradationReport& r) {
  const std::vector<std::uint8_t> b = report_bytes(r);
  return ckpt::crc32(b.data(), b.size());
}

bool same_reports(const std::vector<DegradationReport>& a,
                  const std::vector<DegradationReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (report_bytes(a[i]) != report_bytes(b[i])) return false;
  return true;
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

/// Constructing a campaign and computing its identity (the fingerprint a
/// CAMP snapshot is checked against) takes microseconds, so one set-up
/// sample times a batch lasting at least 2 ms and reports the mean.
/// `identity` receives the fingerprint.
double setup_sample_s(const resilience::CampaignOptions& o,
                      std::uint32_t& identity) {
  const Clock::time_point t0 = Clock::now();
  int n = 0;
  do {
    const resilience::DegradationCampaign campaign(o);
    identity = campaign.options_fingerprint();
    ++n;
  } while (ms_since(t0) < 2.0);
  return ms_since(t0) / 1e3 / n;
}

/// A trial's post-burst tile map, rebuilt from its tile-death notices.
/// Clock orphans and undervolted collateral are not in the notices, so the
/// replay map can hold a few more healthy tiles than the trial's own.
FaultMap post_burst_map(const TileGrid& grid, const DegradationReport& r) {
  FaultMap m(grid);
  for (const resilience::EventOutcome& e : r.events)
    if (e.notice.kind == RuntimeFaultKind::TileDeath)
      m.set_faulty(e.notice.tile);
  return m;
}

}  // namespace

void run_campaign(const RunArgs& args, Ledger& out) {
  const resilience::CampaignOptions o = campaign_options(args.seed);
  const std::string snapshot = args.scratch_dir + "/campaign.camp";
  const TileGrid grid = o.config.grid();
  const double tiles = static_cast<double>(grid.tile_count());
  out.set("threads", kThreads);

  // Per-trial report fingerprints of the first repetition; every later
  // run of trial t, in any phase, must reproduce them.
  std::vector<std::uint32_t> trial_fps;
  const auto fingerprints_repeat =
      [&](const std::vector<DegradationReport>& reports, std::size_t first) {
        if (trial_fps.empty())
          for (const DegradationReport& r : reports)
            trial_fps.push_back(report_fingerprint(r));
        for (std::size_t i = 0; i < reports.size(); ++i)
          if (first + i >= trial_fps.size() ||
              report_fingerprint(reports[i]) != trial_fps[first + i])
            return false;
        return true;
      };

  const auto untraced = [&](int) {
    std::uint32_t identity = 0;
    for (int i = 0; i < 3; ++i)
      out.sample("setup_s", setup_sample_s(o, identity));
    const resilience::DegradationCampaign campaign(o);
    std::filesystem::remove(snapshot);
    resilience::CampaignCheckpointOptions ck;
    ck.path = snapshot;
    ck.every_trials = kEveryTrials;
    Clock::time_point last = Clock::now();
    const Clock::time_point t0 = last;
    ck.after_checkpoint = [&](int) {
      const Clock::time_point now = Clock::now();
      out.sample("epoch_ms", ms_between(last, now));
      last = now;
    };
    const std::vector<DegradationReport> reports =
        campaign.run_trials_checkpointed(kTrials, ck);
    const resilience::CampaignReportsFile file =
        resilience::load_campaign_reports(snapshot);
    const resilience::CampaignSummary summary = resilience::summarize(reports);
    obs::MetricsRegistry registry;
    resilience::publish_metrics(reports, registry);
    const double wall_ms = ms_since(t0);
    out.sample("wall_s", wall_ms / 1e3);
    out.sample("untraced_wall_ms", wall_ms);
    out.sample("epochs_per_rep", (kTrials + kEveryTrials - 1) / kEveryTrials);

    out.check("campaign.camp_reload_equals_reports",
              same_reports(file.reports, reports));
    out.check("campaign.camp_fingerprint",
              file.fingerprint == identity &&
                  identity == campaign.options_fingerprint());
    out.check("campaign.trial_fingerprints_repeat",
              fingerprints_repeat(reports, 0));
    double cycles = 0.0;
    for (const DegradationReport& r : reports)
      cycles += static_cast<double>(r.total_cycles);
    out.set("tile_cycles", tiles * cycles);
    out.set("sim_usable_frac", summary.mean_final_usable_fraction);
    out.set("sim_p99_cycles",
            static_cast<double>(
                registry.histogram("campaign.recovery_cycles").percentile(0.99)));
  };

  // run_trials_checkpointed recomposed: parallel trial batches, a CAMP
  // snapshot after each, then reload, summarize and publish.
  const auto traced = [&](int) {
    const resilience::DegradationCampaign campaign(o);
    const std::uint32_t identity = campaign.options_fingerprint();
    double trials_ms = 0.0, save_ms = 0.0, load_ms = 0.0, publish_ms = 0.0;
    std::vector<DegradationReport> reports;
    const Clock::time_point t0 = Clock::now();
    while (reports.size() < static_cast<std::size_t>(kTrials)) {
      const int done = static_cast<int>(reports.size());
      std::vector<DegradationReport> batch;
      {
        const Span s(trials_ms);
        batch = campaign.run_trial_range(
            done, std::min(kEveryTrials, kTrials - done));
      }
      for (DegradationReport& r : batch) reports.push_back(std::move(r));
      const Span s(save_ms);
      resilience::save_campaign_reports(snapshot,
                                        {identity, kTrials, 0, reports});
    }
    resilience::CampaignReportsFile file;
    {
      const Span s(load_ms);
      file = resilience::load_campaign_reports(snapshot);
    }
    obs::MetricsRegistry registry;
    {
      const Span s(publish_ms);
      (void)resilience::summarize(reports);
      resilience::publish_metrics(reports, registry);
    }
    const double wall_ms = ms_since(t0);
    out.check("campaign.traced_camp_reload_equals_reports",
              same_reports(file.reports, reports));
    out.check("campaign.traced_trial_fingerprints_repeat",
              fingerprints_repeat(reports, 0));
    out.sample("traced_wall_ms", wall_ms);
    out.sample("traced_covered_ms", trials_ms + save_ms + load_ms + publish_ms);
    out.sample("layer:resilience.trials_ms", trials_ms);
    out.sample("layer:ckpt.camp_save_ms", save_ms);
    out.sample("layer:ckpt.camp_load_ms", load_ms);
    out.sample("layer:obs.publish_ms", publish_ms);
    out.set("value:ckpt.camp_bytes", file_bytes(snapshot));

    double events = 0.0, recovered = 0.0, issued = 0.0, lost = 0.0;
    double timeouts = 0.0, retries = 0.0;
    for (const DegradationReport& r : reports) {
      events += static_cast<double>(r.events.size());
      for (const resilience::EventOutcome& e : r.events)
        recovered += e.recovered ? 1.0 : 0.0;
      issued += static_cast<double>(r.noc_stats.issued);
      lost += static_cast<double>(r.noc_stats.lost);
      timeouts += static_cast<double>(r.noc_stats.timeouts);
      retries += static_cast<double>(r.noc_stats.retries);
    }
    out.set("value:resilience.events", events);
    out.set("value:resilience.recovered_frac",
            events > 0.0 ? recovered / events : 0.0);
    out.set("value:noc.timeouts", timeouts);
    out.set("value:noc.retries", retries);
    out.set("value:noc.lost_frac", issued > 0.0 ? lost / issued : 0.0);
  };

  // Each trial alone at 1 thread, then its bring-up and census replayed.
  const auto per_trial = [&] {
    exec::set_shared_threads(1);
    const resilience::DegradationCampaign campaign(o);
    double bringup_ms = 0.0, census_ms = 0.0;
    bool repeat = true;
    for (int t = 0; t < kTrials; ++t) {
      const Clock::time_point a = Clock::now();
      const std::vector<DegradationReport> r = campaign.run_trial_range(t, 1);
      out.sample("calls:resilience.trial_ms", ms_since(a));
      repeat = fingerprints_repeat(r, static_cast<std::size_t>(t)) && repeat;

      const FaultMap post = post_burst_map(grid, r.front());
      arch::BringupOptions bopt;
      grid.for_each([&](TileCoord c) {
        if (bopt.clock_generators.empty() && grid.is_edge(c) &&
            post.is_healthy(c))
          bopt.clock_generators.push_back(c);
      });
      {
        const Span s(bringup_ms);
        (void)arch::run_bringup(o.config, post, bopt);
      }
      const Span s(census_ms);
      const noc::NetworkSelector selector(post);
      const std::vector<TileCoord> survivors = post.healthy_tiles();
      for (std::size_t i = 0; i < survivors.size(); ++i)
        for (std::size_t j = 0; j < survivors.size(); ++j)
          if (i != j) (void)selector.plan(survivors[i], survivors[j]);
    }
    out.check("campaign.serial_trial_fingerprints_repeat", repeat);
    out.sample("layer:arch.bringup_ms", bringup_ms);
    out.sample("layer:noc.census_ms", census_ms);
    exec::set_shared_threads(kThreads);
  };

  exec::set_shared_threads(kThreads);
  if (!args.trace) {
    repeat_for(args.seconds, 2, untraced);
    return;
  }
  repeat_for(args.seconds / 2.0, 1, untraced);
  repeat_for(args.seconds / 2.0, 1, traced);
  per_trial();
}

}  // namespace perfbench
