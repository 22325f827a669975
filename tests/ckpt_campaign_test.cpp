// Crash-safe Monte Carlo campaigns: kill-and-resume, sharding, and the
// campaign-identity fingerprint.
//
// The integration half of the checkpoint story.  A child process runs a
// checkpointed campaign and SIGKILLs itself from the after_checkpoint
// hook — no destructors, no flushing, the hard-crash case — and the
// parent resumes from the surviving snapshot.  The resumed report vector
// and the RunReport JSON built from it must be *byte-identical* to an
// uninterrupted run, at thread counts 1, 2 and 8.  Shard partials merged
// across trial ranges must reproduce the single-process reports the same
// way.  The typed-error paths keep resumption honest: a snapshot from a
// different campaign (fingerprint), a corrupt file, or shard partials
// that gap/overlap are all loud ckpt::Error, never a silent cold start.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "field_walk.hpp"
#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/obs/report.hpp"
#include "wsp/resilience/campaign.hpp"

namespace wsp {
namespace {

using resilience::CampaignCheckpointOptions;
using resilience::CampaignOptions;
using resilience::CampaignReportsFile;
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

// The deterministic JSON artifact a campaign run emits — what the resumed
// run must reproduce byte for byte.
std::string runreport_json(const std::vector<DegradationReport>& reports) {
  obs::MetricsRegistry registry;
  resilience::publish_metrics(reports, registry);
  obs::RunReport report("ckpt_campaign_test");
  const resilience::CampaignSummary s = resilience::summarize(reports);
  report.add_scalar("summary", "mean_final_usable_fraction",
                    s.mean_final_usable_fraction);
  report.add_scalar("summary", "mean_pair_reachability_pct",
                    s.mean_pair_reachability_pct);
  report.add_metrics("campaign", registry);
  return report.to_json();
}

class TempFile {
 public:
  explicit TempFile(const char* name) : path_(name) {}
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(CampaignCkpt, KillAndResumeByteIdenticalAcrossThreadCounts) {
  const int kTrials = 4;
  const int kKillAfter = 2;
  const DegradationCampaign campaign(small_campaign());
  const TempFile ckpt_file("CKPT_campaign_kill_test.wsp");

  // Child: run checkpointed, SIGKILL self the instant the second trial's
  // snapshot has been renamed into place.  raise(SIGKILL) cannot be
  // caught or cleaned up after — the checkpoint on disk is all that
  // survives.
  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    CampaignCheckpointOptions ck;
    ck.path = ckpt_file.path();
    ck.every_trials = 1;
    ck.after_checkpoint = [&](int completed) {
      if (completed >= kKillAfter) raise(SIGKILL);
    };
    campaign.run_trials_checkpointed(kTrials, ck);
    _exit(0);  // not reached
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child should die by signal";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The surviving snapshot holds exactly the killed-at point.
  const std::vector<std::uint8_t> snapshot = ckpt::read_file(ckpt_file.path());
  const CampaignReportsFile partial =
      resilience::load_campaign_reports(ckpt_file.path());
  EXPECT_EQ(partial.fingerprint, campaign.options_fingerprint());
  EXPECT_EQ(static_cast<int>(partial.reports.size()), kKillAfter);

  // Uninterrupted reference, then resume from the same snapshot at every
  // thread count; reports and the emitted JSON must match byte for byte.
  const std::vector<DegradationReport> reference =
      campaign.run_trials(kTrials);
  const std::vector<std::uint8_t> reference_bytes = report_bytes(reference);
  const std::string reference_json = runreport_json(reference);
  for (const int threads : {1, 2, 8}) {
    exec::set_shared_threads(threads);
    ckpt::atomic_write_file(ckpt_file.path(), snapshot.data(),
                            snapshot.size());
    CampaignCheckpointOptions ck;
    ck.path = ckpt_file.path();
    int resumed_trials = 0;
    ck.after_checkpoint = [&](int) { ++resumed_trials; };
    const std::vector<DegradationReport> resumed =
        campaign.run_trials_checkpointed(kTrials, ck);
    EXPECT_EQ(resumed_trials, kTrials - kKillAfter)
        << "only the missing trials re-run";
    EXPECT_EQ(report_bytes(resumed), reference_bytes)
        << "threads=" << threads;
    EXPECT_EQ(runreport_json(resumed), reference_json)
        << "threads=" << threads;
  }
  exec::set_shared_threads(0);
}

TEST(CampaignCkpt, CompletedCheckpointLoadsWithoutRecompute) {
  const DegradationCampaign campaign(small_campaign());
  const TempFile ckpt_file("CKPT_campaign_done_test.wsp");
  CampaignCheckpointOptions ck;
  ck.path = ckpt_file.path();
  const std::vector<DegradationReport> first =
      campaign.run_trials_checkpointed(2, ck);

  int checkpoints = 0;
  ck.after_checkpoint = [&](int) { ++checkpoints; };
  const std::vector<DegradationReport> second =
      campaign.run_trials_checkpointed(2, ck);
  EXPECT_EQ(checkpoints, 0) << "nothing left to run, nothing to snapshot";
  EXPECT_EQ(report_bytes(second), report_bytes(first));
}

TEST(CampaignCkpt, EveryTrialsBatchesCheckpoints) {
  const DegradationCampaign campaign(small_campaign());
  const TempFile ckpt_file("CKPT_campaign_batch_test.wsp");
  CampaignCheckpointOptions ck;
  ck.path = ckpt_file.path();
  ck.every_trials = 2;
  std::vector<int> completions;
  ck.after_checkpoint = [&](int completed) { completions.push_back(completed); };
  campaign.run_trials_checkpointed(5, ck);
  EXPECT_EQ(completions, (std::vector<int>{2, 4, 5}));
}

TEST(CampaignCkpt, ForeignFingerprintRefusesToResume) {
  const TempFile ckpt_file("CKPT_campaign_foreign_test.wsp");
  const DegradationCampaign original(small_campaign());
  CampaignCheckpointOptions ck;
  ck.path = ckpt_file.path();
  original.run_trials_checkpointed(2, ck);

  CampaignOptions other_options = small_campaign();
  other_options.injection_rate = 0.03;  // behaviourally different campaign
  const DegradationCampaign other(other_options);
  try {
    other.run_trials_checkpointed(2, ck);
    FAIL() << "expected ckpt::Error";
  } catch (const ckpt::Error& e) {
    EXPECT_EQ(e.kind(), ckpt::ErrorKind::SchemaMismatch);
  }
}

TEST(CampaignCkpt, CorruptCheckpointStaysLoud) {
  const TempFile ckpt_file("CKPT_campaign_corrupt_test.wsp");
  const DegradationCampaign campaign(small_campaign());
  CampaignCheckpointOptions ck;
  ck.path = ckpt_file.path();
  campaign.run_trials_checkpointed(2, ck);

  std::vector<std::uint8_t> bytes = ckpt::read_file(ckpt_file.path());
  bytes[bytes.size() / 2] ^= 0x10;  // flip one payload bit
  ckpt::atomic_write_file(ckpt_file.path(), bytes.data(), bytes.size());
  // Corruption must propagate as a typed error, never be mistaken for a
  // missing file and silently recomputed from scratch.
  EXPECT_THROW(campaign.run_trials_checkpointed(2, ck), ckpt::Error);
}

TEST(CampaignCkpt, ShardsMergeToSingleProcessBytes) {
  const DegradationCampaign campaign(small_campaign());
  const std::uint32_t fp = campaign.options_fingerprint();
  const int kTrials = 5;
  const std::vector<DegradationReport> reference =
      campaign.run_trials(kTrials);

  // Three shard partials covering [0,2) [2,4) [4,5), merged out of order.
  std::vector<CampaignReportsFile> shards;
  shards.push_back({fp, kTrials, 4, campaign.run_trial_range(4, 1)});
  shards.push_back({fp, kTrials, 0, campaign.run_trial_range(0, 2)});
  shards.push_back({fp, kTrials, 2, campaign.run_trial_range(2, 2)});
  const std::vector<DegradationReport> merged =
      resilience::merge_campaign_reports(std::move(shards), fp);
  EXPECT_EQ(report_bytes(merged), report_bytes(reference));
  EXPECT_EQ(runreport_json(merged), runreport_json(reference));
}

TEST(CampaignCkpt, ShardFileRoundTripsThroughDisk) {
  const DegradationCampaign campaign(small_campaign());
  const std::uint32_t fp = campaign.options_fingerprint();
  const TempFile shard_file("CKPT_campaign_shard_test.wsp");

  CampaignReportsFile shard{fp, 4, 1, campaign.run_trial_range(1, 2)};
  const std::vector<std::uint8_t> bytes = report_bytes(shard.reports);
  resilience::save_campaign_reports(shard_file.path(), shard);
  const CampaignReportsFile loaded =
      resilience::load_campaign_reports(shard_file.path());
  EXPECT_EQ(loaded.fingerprint, fp);
  EXPECT_EQ(loaded.total_trials, 4);
  EXPECT_EQ(loaded.first_trial, 1);
  EXPECT_EQ(report_bytes(loaded.reports), bytes);
}

TEST(CampaignCkpt, MergeRejectsGapsOverlapsAndForeignShards) {
  const DegradationCampaign campaign(small_campaign());
  const std::uint32_t fp = campaign.options_fingerprint();
  const std::vector<DegradationReport> trials = campaign.run_trials(3);
  const auto slice = [&](int first, int count) {
    return std::vector<DegradationReport>(trials.begin() + first,
                                          trials.begin() + first + count);
  };
  const auto expect_schema_mismatch =
      [&](std::vector<CampaignReportsFile> shards) {
        try {
          resilience::merge_campaign_reports(std::move(shards), fp);
          ADD_FAILURE() << "expected ckpt::Error";
        } catch (const ckpt::Error& e) {
          EXPECT_EQ(e.kind(), ckpt::ErrorKind::SchemaMismatch);
        }
      };

  // Gap: trial 1 missing.
  expect_schema_mismatch({{fp, 3, 0, slice(0, 1)}, {fp, 3, 2, slice(2, 1)}});
  // Overlap: trial 1 delivered twice.
  expect_schema_mismatch({{fp, 3, 0, slice(0, 2)}, {fp, 3, 1, slice(1, 2)}});
  // Foreign shard: fingerprint from some other campaign.
  expect_schema_mismatch({{fp, 3, 0, slice(0, 2)}, {fp ^ 1, 3, 2, slice(2, 1)}});
  // Disagreement on the campaign size.
  expect_schema_mismatch({{fp, 3, 0, slice(0, 2)}, {fp, 4, 2, slice(2, 1)}});
  // The valid tiling still merges.
  const std::vector<DegradationReport> ok = resilience::merge_campaign_reports(
      {{fp, 3, 0, slice(0, 2)}, {fp, 3, 2, slice(2, 1)}}, fp);
  EXPECT_EQ(report_bytes(ok), report_bytes(trials));
}

TEST(CampaignCkpt, MergeErrorsNameTheOffendingShard) {
  const DegradationCampaign campaign(small_campaign());
  const std::uint32_t fp = campaign.options_fingerprint();
  const std::vector<DegradationReport> trials = campaign.run_trials(4);
  const auto slice = [&](int first, int count) {
    return std::vector<DegradationReport>(trials.begin() + first,
                                          trials.begin() + first + count);
  };
  // With dozens of partial files on the floor, "merge failed" is useless;
  // every rejection must name the offending shard's trial range.
  const auto expect_message = [&](std::vector<CampaignReportsFile> shards,
                                  const std::string& needle) {
    try {
      resilience::merge_campaign_reports(std::move(shards), fp);
      ADD_FAILURE() << "expected ckpt::Error mentioning '" << needle << "'";
    } catch (const ckpt::Error& e) {
      EXPECT_EQ(e.kind(), ckpt::ErrorKind::SchemaMismatch);
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual message: " << e.what();
    }
  };

  // Overlap: shard [1,3) arrives after [0,2) already delivered trial 1.
  expect_message({{fp, 4, 0, slice(0, 2)}, {fp, 4, 1, slice(1, 2)},
                  {fp, 4, 3, slice(3, 1)}},
                 "shard trials [1, 3) overlaps");
  // Duplicate: the same shard file merged twice.
  expect_message({{fp, 4, 0, slice(0, 2)}, {fp, 4, 0, slice(0, 2)},
                  {fp, 4, 2, slice(2, 2)}},
                 "duplicate shard trials [0, 2)");
  // Gap: nobody delivered trial 2.
  expect_message({{fp, 4, 0, slice(0, 2)}, {fp, 4, 3, slice(3, 1)}},
                 "gap before shard trials [3, 4): trials [2, 3) missing");
  // Foreign fingerprint: the shard that disagrees is named, not the merge.
  expect_message({{fp, 4, 0, slice(0, 2)}, {fp ^ 1, 4, 2, slice(2, 2)}},
                 "shard trials [2, 4) belongs to a different campaign");
  // Tail missing: the coverage summary says how far the tiling got.
  expect_message({{fp, 4, 0, slice(0, 2)}}, "trials [0, 2) of 4");
}

TEST(CampaignCkpt, FingerprintTracksBehaviouralOptionsOnly) {
  const DegradationCampaign a(small_campaign());
  const DegradationCampaign b(small_campaign());
  EXPECT_EQ(a.options_fingerprint(), b.options_fingerprint())
      << "identical options, identical identity";
  // Pinned: a checkpoint written by an earlier build must keep resuming.
  // (Last moved when the PDN load-model enum left WaferPdnOptions.)
  EXPECT_EQ(a.options_fingerprint(), 0x70ad4f97u)
      << "actual 0x" << std::hex << a.options_fingerprint();

  CampaignOptions changed = small_campaign();
  changed.injection_rate = 0.021;
  EXPECT_NE(DegradationCampaign(changed).options_fingerprint(),
            a.options_fingerprint());

  CampaignOptions reseeded = small_campaign();
  reseeded.seed = 12;
  EXPECT_NE(DegradationCampaign(reseeded).options_fingerprint(),
            a.options_fingerprint());

  // Pinned with an explicit schedule, a generator vector and a non-default
  // workload class, so the optional, vector and enum encodings stay fixed.
  CampaignOptions rich = small_campaign();
  rich.schedule = resilience::FaultSchedule{};
  rich.clock_generators = {{1, 2}, {3, 4}};
  rich.workload.cls = workloads::WorkloadClass::SpikingBurst;
  EXPECT_EQ(DegradationCampaign(rich).options_fingerprint(), 0x4448a9b0u)
      << "actual 0x" << std::hex
      << DegradationCampaign(rich).options_fingerprint();
}

TEST(CampaignCkpt, FingerprintCoversEveryOptionLeaf) {
  // A snapshot or shard written under one option set must not resume or
  // merge under another: perturbing any single leaf that fields() reaches
  // has to move the fingerprint.  The CRC is taken directly, so
  // SystemConfig::validate never sees the perturbed configs.
  const auto crc_of = [](const CampaignOptions& o) {
    ckpt::Writer w;
    ckpt::save_fields(w, o);
    return ckpt::crc32(w.bytes().data(), w.size());
  };
  const CampaignOptions base = small_campaign();
  const std::uint32_t want = crc_of(base);
  EXPECT_EQ(want, DegradationCampaign(base).options_fingerprint());
  const std::size_t leaves = for_each_perturbed_leaf(
      base, [&](const CampaignOptions& o, std::size_t leaf) {
        EXPECT_NE(crc_of(o), want) << "leaf " << leaf;
      });
  EXPECT_GT(leaves, 100u);
}

TEST(CampaignCkpt, ReportSerialisationRoundTripsEverySummaryInput) {
  CampaignOptions options = small_campaign();
  options.noc.mesh.integrity.enabled = true;  // exercise retirement fields
  options.mix.link_ber_degradations = 2;
  const DegradationCampaign campaign(options);
  const std::vector<DegradationReport> reports = campaign.run_trials(2);

  ckpt::Writer w;
  for (const DegradationReport& r : reports) resilience::save_report(w, r);
  ckpt::Reader r(w.bytes());
  std::vector<DegradationReport> loaded;
  for (std::size_t i = 0; i < reports.size(); ++i)
    loaded.push_back(resilience::load_report(r));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(report_bytes(loaded), report_bytes(reports));
  EXPECT_EQ(runreport_json(loaded), runreport_json(reports));
}

}  // namespace
}  // namespace wsp
