// Workload traffic generator tests: golden delivery-trace digests per
// generator class (16x16, and 32x32 at every thread count),
// checkpoint mid-phase kill-and-resume, and the generator invariants
// (analytic phase schedules, fault avoidance, seed determinism, run-split
// composition) — plus the coupled CosimLoop running every class on the
// full 32x32 dual-network wafer.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/error.hpp"
#include "wsp/cosim/cosim.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/obs/metrics.hpp"
#include "wsp/resilience/campaign.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace wsp::workloads {
namespace {

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

const std::vector<WorkloadClass> kAllClasses = {
    WorkloadClass::Synthetic,     WorkloadClass::AllReduceRing,
    WorkloadClass::HaloExchange,  WorkloadClass::LayerPipeline,
    WorkloadClass::SpikingBurst,  WorkloadClass::GraphWave,
};

const std::vector<WorkloadClass> kDeterministicClasses = {
    WorkloadClass::AllReduceRing,
    WorkloadClass::HaloExchange,
    WorkloadClass::LayerPipeline,
    WorkloadClass::GraphWave,
};

/// One fixed spec per class, sized so a few hundred cycles exercise
/// several full phases (ring steps, halo periods, pipeline layers, burst
/// lifetimes, graph levels) on a 16x16..32x32 wafer.
WorkloadSpec spec_for(WorkloadClass cls) {
  WorkloadSpec s;
  s.cls = cls;
  s.seed = 77;
  s.synthetic.injection_rate = 0.03;
  s.allreduce.chunk_packets = 2;
  s.allreduce.step_cycles = 4;
  s.allreduce.gap_cycles = 8;
  s.allreduce.rect_x0 = 2;
  s.allreduce.rect_y0 = 2;
  s.allreduce.rect_x1 = 9;
  s.allreduce.rect_y1 = 3;
  s.halo.halo_period = 6;
  s.pipeline.stages = 4;
  s.pipeline.comm_cycles = 6;
  s.pipeline.stage_flops = 50000.0;
  s.spiking.background_rate = 0.004;
  s.spiking.burst_interval = 64;
  s.spiking.max_bursts = 4;
  s.spiking.hotspot = {8, 8};
  s.spiking.burst_radius = 2;
  s.spiking.burst_cycles = 24;
  s.spiking.burst_intensity = 0.5;
  s.graph.scale = 7;
  s.graph.edges = 1024;
  s.graph.graph_seed = 9;
  s.graph.compute_gap_cycles = 3;
  return s;
}

std::uint32_t run_digest(WorkloadClass cls, int n, std::uint64_t cycles) {
  const SystemConfig config = SystemConfig::reduced(n, n);
  const FaultMap fm(config.grid());
  noc::NocSystem noc(fm);
  auto gen = make_generator(spec_for(cls), config, fm);
  return run_workload_traffic(noc, *gen, cycles).delivery_digest;
}

// --- golden delivery-trace digests ------------------------------------------

// Regenerate after an intentional traffic/NoC behaviour change by running
// this suite and copying the "actual" values from the failure output; they
// pin the exact delivery trace (src, dst, issue, complete, relayed per
// completed transaction, in completion order) of a seeded 16x16 run.
struct GoldenDigest {
  WorkloadClass cls;
  std::uint32_t digest;
};

const GoldenDigest kGolden16x16x300[] = {
    {WorkloadClass::Synthetic, 0x18b3e904u},
    {WorkloadClass::AllReduceRing, 0xc55037c4u},
    {WorkloadClass::HaloExchange, 0x8fde92fbu},
    {WorkloadClass::LayerPipeline, 0xfae5b08cu},
    {WorkloadClass::SpikingBurst, 0x74f1d535u},
    {WorkloadClass::GraphWave, 0x3547d853u},
};

TEST(GoldenTrace, DeliveryDigestsMatchCheckedInConstants) {
  for (const GoldenDigest& g : kGolden16x16x300) {
    const std::uint32_t actual = run_digest(g.cls, 16, 300);
    EXPECT_EQ(actual, g.digest)
        << to_string(g.cls) << ": actual digest 0x" << std::hex << actual;
  }
}

// --- full-wafer goldens at every thread count ------------------------------

// Recorded with the former column-band NoC stepper (eight bands at 32x32),
// so they also pin that the serial stepper kept its cycle semantics.
const GoldenDigest kGolden32x32x192[] = {
    {WorkloadClass::Synthetic, 0x7d918a2du},
    {WorkloadClass::AllReduceRing, 0x193e5ec7u},
    {WorkloadClass::HaloExchange, 0xace65e97u},
    {WorkloadClass::LayerPipeline, 0x8377c40du},
    {WorkloadClass::SpikingBurst, 0xddbc9e85u},
    {WorkloadClass::GraphWave, 0xbbc382d0u},
};

TEST(Invariance, Golden32x32DigestsAtEveryThreadCount) {
  for (const int threads : {1, 2, 8}) {
    exec::set_shared_threads(threads);
    for (const GoldenDigest& g : kGolden32x32x192) {
      const std::uint32_t actual = run_digest(g.cls, 32, 192);
      EXPECT_EQ(actual, g.digest)
          << to_string(g.cls) << " at threads=" << threads
          << ": actual digest 0x" << std::hex << actual;
    }
  }
  exec::set_shared_threads(0);
}

// --- checkpoint kill-and-resume ---------------------------------------------

/// Emits `cycles` cycles and returns the concatenated injection stream.
std::vector<Injection> emit_stream(TrafficGenerator& gen,
                                   std::uint64_t cycles) {
  std::vector<Injection> all;
  for (std::uint64_t c = 0; c < cycles; ++c) gen.emit(all);
  return all;
}

TEST(Checkpoint, GeneratorMidPhaseRoundTripResumesBitIdentically) {
  const SystemConfig config = SystemConfig::reduced(16, 16);
  Rng fault_rng(3);
  const FaultMap faults =
      FaultMap::random_with_count(config.grid(), 8, fault_rng);
  for (const WorkloadClass cls : kAllClasses) {
    auto a = make_generator(spec_for(cls), config, faults);
    // 37 cycles ends mid-ring-step, mid-halo-wave, mid-burst and
    // mid-graph-level for the specs above — the kill lands in-phase.
    emit_stream(*a, 37);
    ckpt::Writer w;
    a->save_state(w);

    auto b = make_generator(spec_for(cls), config, faults);
    ckpt::Reader r(w.bytes());
    b->load_state(r);
    EXPECT_TRUE(r.done()) << to_string(cls);
    EXPECT_EQ(emit_stream(*a, 150), emit_stream(*b, 150))
        << to_string(cls) << ": resumed stream diverged";
  }
}

TEST(Checkpoint, LoadingAForeignClassFrameThrowsSchemaMismatch) {
  const SystemConfig config = SystemConfig::reduced(8, 8);
  const FaultMap faults(config.grid());
  auto halo = make_generator(spec_for(WorkloadClass::HaloExchange), config,
                             faults);
  ckpt::Writer w;
  halo->save_state(w);
  auto ring = make_generator(spec_for(WorkloadClass::AllReduceRing), config,
                             faults);
  ckpt::Reader r(w.bytes());
  try {
    ring->load_state(r);
    FAIL() << "foreign generator frame must not load";
  } catch (const ckpt::Error& e) {
    EXPECT_EQ(e.kind(), ckpt::ErrorKind::SchemaMismatch);
  }
}

TEST(Checkpoint, CosimMidEpochKillAndResumePerClass) {
  for (const WorkloadClass cls : kAllClasses) {
    cosim::CosimOptions o;
    o.config = SystemConfig::reduced(16, 16);
    o.seed = 11;
    o.epoch_cycles = 32;
    o.noc.mesh.integrity.enabled = true;
    o.pdn.ldo.line_regulation = 0.1;
    o.ber.floor_ber = 1e-6;
    o.ber.volts_per_decade = 0.003;
    o.workload = spec_for(cls);

    TempFile file("workload_cosim_resume.ckpt");
    cosim::CosimLoop loop(o);
    loop.run(48);  // 1.5 epochs: the kill is mid-epoch, mid-phase
    loop.save_checkpoint(file.path());
    loop.run(48);

    cosim::CosimLoop resumed(o);
    resumed.load_checkpoint(file.path());
    resumed.run(48);

    EXPECT_EQ(resumed.state_fingerprint(), loop.state_fingerprint())
        << to_string(cls);
    EXPECT_EQ(cosim::serialize_report(resumed.report()),
              cosim::serialize_report(loop.report()))
        << to_string(cls);
  }
}

// --- generator invariants ---------------------------------------------------

TEST(Invariants, InjectionCountsMatchTheAnalyticPhaseSchedule) {
  const SystemConfig config = SystemConfig::reduced(16, 16);
  Rng fault_rng(5);
  const FaultMap faults =
      FaultMap::random_with_count(config.grid(), 10, fault_rng);
  for (const WorkloadClass cls : kDeterministicClasses) {
    auto gen = make_generator(spec_for(cls), config, faults);
    std::vector<Injection> buf;
    for (int c = 0; c < 300; ++c) {
      const auto scheduled = gen->next_scheduled_injections();
      ASSERT_TRUE(scheduled.has_value()) << to_string(cls);
      buf.clear();
      gen->emit(buf);
      EXPECT_EQ(buf.size(), *scheduled)
          << to_string(cls) << " at cycle " << c;
    }
  }
}

TEST(Invariants, NoInjectionTargetsAFaultyTile) {
  const SystemConfig config = SystemConfig::reduced(16, 16);
  Rng fault_rng(17);
  FaultMap faults = FaultMap::random_with_count(config.grid(), 20, fault_rng);
  for (const WorkloadClass cls : kAllClasses) {
    auto gen = make_generator(spec_for(cls), config, faults);
    std::vector<Injection> all = emit_stream(*gen, 200);
    // Kill 20 more tiles mid-run; the generator must re-derive around them.
    FaultMap more = faults;
    Rng more_rng(18);
    for (int k = 0; k < 20; ++k) {
      const auto healthy = more.healthy_tiles();
      more.set_faulty(healthy[more_rng.below(healthy.size())]);
    }
    gen->apply_fault_state(more);
    std::vector<Injection> after = emit_stream(*gen, 200);
    for (const Injection& i : all) {
      EXPECT_TRUE(faults.is_healthy(i.src)) << to_string(cls);
      EXPECT_TRUE(faults.is_healthy(i.dst)) << to_string(cls);
    }
    for (const Injection& i : after) {
      EXPECT_TRUE(more.is_healthy(i.src)) << to_string(cls);
      EXPECT_TRUE(more.is_healthy(i.dst)) << to_string(cls);
    }
  }
}

TEST(Invariants, SpikingBurstTotalsAreSeedDeterministic) {
  const SystemConfig config = SystemConfig::reduced(16, 16);
  const FaultMap faults(config.grid());
  const WorkloadSpec spec = spec_for(WorkloadClass::SpikingBurst);
  auto a = make_generator(spec, config, faults);
  auto b = make_generator(spec, config, faults);
  const std::vector<Injection> sa = emit_stream(*a, 400);
  const std::vector<Injection> sb = emit_stream(*b, 400);
  EXPECT_EQ(sa, sb) << "same seed must reproduce the same spike stream";
  EXPECT_GT(sa.size(), 0u);

  WorkloadSpec other = spec;
  other.seed = spec.seed + 1;
  auto c = make_generator(other, config, faults);
  EXPECT_NE(emit_stream(*c, 400), sa)
      << "different seeds should thin differently";
}

TEST(Invariants, RunSplitComposesForEveryGenerator) {
  // run(a); run(b) must be bit-identical to run(a+b) through the whole
  // coupled loop — generators keep no per-call state.
  for (const WorkloadClass cls : kAllClasses) {
    cosim::CosimOptions o;
    o.config = SystemConfig::reduced(16, 16);
    o.seed = 23;
    o.epoch_cycles = 32;
    o.workload = spec_for(cls);
    cosim::CosimLoop split(o);
    split.run(53);
    split.run(75);
    cosim::CosimLoop whole(o);
    whole.run(128);
    EXPECT_EQ(split.state_fingerprint(), whole.state_fingerprint())
        << to_string(cls);
  }
}

// --- the 32x32 coupled wafer ------------------------------------------------

TEST(CoupledWafer, AllClassesBitIdenticalAcrossThreadCountsOn32x32) {
  for (const WorkloadClass cls :
       {WorkloadClass::AllReduceRing, WorkloadClass::LayerPipeline,
        WorkloadClass::SpikingBurst}) {
    cosim::CosimOptions o;
    o.config = SystemConfig::reduced(32, 32);
    o.seed = 29;
    o.epoch_cycles = 64;
    o.noc.mesh.integrity.enabled = true;
    o.pdn.ldo.line_regulation = 0.1;
    o.ber.floor_ber = 1e-6;
    o.ber.volts_per_decade = 0.003;
    o.workload = spec_for(cls);
    // Spread the collective over the wafer for this run.
    o.workload.allreduce.rect_x1 = 31;
    o.workload.allreduce.rect_y1 = 7;
    o.workload.spiking.hotspot = {16, 16};

    std::uint32_t base_fp = 0;
    std::vector<std::uint8_t> base_report;
    for (const int threads : {1, 2, 8}) {
      exec::set_shared_threads(threads);
      cosim::CosimLoop loop(o);
      loop.run_epochs(2);
      const std::uint32_t fp = loop.state_fingerprint();
      const std::vector<std::uint8_t> rep =
          cosim::serialize_report(loop.report());
      if (threads == 1) {
        base_fp = fp;
        base_report = rep;
        // The run must actually exercise the wafer and report tail
        // latency per class through the registry gauges.
        EXPECT_GT(loop.report().noc_stats.completed, 0u) << to_string(cls);
        EXPECT_GT(
            loop.metrics().gauge("cosim.workload_p99_latency").value, 0.0)
            << to_string(cls);
        const noc::TrafficReport lat = loop.latency_summary();
        EXPECT_GE(lat.p99_latency, lat.p50_latency) << to_string(cls);
      } else {
        EXPECT_EQ(fp, base_fp) << to_string(cls) << " threads=" << threads;
        EXPECT_EQ(rep, base_report) << to_string(cls);
      }
    }
    exec::set_shared_threads(0);
  }
}

// --- campaign wiring --------------------------------------------------------

TEST(Campaign, WorkloadDrivenTrialsAreDeterministicAndFingerprinted) {
  resilience::CampaignOptions o;
  o.config = SystemConfig::reduced(8, 8);
  o.seed = 41;
  o.run_cycles = 600;
  o.mix = {1, 1, 0, 0, 0, 0};
  o.workload = spec_for(WorkloadClass::AllReduceRing);
  o.workload.allreduce.rect_x1 = 7;
  o.workload.allreduce.rect_y1 = 7;

  const resilience::DegradationCampaign campaign(o);
  const auto run_bytes = [&] {
    ckpt::Writer w;
    for (const resilience::DegradationReport& r : campaign.run_trials(2))
      resilience::save_report(w, r);
    return w.bytes();
  };
  EXPECT_EQ(run_bytes(), run_bytes());

  resilience::CampaignOptions synth = o;
  synth.workload = WorkloadSpec{};
  EXPECT_NE(campaign.options_fingerprint(),
            resilience::DegradationCampaign(synth).options_fingerprint())
      << "the workload spec must be part of the campaign identity";

  // The workload must actually traffic the wafer during the trial.
  const resilience::DegradationReport r = campaign.run();
  EXPECT_GT(r.noc_stats.issued, 0u);
}

}  // namespace
}  // namespace wsp::workloads
