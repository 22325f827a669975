// Property/fuzz coverage for wsp::ckpt: hostile bytes never crash.
//
// Two properties, hammered with seeded randomness (deterministic, so any
// failure replays):
//   1. Round-trip: snapshot a NoC at a *random* cycle under a *random*
//      fault/BER schedule, resume, and the continued run is bit-identical
//      to the straight-through run — the save/load pair has no
//      state-dependent blind spots.
//   2. Robustness: randomly bit-flipped, truncated, or garbage bytes fed
//      to the frame opener and to every load path either load cleanly or
//      throw a typed ckpt::Error — never crash, never read out of
//      bounds, never allocate from a hostile length.  CI runs this suite
//      under ASan/UBSan (the `checkpoint` label rides the sanitizer job),
//      which turns "no UB" from a claim into a check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/config.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/cosim/cosim.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/resilience/campaign.hpp"
#include "wsp/resilience/fault_injector.hpp"
#include "wsp/resilience/fault_schedule.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace wsp {
namespace {

// Feeds `bytes` to `load`; acceptable outcomes are a clean load or a
// typed ckpt::Error.  Anything else (std::bad_alloc from a hostile
// length, a raw wsp::Error, a sanitizer abort) fails the property.
template <typename Load>
void expect_loads_or_typed_error(const std::vector<std::uint8_t>& bytes,
                                 Load&& load) {
  try {
    load(bytes);
  } catch (const ckpt::Error&) {
    // typed rejection: the contract
  }
}

// Loads `bytes` into `target` and, after a clean load, runs `step` on it.
// Acceptable outcomes are a clean run, a ckpt::Error from the load, or a
// wsp::Error from the step (a loaded value the simulator's own checks
// reject).  A value that passes the loader must never crash the step —
// under the sanitizer run, that is what makes the loader's contextual
// checks complete.
template <typename Target, typename Step>
void expect_load_then_safe_step(const std::vector<std::uint8_t>& bytes,
                                Target& target, Step&& step) {
  ckpt::Reader r(bytes);
  try {
    target.load_state(r);
  } catch (const ckpt::Error&) {
    return;
  }
  try {
    step(target);
  } catch (const wsp::Error&) {
    // the simulator rejected a loaded value: typed, not UB
  }
}

TEST(CkptFuzz, RandomCycleSnapshotsResumeBitIdentical) {
  Rng meta(0xF00D);
  for (int round = 0; round < 6; ++round) {
    const int width = 6 + static_cast<int>(meta.below(6));
    const int height = 6 + static_cast<int>(meta.below(6));
    const TileGrid grid(width, height);
    const std::uint64_t total = 400 + meta.below(400);
    const std::uint64_t snap = 50 + meta.below(total - 100);
    const std::uint64_t traffic_seed = meta();

    noc::NocOptions opt;
    opt.response_timeout = 150 + meta.below(200);
    opt.max_retries = 1 + static_cast<int>(meta.below(3));
    opt.mesh.integrity.enabled = round % 2 == 1;  // every other round

    // Random runtime fault schedule, applied through a FaultInjector.  The
    // schedule is plain data, so the resumed run rebuilds its injector
    // from it rather than from the snapshot.
    resilience::ScheduleMix mix;
    mix.tile_deaths = meta.below(3);
    mix.link_failures = meta.below(3);
    mix.packet_corruptions = 0;  // applied by the campaign layer, not here
    Rng sched_rng(meta());
    const resilience::FaultSchedule schedule =
        resilience::FaultSchedule::random(grid, mix, total, sched_rng);

    const auto traffic = [](const FaultMap& faults, std::uint64_t seed) {
      return workloads::make_synthetic({.injection_rate = 0.03}, faults,
                                       Rng(seed));
    };
    const auto drive = [&](noc::NocSystem& noc,
                           resilience::FaultInjector& injector,
                           workloads::TrafficGenerator& gen,
                           std::uint64_t until) {
      workloads::TrafficDriver driver(noc, gen);
      while (noc.now() < until) {
        if (!injector.advance_to(noc.now()).empty()) {
          noc.apply_fault_state(injector.faults(), injector.link_faults());
          gen.apply_fault_state(injector.faults());
        }
        driver.step();
      }
    };

    // Straight-through run, snapshotting at the random cycle.  With the
    // integrity channel on, a noisy BER map is set up front, so the meshes
    // carry it in the snapshot.
    noc::NocSystem noc(FaultMap(grid), opt);
    if (opt.mesh.integrity.enabled)
      noc.set_link_ber(noc::LinkBerMap::uniform(grid, 1e-4));
    resilience::FaultInjector injector(FaultMap(grid), schedule);
    const auto gen = traffic(injector.faults(), traffic_seed);
    drive(noc, injector, *gen, snap);
    ckpt::Writer w;
    noc.save_state(w);
    gen->save_state(w);
    const std::vector<std::uint8_t> frame = ckpt::seal(ckpt::fourcc("FUZZ"),
                                                       1, w);
    drive(noc, injector, *gen, total);
    if (opt.mesh.integrity.enabled) {  // the noise is live
      EXPECT_GT(noc.stats().link_retransmits, 0u) << "round " << round;
    }

    // Resume into fresh objects; the continuation must match bit for bit.
    const ckpt::Frame opened = ckpt::open_expect(frame, ckpt::fourcc("FUZZ"));
    ckpt::Reader r(opened.payload());
    noc::NocSystem resumed(FaultMap(grid), opt);
    resumed.load_state(r);
    // drive() last advanced the injector to snap - 1 before stopping.
    resilience::FaultInjector resumed_injector(FaultMap(grid), schedule);
    resumed_injector.advance_to(snap - 1);
    const auto resumed_gen = traffic(resumed_injector.faults(), 1);
    resumed_gen->load_state(r);
    ASSERT_TRUE(r.done());
    drive(resumed, resumed_injector, *resumed_gen, total);

    EXPECT_EQ(resumed_injector.faults(), injector.faults());
    EXPECT_EQ(resumed_injector.link_faults(), injector.link_faults());
    ckpt::Writer expect, got;
    noc.save_state(expect);
    gen->save_state(expect);
    resumed.save_state(got);
    resumed_gen->save_state(got);
    ASSERT_EQ(got.bytes(), expect.bytes())
        << "round " << round << ": " << width << "x" << height << " snap@"
        << snap << "/" << total;
  }
}

TEST(CkptFuzz, BitFlippedFramesNeverEscapeTheOpener) {
  // A mid-run NoC snapshot is a rich byte soup (rings, pools, RNGs);
  // single-bit damage anywhere in the frame must be caught by the header
  // checks or the CRC — open() either throws ckpt::Error or, for flips in
  // the state_version field only, returns a frame with the flipped
  // version (the payload is still CRC-clean there).
  const TileGrid grid(8, 8);
  noc::NocOptions opt;
  noc::NocSystem noc(FaultMap(grid), opt);
  const auto gen = workloads::make_synthetic({.injection_rate = 0.05},
                                             noc.faults(), Rng(21));
  workloads::TrafficDriver driver(noc, *gen);
  for (int c = 0; c < 300; ++c) driver.step();
  ckpt::Writer w;
  noc.save_state(w);
  const std::vector<std::uint8_t> frame = ckpt::seal(ckpt::fourcc("NOCS"),
                                                     1, w);

  Rng fuzz(0xB17);
  for (int i = 0; i < 4000; ++i) {
    std::vector<std::uint8_t> hit = frame;
    hit[fuzz.below(hit.size())] ^= static_cast<std::uint8_t>(
        1u << fuzz.below(8));
    expect_loads_or_typed_error(hit, [&](const std::vector<std::uint8_t>& b) {
      const ckpt::Frame f = ckpt::open_expect(b, ckpt::fourcc("NOCS"));
      // Payload survived CRC: loading it must still be crash-free (the
      // flip can only have hit the state_version header field).
      noc::NocSystem target(FaultMap(grid), opt);
      ckpt::Reader r(f.payload());
      target.load_state(r);
    });
  }
}

TEST(CkptFuzz, TruncatedFramesAlwaysTyped) {
  ckpt::Writer w;
  for (int i = 0; i < 64; ++i) w.u64(i * 0x9E3779B97F4A7C15ull);
  const std::vector<std::uint8_t> frame = ckpt::seal(ckpt::fourcc("TRNC"),
                                                     1, w);
  for (std::size_t n = 0; n < frame.size(); ++n)
    EXPECT_THROW(ckpt::open(frame.data(), n), ckpt::Error) << "prefix " << n;
  // And pure garbage of every small size.
  Rng fuzz(0xDEAD);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> garbage(fuzz.below(96));
    for (std::uint8_t& byte : garbage)
      byte = static_cast<std::uint8_t>(fuzz.below(256));
    expect_loads_or_typed_error(garbage,
                                [](const std::vector<std::uint8_t>& b) {
                                  ckpt::open(b.data(), b.size());
                                });
  }
}

TEST(CkptFuzz, CorruptPayloadsNeverCrashSubsystemLoaders) {
  // Damage *inside* an already-opened payload (the CRC layer bypassed on
  // purpose): every subsystem loader must bounds-check its own reads.
  // Outcomes are a clean load (the flip hit a don't-care or plausible
  // value) or ckpt::Error — never UB, per the sanitizer run.  The NoC,
  // cosim and generator targets also run after a clean load, so a value
  // the loader let through cannot crash the next step either.
  const TileGrid grid(8, 8);

  Rng fuzz(0xFACE);
  // Offset of the first section tag `t` in `bytes`.
  const auto section_start = [](const std::vector<std::uint8_t>& bytes,
                                const char* t) {
    const auto at = std::search(bytes.begin(), bytes.end(), t, t + 4);
    EXPECT_NE(at, bytes.end()) << t;
    return static_cast<std::size_t>(at - bytes.begin());
  };
  // Flips bits in, and cuts the payload inside, bytes [from, to): a small
  // section ahead of large slabs gets a pass of its own instead of
  // drowning in them.
  const auto hammer = [&](const std::vector<std::uint8_t>& payload,
                          auto&& load, std::size_t from = 0,
                          std::size_t to = SIZE_MAX) {
    to = std::min(to, payload.size());
    for (int i = 0; i < 800; ++i) {
      std::vector<std::uint8_t> hit = payload;
      hit[from + fuzz.below(to - from)] ^= static_cast<std::uint8_t>(
          1u << fuzz.below(8));
      expect_loads_or_typed_error(hit, load);
    }
    for (int i = 0; i < 200; ++i) {
      const auto cut =
          static_cast<std::ptrdiff_t>(from + fuzz.below(to - from));
      expect_loads_or_typed_error(
          std::vector<std::uint8_t>(payload.begin(), payload.begin() + cut),
          load);
    }
  };

  // A mid-traffic NoC with timeouts armed and the BER channel on, so the
  // live, deadline, pending and ready sections and both mesh pools hold
  // packets.  Every clean load is stepped 16 cycles.
  FaultMap noc_faults(grid);
  noc_faults.set_faulty({3, 4}, true);
  noc::NocOptions noc_opt;
  noc_opt.response_timeout = 200;
  noc_opt.mesh.integrity.enabled = true;
  noc::NocSystem noc(noc_faults, noc_opt);
  noc.set_link_ber(noc::LinkBerMap::uniform(grid, 1e-3));
  noc::TrafficConfig traffic;
  traffic.injection_rate = 0.08;
  const auto noc_gen = workloads::make_synthetic(traffic, noc_faults, Rng(4));
  workloads::TrafficDriver driver(noc, *noc_gen);
  for (int c = 0; c < 60; ++c) driver.step();
  ASSERT_GT(noc.stats().link_retransmits, 0u);  // the noise is live
  ckpt::Writer noc_w;
  noc.save_state(noc_w);
  const auto load_noc = [&](const std::vector<std::uint8_t>& b) {
    noc::NocSystem target(noc_faults, noc_opt);
    expect_load_then_safe_step(b, target, [](noc::NocSystem& n) {
      std::vector<noc::CompletedTransaction> done;
      for (int c = 0; c < 16; ++c) n.step(done);
    });
  };
  // The transaction layer (everything ahead of the first MESH section) is
  // a few KB in front of two mesh slabs, so it gets its own pass.
  hammer(noc_w.bytes(), load_noc, 0, section_start(noc_w.bytes(), "MESH"));
  hammer(noc_w.bytes(), load_noc);

  // A cosim loop mid-epoch after one coupled epoch; a clean load runs one
  // more epoch (harvest, PDN re-solve, BER map).
  cosim::CosimOptions co;
  co.noc.mesh.integrity.enabled = true;
  co.epoch_cycles = 16;
  co.workload.cls = workloads::WorkloadClass::SpikingBurst;
  co.workload.spiking.background_rate = 0.05;
  cosim::CosimLoop loop(co);
  loop.run(24);
  ckpt::Writer cosim_w;
  loop.save_state(cosim_w);
  const auto load_cosim = [&](const std::vector<std::uint8_t>& b) {
    cosim::CosimLoop target(co);
    expect_load_then_safe_step(
        b, target, [](cosim::CosimLoop& l) { l.run_epochs(1); });
  };
  hammer(cosim_w.bytes(), load_cosim, 0,
         section_start(cosim_w.bytes(), "NOCS"));
  hammer(cosim_w.bytes(), load_cosim);

  // Every generator class; a clean load emits 16 cycles.
  const SystemConfig config = SystemConfig::reduced(8, 8);
  for (const workloads::WorkloadClass cls :
       {workloads::WorkloadClass::Synthetic,
        workloads::WorkloadClass::AllReduceRing,
        workloads::WorkloadClass::HaloExchange,
        workloads::WorkloadClass::LayerPipeline,
        workloads::WorkloadClass::SpikingBurst,
        workloads::WorkloadClass::GraphWave}) {
    SCOPED_TRACE(workloads::to_string(cls));
    workloads::WorkloadSpec spec;
    spec.cls = cls;
    spec.spiking.burst_rate = 0.2;
    const auto gen = workloads::make_generator(spec, config, noc_faults);
    std::vector<workloads::Injection> out;
    for (int c = 0; c < 29; ++c) gen->emit(out);
    ckpt::Writer gen_w;
    gen->save_state(gen_w);
    hammer(gen_w.bytes(), [&](const std::vector<std::uint8_t>& b) {
      const auto target = workloads::make_generator(spec, config, noc_faults);
      expect_load_then_safe_step(b, *target,
                                 [](workloads::TrafficGenerator& g) {
                                   std::vector<workloads::Injection> sink;
                                   for (int c = 0; c < 16; ++c) g.emit(sink);
                                 });
    });
  }
}

TEST(CkptFuzz, CorruptCampaignFilesAlwaysTyped) {
  resilience::CampaignOptions o;
  o.config = SystemConfig::reduced(8, 8);
  o.seed = 23;
  o.run_cycles = 800;
  o.fault_horizon = 600;
  const resilience::DegradationCampaign campaign(o);
  const resilience::CampaignReportsFile file{
      campaign.options_fingerprint(), 2, 0, campaign.run_trials(2)};
  const std::string path = "CKPT_fuzz_campaign.wsp";
  resilience::save_campaign_reports(path, file);
  const std::vector<std::uint8_t> bytes = ckpt::read_file(path);

  Rng fuzz(0xCA11);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> hit = bytes;
    if (fuzz.bernoulli(0.5)) {
      hit[fuzz.below(hit.size())] ^= static_cast<std::uint8_t>(
          1u << fuzz.below(8));
    } else {
      hit.resize(fuzz.below(hit.size()));
    }
    ckpt::atomic_write_file(path, hit.data(), hit.size());
    expect_loads_or_typed_error(hit, [&](const std::vector<std::uint8_t>&) {
      resilience::load_campaign_reports(path);
    });
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wsp
