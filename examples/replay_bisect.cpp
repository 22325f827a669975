// Replay-based failure bisection from a wsp::ckpt snapshot.
//
// Long NoC runs fail late: a transaction is declared lost at cycle F after
// a long quiet prefix.  Re-running from cycle 0 with tracing on is slow,
// and the trace ring would have wrapped long before F anyway.  Instead the
// run snapshots itself periodically; this example reloads the last
// snapshot taken *before* the failure and re-steps only the offending
// window — run it under WSP_TRACE=1 and the replay records the spans of
// exactly the cycles that matter into TRACE_replay_bisect.json.
//
// Determinism is what makes the replay faithful: the snapshot frame
// captures the full NoC state (packet pool, per-link rings, credit words,
// RNG streams, live transactions, deadlines) through
// NocSystem::save_state, plus the current runtime fault map and the
// traffic generator's state alongside it in the same frame.  The
// re-stepped window is therefore bit-identical to the original run —
// proven at the end by byte-comparing the re-serialised state at the
// failure cycle.
//
//   ./replay_bisect              # quiet replay + bit-identity check
//   WSP_TRACE=1 ./replay_bisect  # replay window traced
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/obs/trace.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace {

constexpr std::uint32_t kFrameKind = wsp::ckpt::fourcc("RBIS");
constexpr std::uint32_t kFrameVersion = 1;
constexpr std::uint64_t kRunCycles = 6000;
constexpr std::uint64_t kSnapshotPeriod = 512;
constexpr std::uint64_t kFaultCycle = 2000;
constexpr double kInjectionRate = 0.02;

// The scripted runtime fault: a partial column wall at kFaultCycle.  Both
// the reference run and the replay apply it from the same function, the
// way a real campaign replays its FaultSchedule.
void scripted_fault(wsp::FaultMap& faults) {
  for (int y = 4; y <= 11; ++y) faults.set_faulty({8, y}, true);
}

// Seeded uniform-random traffic from the usable tiles.
std::unique_ptr<wsp::workloads::TrafficGenerator> random_traffic(
    const wsp::FaultMap& faults) {
  wsp::noc::TrafficConfig cfg;
  cfg.injection_rate = kInjectionRate;
  return wsp::workloads::make_synthetic(cfg, faults, wsp::Rng(2026));
}

// Snapshot frame: NoC state + current fault map + generator state, one file.
std::vector<std::uint8_t> snapshot(
    const wsp::noc::NocSystem& noc, const wsp::FaultMap& faults,
    const wsp::workloads::TrafficGenerator& gen) {
  wsp::ckpt::Writer w;
  noc.save_state(w);
  wsp::ckpt::save_fault_map(w, faults);
  gen.save_state(w);
  return wsp::ckpt::seal(kFrameKind, kFrameVersion, w);
}

}  // namespace

int main() {
  using namespace wsp;
  const obs::ScopedTrace trace("replay_bisect");

  const TileGrid grid(16, 16);
  FaultMap faults(grid);
  noc::NocOptions opt;
  opt.response_timeout = 400;  // arm the timeout/retry machinery
  opt.max_retries = 1;         // so stranded transactions get declared lost

  noc::NocSystem noc(faults, opt);
  const auto gen = random_traffic(faults);
  workloads::TrafficDriver driver(noc, *gen);

  std::printf("== reference run: 16x16 dual-network NoC, %llu cycles, "
              "snapshot every %llu ==\n",
              static_cast<unsigned long long>(kRunCycles),
              static_cast<unsigned long long>(kSnapshotPeriod));

  // --- reference run, snapshotting periodically --------------------------
  struct Snapshot {
    std::uint64_t cycle;
    std::vector<std::uint8_t> frame;
  };
  std::vector<Snapshot> snapshots;
  std::optional<std::uint64_t> failure_cycle;
  std::vector<std::uint8_t> reference_state;
  std::uint64_t prev_lost = 0;

  while (noc.now() < kRunCycles && !failure_cycle) {
    if (noc.now() % kSnapshotPeriod == 0)
      snapshots.push_back({noc.now(), snapshot(noc, faults, *gen)});
    if (noc.now() == kFaultCycle) {
      scripted_fault(faults);
      noc.apply_fault_state(faults);
      gen->apply_fault_state(faults);
      std::printf("cycle %5llu: runtime fault — column wall killed, "
                  "%zu tiles unusable\n",
                  static_cast<unsigned long long>(noc.now()),
                  grid.tile_count() - faults.healthy_count());
    }
    driver.step();
    const std::uint64_t lost = noc.stats().lost;
    if (lost > prev_lost) {
      failure_cycle = noc.now();
      ckpt::Writer w;
      noc.save_state(w);
      reference_state = w.bytes();
      std::printf("cycle %5llu: FAILURE — %llu transaction(s) declared "
                  "lost\n",
                  static_cast<unsigned long long>(*failure_cycle),
                  static_cast<unsigned long long>(lost));
    }
    prev_lost = lost;
  }

  if (!failure_cycle) {
    std::printf("no transaction lost in %llu cycles — nothing to bisect\n",
                static_cast<unsigned long long>(kRunCycles));
    return 0;
  }

  // --- pick the last snapshot before the failure -------------------------
  const Snapshot* base = nullptr;
  for (const Snapshot& s : snapshots)
    if (s.cycle <= *failure_cycle) base = &s;
  std::printf("\n== bisect: replaying window [%llu, %llu] from the last "
              "pre-failure snapshot ==\n",
              static_cast<unsigned long long>(base->cycle),
              static_cast<unsigned long long>(*failure_cycle));

  // Round-trip the frame through a file, exactly as a crashed run would:
  // atomic write, reload, CRC + kind verified before any byte is used.
  const std::string path = "CKPT_replay_bisect.wsp";
  ckpt::atomic_write_file(path, base->frame.data(), base->frame.size());
  const ckpt::Frame frame = ckpt::load_frame_file(path, kFrameKind);
  ckpt::Reader r(frame.payload());

  noc::NocSystem replay(FaultMap(grid), opt);
  replay.load_state(r);
  FaultMap replay_faults = ckpt::load_fault_map(r, &grid);
  const auto replay_gen = random_traffic(replay_faults);
  replay_gen->load_state(r);
  workloads::TrafficDriver replay_driver(replay, *replay_gen);
  std::printf("snapshot restored: cycle %llu, %zu transactions in flight\n",
              static_cast<unsigned long long>(replay.now()),
              replay.inflight_transactions());

  // --- re-step the offending window (traced under WSP_TRACE=1) ----------
  {
    WSP_TRACE_SPAN("replay.window");
    while (replay.now() < *failure_cycle) {
      if (replay.now() == kFaultCycle) {
        scripted_fault(replay_faults);
        replay.apply_fault_state(replay_faults);
        replay_gen->apply_fault_state(replay_faults);
      }
      replay_driver.step();
    }
  }

  const noc::NocStats st = replay.stats();
  std::printf("replayed to cycle %llu: issued %llu, timeouts %llu, "
              "lost %llu\n",
              static_cast<unsigned long long>(replay.now()),
              static_cast<unsigned long long>(st.issued),
              static_cast<unsigned long long>(st.timeouts),
              static_cast<unsigned long long>(st.lost));

  ckpt::Writer w;
  replay.save_state(w);
  const bool identical = w.bytes() == reference_state;
  std::printf("replayed state vs straight-through state: %s\n",
              identical ? "bit-identical" : "DIVERGED");
  if (trace.active())
    std::printf("replay window spans: %s\n", trace.path().c_str());
  std::remove(path.c_str());
  return identical ? 0 : 1;
}
