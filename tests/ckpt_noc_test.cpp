// Snapshot/resume bit-identity for the stateful subsystems.
//
// The determinism contract of wsp::ckpt: save_state at cycle k, load into
// a freshly constructed object, continue stepping — the resumed run must
// be *bit-identical* to the one that never stopped, proven by comparing
// the re-serialised state (every counter, ring, RNG stream and credit
// word goes through the comparison).  The NoC is exercised at 16x16 and
// 32x32 with runtime faults and link-integrity BER in the window between
// snapshot and comparison, and the equality is asserted at thread counts
// 1, 2 and 8.
// MeshNetwork and the obs Histogram get the same round-trip treatment,
// plus the typed-error paths for topology/schema mismatches.  Mid-traffic
// and retry-heavy NOCS, COSM, every generator class and the HBEA heartbeat
// are pinned by size and CRC-32.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/config.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/cosim/cosim.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/noc/mesh_network.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/obs/metrics.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace wsp {
namespace {

std::vector<std::uint8_t> noc_bytes(const noc::NocSystem& noc) {
  ckpt::Writer w;
  noc.save_state(w);
  return w.bytes();
}

// Seeded uniform-random traffic from the usable tiles (same generator on
// the reference and the resumed run; its state rides in the snapshot).
std::unique_ptr<workloads::TrafficGenerator> uniform_traffic(
    const FaultMap& faults, double rate, std::uint64_t seed) {
  noc::TrafficConfig cfg;
  cfg.injection_rate = rate;
  return workloads::make_synthetic(cfg, faults, Rng(seed));
}

struct ResumeResult {
  std::vector<std::uint8_t> straight;  ///< state bytes, never stopped
  std::vector<std::uint8_t> resumed;   ///< state bytes via snapshot/load
  noc::NocStats straight_stats;        ///< counters of the straight run
};

// Runs `total` cycles with a runtime fault landing mid-window, snapshots
// at `snap_cycle`, resumes into a fresh NocSystem and steps it to the same
// end cycle.  Fault cycle is chosen *after* the snapshot so the resumed
// run must reproduce the fault application too.  A uniform `link_ber`
// above zero is set before the first cycle, so the BER map rides the
// snapshot rather than being set again on the resumed run.
ResumeResult run_snapshot_resume(int width, int height, std::uint64_t total,
                                 std::uint64_t snap_cycle,
                                 const noc::NocOptions& opt,
                                 double link_ber = 0.0) {
  const TileGrid grid(width, height);
  FaultMap faults(grid);
  const std::uint64_t fault_cycle = snap_cycle + (total - snap_cycle) / 2;

  noc::NocSystem noc(faults, opt);
  if (link_ber > 0.0)
    noc.set_link_ber(noc::LinkBerMap::uniform(grid, link_ber));
  const auto gen = uniform_traffic(faults, 0.02, 99);
  workloads::TrafficDriver driver(noc, *gen);
  std::vector<std::uint8_t> snapshot_frame;

  for (std::uint64_t c = 0; c < total; ++c) {
    if (noc.now() == snap_cycle) {
      ckpt::Writer w;
      noc.save_state(w);
      ckpt::save_fault_map(w, faults);
      gen->save_state(w);
      snapshot_frame = ckpt::seal(ckpt::fourcc("TSNP"), 1, w);
    }
    if (noc.now() == fault_cycle) {
      for (int y = 1; y < height - 1; ++y)
        faults.set_faulty({width / 2, y}, true);
      noc.apply_fault_state(faults);
      gen->apply_fault_state(faults);
    }
    driver.step();
  }

  ResumeResult out;
  out.straight = noc_bytes(noc);
  out.straight_stats = noc.stats();

  // Resume from the frame into brand-new objects and replay the window.
  const ckpt::Frame frame = ckpt::open_expect(snapshot_frame,
                                              ckpt::fourcc("TSNP"));
  ckpt::Reader r(frame.payload());
  noc::NocSystem resumed(FaultMap(grid), opt);
  resumed.load_state(r);
  FaultMap resumed_faults = ckpt::load_fault_map(r, &grid);
  const auto resumed_gen = uniform_traffic(resumed_faults, 0.02, 1);
  resumed_gen->load_state(r);
  workloads::TrafficDriver resumed_driver(resumed, *resumed_gen);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(resumed.now(), snap_cycle);

  while (resumed.now() < total) {
    if (resumed.now() == fault_cycle) {
      for (int y = 1; y < height - 1; ++y)
        resumed_faults.set_faulty({width / 2, y}, true);
      resumed.apply_fault_state(resumed_faults);
      resumed_gen->apply_fault_state(resumed_faults);
    }
    resumed_driver.step();
  }
  out.resumed = noc_bytes(resumed);
  return out;
}

TEST(NocCkpt, ResumeBitIdentical16x16WithTimeouts) {
  noc::NocOptions opt;
  opt.response_timeout = 300;  // arm timeout/retry so deadlines snapshot
  opt.max_retries = 2;
  const ResumeResult r = run_snapshot_resume(16, 16, 2500, 1000, opt);
  ASSERT_FALSE(r.straight.empty());
  EXPECT_EQ(r.resumed, r.straight);
}

TEST(NocCkpt, ResumeBitIdentical32x32DualNetworkAcrossThreadCounts) {
  noc::NocOptions opt;
  opt.response_timeout = 400;
  // The acceptance case: a 32x32 dual-network NoC snapshot mid-run must
  // resume bit-identically to the straight-through run, and the bytes
  // must not depend on the pool width either.
  std::vector<std::vector<std::uint8_t>> states;
  for (const int threads : {1, 2, 8}) {
    exec::set_shared_threads(threads);
    const ResumeResult r = run_snapshot_resume(32, 32, 1200, 512, opt);
    EXPECT_EQ(r.resumed, r.straight) << "threads=" << threads;
    states.push_back(r.straight);
  }
  exec::set_shared_threads(0);
  EXPECT_EQ(states[0], states[1]);
  EXPECT_EQ(states[0], states[2]);
}

TEST(NocCkpt, ResumeBitIdenticalWithLinkIntegrityBer) {
  // BER channel on: the BER map, per-link traversal counts and
  // retransmit state must ride the snapshot for the resumed channel noise
  // to replay exactly.
  noc::NocOptions opt;
  opt.response_timeout = 300;
  opt.mesh.integrity.enabled = true;
  const ResumeResult r = run_snapshot_resume(12, 12, 1600, 700, opt, 1e-4);
  EXPECT_GT(r.straight_stats.link_retransmits, 0u);  // the noise is live
  EXPECT_EQ(r.resumed, r.straight);
}

TEST(NocCkpt, CheckpointFileRoundTrip) {
  const TileGrid grid(8, 8);
  FaultMap faults(grid);
  noc::NocOptions opt;
  noc::NocSystem noc(faults, opt);
  const auto gen = uniform_traffic(faults, 0.05, 5);
  workloads::TrafficDriver driver(noc, *gen);
  for (int c = 0; c < 400; ++c) driver.step();

  const std::string path = "CKPT_noc_file_test.wsp";
  noc.save_checkpoint(path);
  noc::NocSystem loaded(FaultMap(grid), opt);
  loaded.load_checkpoint(path);
  std::remove(path.c_str());

  EXPECT_EQ(noc_bytes(loaded), noc_bytes(noc));
  EXPECT_EQ(loaded.now(), noc.now());
  EXPECT_EQ(loaded.inflight_transactions(), noc.inflight_transactions());
  EXPECT_TRUE(loaded.packet_conservation_holds());
}

TEST(NocCkpt, ForeignGridIsTypedError) {
  const TileGrid small(8, 8);
  noc::NocOptions opt;
  noc::NocSystem source(FaultMap(small), opt);
  ckpt::Writer w;
  source.save_state(w);

  const TileGrid big(16, 16);
  noc::NocSystem target(FaultMap(big), opt);
  ckpt::Reader r(w.bytes());
  try {
    target.load_state(r);
    FAIL() << "expected ckpt::Error";
  } catch (const ckpt::Error& e) {
    EXPECT_EQ(e.kind(), ckpt::ErrorKind::TopologyMismatch);
  }
}

TEST(MeshCkpt, ResumeBitIdenticalMidFlight) {
  const TileGrid grid(10, 10);
  FaultMap faults(grid);
  faults.set_faulty({4, 4}, true);
  const noc::MeshOptions opt;

  noc::MeshNetwork mesh(faults, noc::NetworkKind::XY, opt);
  Rng rng(17);
  std::vector<noc::Packet> ejected;
  std::uint64_t next_id = 1;
  auto drive = [&](noc::MeshNetwork& m, Rng& r, int cycles) {
    for (int c = 0; c < cycles; ++c) {
      grid.for_each([&](TileCoord src) {
        if (faults.is_faulty(src) || !r.bernoulli(0.1)) return;
        const TileCoord dst = grid.coord_of(r.below(grid.tile_count()));
        if (dst == src || faults.is_faulty(dst)) return;
        noc::Packet p;
        p.src = src;
        p.dst = dst;
        p.id = next_id++;
        m.inject(p);
      });
      ejected.clear();
      m.step(ejected);
    }
  };
  drive(mesh, rng, 300);  // leave packets in flight

  ckpt::Writer w;
  mesh.save_state(w);
  const std::array<std::uint64_t, 4> rng_state = rng.state();
  const std::uint64_t id_mark = next_id;

  noc::MeshNetwork resumed(faults, noc::NetworkKind::XY, opt);
  ckpt::Reader r(w.bytes());
  resumed.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(resumed.in_flight(), mesh.in_flight());
  EXPECT_EQ(resumed.recount_in_flight(), resumed.in_flight());

  // Step both 200 more cycles under identical traffic.
  drive(mesh, rng, 200);
  Rng resumed_rng(1);
  resumed_rng.set_state(rng_state);
  next_id = id_mark;
  drive(resumed, resumed_rng, 200);

  ckpt::Writer wa, wb;
  mesh.save_state(wa);
  resumed.save_state(wb);
  EXPECT_EQ(wb.bytes(), wa.bytes());
  EXPECT_TRUE(resumed.conservation_holds());
}

TEST(MeshCkpt, FrameBytesArePinned) {
  // A snapshot written by an earlier build must keep loading: the option
  // block and everything after it keep their exact encoding.
  const FaultMap faults(TileGrid(8, 8));
  noc::MeshOptions opt;
  opt.input_queue_capacity = 6;
  opt.link_latency = 3;
  opt.adaptive_odd_even = true;
  opt.integrity = {.enabled = true, .retransmit = false, .seed = 77};
  const noc::MeshNetwork mesh(faults, noc::NetworkKind::YX, opt);
  ckpt::Writer w;
  mesh.save_state(w);
  const std::uint32_t crc = ckpt::crc32(w.bytes().data(), w.size());
  EXPECT_EQ(w.size(), 4657u);
  EXPECT_EQ(crc, 0xbc98aebau) << "actual 0x" << std::hex << crc;

  noc::MeshNetwork same(faults, noc::NetworkKind::YX, opt);
  ckpt::Reader r(w.bytes());
  same.load_state(r);
  EXPECT_TRUE(r.done());
  opt.integrity.retransmit = true;  // one nested option leaf differs
  noc::MeshNetwork other(faults, noc::NetworkKind::YX, opt);
  ckpt::Reader r2(w.bytes());
  try {
    other.load_state(r2);
    FAIL() << "mesh snapshot accepted under different options";
  } catch (const ckpt::Error& e) {
    EXPECT_EQ(e.kind(), ckpt::ErrorKind::SchemaMismatch);
  }
}

// --- pinned frames and tampered payloads ----------------------------------

// Offset of the first section tag `t` in `bytes` at or after `from`.
std::size_t find_tag(const std::vector<std::uint8_t>& bytes, const char* t,
                     std::size_t from = 0) {
  for (std::size_t i = from; i + 4 <= bytes.size(); ++i)
    if (std::equal(t, t + 4, bytes.begin() + static_cast<std::ptrdiff_t>(i)))
      return i;
  ADD_FAILURE() << "tag " << t << " not found";
  return 0;
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t k = 8; k-- > 0;) v = v << 8 | b[at + k];
  return v;
}

void put_u64(std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v) {
  for (std::size_t k = 0; k < 8; ++k)
    b[at + k] = static_cast<std::uint8_t>(v >> (8 * k));
}

void put_i32(std::vector<std::uint8_t>& b, std::size_t at, std::int32_t v) {
  for (std::size_t k = 0; k < 4; ++k)
    b[at + k] =
        static_cast<std::uint8_t>(static_cast<std::uint32_t>(v) >> (8 * k));
}

void erase(std::vector<std::uint8_t>& b, std::size_t at, std::size_t n) {
  b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
          b.begin() + static_cast<std::ptrdiff_t>(at + n));
}

// `why`, when given, must appear in the message, so a test can tell which
// loader check fired.
template <class Load>
void expect_schema_mismatch(const std::vector<std::uint8_t>& bytes,
                            Load&& load, const std::string& why = "") {
  ckpt::Reader r(bytes);
  try {
    load(r);
    FAIL() << "tampered snapshot loaded";
  } catch (const ckpt::Error& e) {
    EXPECT_EQ(e.kind(), ckpt::ErrorKind::SchemaMismatch) << e.what();
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
}

// Size and CRC-32 of a snapshot image; the failure message prints the
// actual CRC, so a deliberate format change re-pins from the log.
void expect_pinned(const std::vector<std::uint8_t>& bytes, std::size_t size,
                   std::uint32_t crc) {
  const std::uint32_t got = ckpt::crc32(bytes.data(), bytes.size());
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(got, crc) << "actual 0x" << std::hex << got;
}

// The mid-traffic system of MidTrafficFrameBytesArePinned: an 8x8 wafer
// with tiles (2,0) and (1,2) dead, the timeout armed and integrity on.
struct MidTraffic {
  TileGrid grid{8, 8};
  FaultMap faults{grid};
  noc::NocOptions opt;
  noc::LinkBerMap ber{grid};

  MidTraffic() {
    faults.set_faulty({2, 0}, true);
    faults.set_faulty({1, 2}, true);
    opt.response_timeout = 300;
    opt.mesh.integrity.enabled = true;
    ber.set_ber({3, 3}, Direction::East, 1e-3);
    ber.set_ber({4, 1}, Direction::North, 2e-4);
  }

  /// Traffic for 41 cycles, a relayed read issued at cycle 40, 12 writes
  /// from (5,5) queued behind its full local FIFO, then the BER map set
  /// just before the save.
  std::vector<std::uint8_t> frame() const {
    noc::NocSystem noc(faults, opt);
    EXPECT_TRUE(noc.selector().plan({0, 0}, {2, 2}).relayed);
    const auto gen = uniform_traffic(faults, 0.05, 7);
    workloads::TrafficDriver driver(noc, *gen);
    for (int c = 0; c < 40; ++c) driver.step();
    EXPECT_TRUE(noc.issue({0, 0}, {2, 2}, noc::PacketType::ReadRequest));
    for (std::uint64_t i = 0; i < 12; ++i)
      EXPECT_TRUE(noc.issue({5, 5}, {1, 6}, noc::PacketType::WriteRequest, i));
    driver.step();
    noc.set_link_ber(ber);
    return noc_bytes(noc);
  }
};

TEST(NocCkpt, MidTrafficFrameBytesArePinned) {
  // Every transaction-layer section populated: live transactions (one on a
  // relayed plan) with armed deadlines, pending responses, a ready backlog
  // behind a full local FIFO, and a BER map set just before the save — so
  // the pin covers the Packet encoding in the PEND/REDY queues and the mesh
  // pools.
  const MidTraffic mid;
  const std::vector<std::uint8_t> bytes = mid.frame();
  expect_pinned(bytes, 29302, 0x0e8a4a5cu);
  for (const char* section : {"LIVE", "DDLN", "PEND"})
    EXPECT_GT(get_u64(bytes, find_tag(bytes, section) + 4), 0u) << section;
  // REDY holds the XY then the YX queues; the backlog rides one of them.
  const std::size_t redy = find_tag(bytes, "REDY") + 4;
  EXPECT_TRUE(get_u64(bytes, redy) > 0 || get_u64(bytes, redy + 8) > 0);
  // The one BERM block (tag, width, height, the BERs) holds the map.
  ckpt::Writer map;
  ckpt::save_each(map, mid.ber.bers());
  const auto bers = bytes.begin() + static_cast<std::ptrdiff_t>(
                                        find_tag(bytes, "BERM") + 12);
  EXPECT_TRUE(std::equal(map.bytes().begin(), map.bytes().end(), bers));

  noc::NocSystem same(mid.faults, mid.opt);
  ckpt::Reader r(bytes);
  same.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(noc_bytes(same), bytes);
}

// CRC-32 of the ordered completion trace, every CompletedTransaction field.
std::uint32_t completion_crc(const std::vector<noc::CompletedTransaction>& d) {
  ckpt::Writer w;
  for (const noc::CompletedTransaction& ct : d)
    ckpt::save_fields(w, std::tie(ct.id, ct.src, ct.dst, ct.request_type,
                                  ct.issue_cycle, ct.complete_cycle,
                                  ct.relayed));
  return ckpt::crc32(w.bytes().data(), w.size());
}

TEST(NocCkpt, RetryFrameBytesArePinned) {
  // The retry machinery under load: a round-trip timeout shorter than the
  // wafer's long routes, one tile killed mid-run, a relayed pair and a
  // ready backlog behind a full local FIFO.  Transactions are retried,
  // relayed, lost and answered late, so DDLN mixes attempt generations
  // and PEND/REDY carry retried packets.  Frames are pinned mid-run and
  // after the drain, with the completion trace and every counter.
  const TileGrid grid(12, 12);
  FaultMap faults(grid);
  faults.set_faulty({2, 0}, true);
  faults.set_faulty({1, 2}, true);
  noc::NocOptions opt;
  opt.response_timeout = 60;
  opt.max_retries = 3;
  opt.retry_backoff_base = 8;
  noc::NocSystem noc(faults, opt);
  ASSERT_TRUE(noc.selector().plan({0, 0}, {2, 2}).relayed);

  Rng rng(17);
  std::vector<noc::CompletedTransaction> done;
  auto traffic_cycle = [&] {
    for (int k = 0; k < 3; ++k) {
      const TileCoord src = grid.coord_of(rng.below(grid.tile_count()));
      const TileCoord dst = grid.coord_of(rng.below(grid.tile_count()));
      const auto type = rng.bernoulli(0.5) ? noc::PacketType::ReadRequest
                                           : noc::PacketType::WriteRequest;
      noc.issue(src, dst, type, rng());
    }
    if (noc.now() % 16 == 0)
      noc.issue({0, 0}, {2, 2}, noc::PacketType::ReadRequest);
    noc.step(done);
  };
  while (noc.now() < 70) traffic_cycle();
  faults.set_faulty({6, 6}, true);
  noc.apply_fault_state(faults);
  while (noc.now() < 159) traffic_cycle();
  for (std::uint64_t i = 0; i < 12; ++i)
    ASSERT_TRUE(noc.issue({9, 9}, {1, 10}, noc::PacketType::WriteRequest, i));
  traffic_cycle();

  const std::vector<std::uint8_t> mid = noc_bytes(noc);
  expect_pinned(mid, 41114, 0x333a6a9au);
  // DDLN: a count, then (u64 due, u64 id, u32 attempt) in pop order.  A
  // first-attempt deadline follows both an attempt-1 and an attempt-2 one.
  const std::size_t ddln = find_tag(mid, "DDLN") + 4;
  bool after_first = false;
  bool after_second = false;
  int latest_retry = 0;
  for (std::uint64_t k = 0; k < get_u64(mid, ddln); ++k) {
    const std::uint8_t attempt = mid[ddln + 8 + k * 20 + 16];
    if (attempt == 0) {
      after_first |= latest_retry >= 1;
      after_second |= latest_retry >= 2;
    }
    if (attempt > 0) latest_retry = std::max(latest_retry, int{attempt});
  }
  EXPECT_TRUE(after_first);
  EXPECT_TRUE(after_second);
  const std::size_t redy = find_tag(mid, "REDY") + 4;
  EXPECT_TRUE(get_u64(mid, redy) > 0 || get_u64(mid, redy + 8) > 0);

  while (noc.now() < 180) traffic_cycle();
  ASSERT_TRUE(noc.drain(done, 20'000));
  const std::vector<std::uint8_t> drained = noc_bytes(noc);
  expect_pinned(drained, 15303, 0x83aa62c3u);

  EXPECT_EQ(done.size(), 513u);
  EXPECT_EQ(completion_crc(done), 0x6074b8e4u)
      << "actual 0x" << std::hex << completion_crc(done);
  const noc::NocStats s = noc.stats();
  const noc::NocStats want{.issued = 547, .completed = 513, .unreachable = 17,
                            .relayed = 20, .latency_sum = 17903,
                            .latency_max = 204, .timeouts = 141,
                            .retries = 107, .lost = 34, .stale_packets = 133,
                            .replans = 1};
  EXPECT_EQ(fields(s), fields(want));
  EXPECT_GT(s.retries, 0u);
  EXPECT_GT(s.lost, 0u);
  EXPECT_GT(s.stale_packets, 0u);
  EXPECT_GT(s.relayed, 0u);

  for (const std::vector<std::uint8_t>* frame : {&mid, &drained}) {
    noc::NocSystem same(FaultMap(grid), opt);
    ckpt::Reader r(*frame);
    same.load_state(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(noc_bytes(same), *frame);
  }
}

TEST(CosimCkpt, SpikingFrameBytesArePinned) {
  cosim::CosimOptions o;
  o.noc.mesh.integrity.enabled = true;
  o.workload.cls = workloads::WorkloadClass::SpikingBurst;
  o.workload.seed = 5;
  o.workload.spiking.background_rate = 0.02;
  o.workload.spiking.burst_interval = 50;
  o.workload.spiking.hotspot = {3, 4};
  cosim::CosimLoop loop(o);
  loop.run_epochs(2);
  loop.run(10);  // mid-epoch: the cursor and partial activity are live
  ASSERT_EQ(loop.epochs_completed(), 2u);

  ckpt::Writer w;
  loop.save_state(w);
  expect_pinned(w.bytes(), 26539, 0x6104fc74u);

  cosim::CosimLoop same(o);
  ckpt::Reader r(w.bytes());
  same.load_state(r);
  EXPECT_TRUE(r.done());
  ckpt::Writer again;
  same.save_state(again);
  EXPECT_EQ(again.bytes(), w.bytes());
}

TEST(CosimCkpt, ResumeAcrossTheStaticReferenceSettlingIsBitIdentical) {
  // The loop stops re-solving its idle-floor reference once a solve of it
  // reports 0 iterations; that flag is derived, not saved.  A snapshot
  // taken after epoch 0 (reference not yet settled) or after epoch 4
  // (settled) must resume to the uninterrupted run, also when loaded into
  // a loop that has already settled on its own.
  cosim::CosimOptions o;
  o.noc.mesh.integrity.enabled = true;
  o.epoch_cycles = 16;
  o.workload.cls = workloads::WorkloadClass::SpikingBurst;
  o.workload.seed = 5;
  o.workload.spiking.background_rate = 0.02;
  o.workload.spiking.burst_interval = 50;
  o.workload.spiking.hotspot = {3, 4};
  constexpr std::uint64_t kEpochs = 10;
  cosim::CosimLoop straight(o);
  straight.run_epochs(kEpochs);
  const std::vector<std::uint8_t> want =
      cosim::serialize_report(straight.report());

  for (const std::uint64_t done : {1u, 5u}) {
    SCOPED_TRACE("snapshot after " + std::to_string(done) + " epochs");
    cosim::CosimLoop first(o);
    first.run_epochs(done);
    ckpt::Writer w;
    first.save_state(w);

    cosim::CosimLoop fresh(o);
    cosim::CosimLoop rewound(o);
    rewound.run_epochs(kEpochs);
    for (cosim::CosimLoop* loop : {&fresh, &rewound}) {
      ckpt::Reader r(w.bytes());
      loop->load_state(r);
      loop->run_epochs(kEpochs - done);
      EXPECT_EQ(loop->epochs(), straight.epochs());
      EXPECT_EQ(loop->state_fingerprint(), straight.state_fingerprint());
      EXPECT_EQ(cosim::serialize_report(loop->report()), want);
      for (std::size_t i = 0; i < straight.last_static_pdn().tiles.size();
           ++i)
        EXPECT_EQ(loop->last_static_pdn().tiles[i].supply_v,
                  straight.last_static_pdn().tiles[i].supply_v);
    }
  }
}

TEST(WorkloadCkpt, GeneratorFrameBytesArePinned) {
  struct Pin {
    workloads::WorkloadClass cls;
    std::size_t size;
    std::uint32_t crc;
  };
  const Pin pins[] = {
      {workloads::WorkloadClass::Synthetic, 52, 0xb0dc73e7u},
      {workloads::WorkloadClass::AllReduceRing, 12, 0x2791c22cu},
      {workloads::WorkloadClass::HaloExchange, 12, 0x4eaa6378u},
      {workloads::WorkloadClass::LayerPipeline, 12, 0xfc99611au},
      {workloads::WorkloadClass::SpikingBurst, 172, 0xa2e78640u},
      {workloads::WorkloadClass::GraphWave, 36, 0x519a312cu},
  };
  const SystemConfig config = SystemConfig::reduced(8, 8);
  FaultMap faults(config.grid());
  faults.set_faulty({6, 1}, true);
  for (const Pin& pin : pins) {
    SCOPED_TRACE(workloads::to_string(pin.cls));
    workloads::WorkloadSpec spec;
    spec.cls = pin.cls;
    spec.seed = 17;
    spec.synthetic.injection_rate = 0.1;
    spec.spiking.burst_rate = 0.2;
    const auto gen = workloads::make_generator(spec, config, faults);
    std::vector<workloads::Injection> out;
    for (int c = 0; c < 37; ++c) gen->emit(out);
    ckpt::Writer w;
    gen->save_state(w);
    expect_pinned(w.bytes(), pin.size, pin.crc);

    const auto same = workloads::make_generator(spec, config, faults);
    ckpt::Reader r(w.bytes());
    same->load_state(r);
    EXPECT_TRUE(r.done());
    ckpt::Writer again;
    same->save_state(again);
    EXPECT_EQ(again.bytes(), w.bytes());
  }
}

TEST(HeartbeatCkpt, FrameBytesArePinned) {
  const std::string path = "CKPT_pinned_heartbeat.wsp";
  const ckpt::Heartbeat hb{3, 2, 41, 0x1234567890ull};
  ckpt::save_heartbeat(path, hb);
  const std::vector<std::uint8_t> bytes = ckpt::read_file(path);
  expect_pinned(bytes, 56, 0x24886e04u);
  EXPECT_EQ(ckpt::load_heartbeat(path), hb);
  ckpt::save_heartbeat(path, ckpt::load_heartbeat(path));
  EXPECT_EQ(ckpt::read_file(path), bytes);
  std::remove(path.c_str());
}

TEST(NocCkpt, PendingPacketOutsideGridIsRejected) {
  const TileGrid grid(8, 8);
  noc::NocSystem noc{FaultMap(grid)};
  ASSERT_TRUE(noc.issue({1, 1}, {6, 5}, noc::PacketType::ReadRequest));
  ASSERT_TRUE(noc.issue({2, 3}, {0, 7}, noc::PacketType::WriteRequest));
  std::vector<std::uint8_t> bytes = noc_bytes(noc);
  // PEND: tag, count, then due_cycle, seq and the packet, src.x first.
  put_i32(bytes, find_tag(bytes, "PEND") + 4 + 8 + 16, 100000);
  expect_schema_mismatch(bytes, [&](ckpt::Reader& r) {
    noc::NocSystem target{FaultMap(grid)};
    target.load_state(r);
  });
}

TEST(NocCkpt, LiveIdAtOrAboveNextIdIsRejected) {
  // issue() would hand such an id out again and drive the stale record
  // with the new transaction's packets.
  const TileGrid grid(8, 8);
  noc::NocSystem noc{FaultMap(grid)};
  ASSERT_TRUE(noc.issue({1, 1}, {6, 5}, noc::PacketType::ReadRequest));
  ASSERT_EQ(noc.next_transaction_id(), 2u);
  std::vector<std::uint8_t> bytes = noc_bytes(noc);
  // LIVE: tag, count, then each record, its id first.
  const std::size_t first = find_tag(bytes, "LIVE") + 4 + 8;
  ASSERT_EQ(get_u64(bytes, first), 1u);
  for (const std::uint64_t id : {2u, 3u}) {
    put_u64(bytes, first, id);
    expect_schema_mismatch(bytes, [&](ckpt::Reader& r) {
      noc::NocSystem target{FaultMap(grid)};
      target.load_state(r);
    });
  }
}

TEST(NocCkpt, RestoredIdAtOrAboveNextIdIsRejected) {
  // A deadline or packet for an id not yet issued would act on the
  // transaction that later gets that id: the deadline below, edited to
  // (due 5, id 2), would time out the next 1-hop issue() within 6 cycles
  // under a 300-cycle timeout.
  const TileGrid grid(8, 8);
  noc::NocOptions opt;
  opt.response_timeout = 300;
  const auto load = [&](ckpt::Reader& r) {
    noc::NocSystem target(FaultMap(grid), opt);
    target.load_state(r);
  };
  noc::NocSystem noc(FaultMap(grid), opt);
  constexpr std::uint64_t kPayload = 0x0123456789abcdefu;
  ASSERT_EQ(noc.issue({1, 1}, {6, 5}, noc::PacketType::WriteRequest, kPayload),
            1u);
  const std::vector<std::uint8_t> issued = noc_bytes(noc);

  // DDLN: tag, count, then (u64 due, u64 id, u32 attempt).
  std::vector<std::uint8_t> bytes = issued;
  const std::size_t ddln = find_tag(bytes, "DDLN") + 4 + 8;
  ASSERT_EQ(get_u64(bytes, ddln + 8), 1u);
  put_u64(bytes, ddln, 5);
  put_u64(bytes, ddln + 8, 2);
  expect_schema_mismatch(bytes, load);

  // PEND: tag, count, due, seq, then the packet, its id 30 bytes in.
  bytes = issued;
  const std::size_t pend = find_tag(bytes, "PEND") + 4 + 8 + 16 + 30;
  ASSERT_EQ(get_u64(bytes, pend), 1u);
  put_u64(bytes, pend, 2);
  expect_schema_mismatch(bytes, load);

  // One step later the request is in the XY mesh: found by its payload,
  // its id 12 bytes further on.
  std::vector<noc::CompletedTransaction> done;
  noc.step(done);
  bytes = noc_bytes(noc);
  std::vector<std::uint8_t> needle(8);
  put_u64(needle, 0, kPayload);
  const auto mesh = bytes.begin() +
                    static_cast<std::ptrdiff_t>(find_tag(bytes, "MESH"));
  const auto it = std::search(mesh, bytes.end(), needle.begin(), needle.end());
  ASSERT_NE(it, bytes.end());
  const auto id = static_cast<std::size_t>(it - bytes.begin()) + 12;
  ASSERT_EQ(get_u64(bytes, id), 1u);
  put_u64(bytes, id, 2);
  expect_schema_mismatch(bytes, load);
}

TEST(NocCkpt, BerMapOfAnotherGridIsTopologyMismatch) {
  // The frame's one BERM block swapped for a 6x6 map.
  const TileGrid grid(8, 8);
  noc::NocSystem source{FaultMap(grid)};
  std::vector<std::uint8_t> bytes = noc_bytes(source);
  const std::size_t at = find_tag(bytes, "BERM");
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at),
              bytes.begin() + static_cast<std::ptrdiff_t>(
                                  at + 12 + grid.tile_count() * 4 * 8));
  const TileGrid other(6, 6);
  ckpt::Writer berm;
  berm.tag(ckpt::fourcc("BERM"));
  berm.i32(other.width());
  berm.i32(other.height());
  ckpt::save_each(berm, noc::LinkBerMap::uniform(other, 1e-4).bers());
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
               berm.bytes().begin(), berm.bytes().end());
  noc::NocSystem target{FaultMap(grid)};
  ckpt::Reader r(bytes);
  try {
    target.load_state(r);
    FAIL() << "expected ckpt::Error";
  } catch (const ckpt::Error& e) {
    EXPECT_EQ(e.kind(), ckpt::ErrorKind::TopologyMismatch) << e.what();
  }
}

TEST(NocCkpt, StrandedPacketsAtADeadTileAreRejected) {
  // A dead tile neither injects nor routes, so a ready queue or an input
  // FIFO there would never drain: drain() would spin to max_cycles.  Mark
  // the tile of MidTraffic's (5,5) backlog faulty in the frame's one FMAP.
  const MidTraffic mid;
  std::vector<std::uint8_t> bytes = mid.frame();
  // FMAP: tag, width, height, then a byte per tile by index.
  bytes[find_tag(bytes, "FMAP") + 12 + mid.grid.index_of({5, 5})] = 1;
  expect_schema_mismatch(
      bytes,
      [&](ckpt::Reader& r) {
        noc::NocSystem target(mid.faults, mid.opt);
        target.load_state(r);
      },
      "ready queue at a faulty source tile");

  // A mesh FIFO: one packet waits in the Local FIFO of (1,1); a cycle later
  // it is on the wire toward (2,1).  A frame bound for a dead tile drops
  // on arrival, so that snapshot stays legal.
  const TileGrid grid(8, 8);
  noc::MeshNetwork mesh(FaultMap(grid), noc::NetworkKind::XY);
  noc::Packet p;
  p.src = {1, 1};
  p.dst = {5, 6};
  ASSERT_TRUE(mesh.inject(p));
  const auto load_with_dead = [&](TileCoord dead) {
    return [&grid, dead](ckpt::Reader& r) {
      FaultMap faults(grid);
      faults.set_faulty(dead);
      noc::MeshNetwork target(faults, noc::NetworkKind::XY);
      target.load_state(r);
      EXPECT_EQ(target.in_flight(), 1u);
    };
  };
  ckpt::Writer queued;
  mesh.save_state(queued);
  expect_schema_mismatch(queued.bytes(), load_with_dead({1, 1}),
                         "input FIFO at a faulty tile");
  std::vector<noc::Packet> ejected;
  mesh.step(ejected);
  ckpt::Writer on_wire;
  mesh.save_state(on_wire);
  ckpt::Reader r(on_wire.bytes());
  load_with_dead({2, 1})(r);
  EXPECT_TRUE(r.done());
}

TEST(NocCkpt, FrameHoldsEachFactOnce) {
  // The fault state and the BER map ride the NOCS head once; the MESH
  // sections hold only what the meshes evolve.  A fresh system built on a
  // healthy wafer takes all three from the frame: it re-saves the same
  // bytes, both meshes sample the saved map, and 300 more cycles match
  // the system that never stopped.  The snapshot follows a tile death and
  // a link retirement under traffic, so packets still in flight toward
  // both drop only if the meshes route by the restored state.
  const TileGrid grid(12, 12);
  FaultMap faults(grid);
  faults.set_faulty({7, 4}, true);
  noc::NocOptions opt;
  opt.response_timeout = 200;
  opt.mesh.integrity.enabled = true;
  noc::NocSystem noc(faults, opt);
  noc::LinkBerMap ber(grid);
  ber.set_ber({2, 2}, Direction::East, 3e-3);
  ber.set_ber({9, 10}, Direction::South, 5e-4);
  ber.set_ber({6, 6}, Direction::West, 1e-3);
  noc.set_link_ber(ber);
  const auto gen = uniform_traffic(faults, 0.05, 3);
  workloads::TrafficDriver driver(noc, *gen);
  for (int c = 0; c < 150; ++c) driver.step();
  faults.set_faulty({5, 6}, true);
  noc.apply_fault_state(faults);
  gen->apply_fault_state(faults);
  ASSERT_TRUE(noc.retire_link({3, 5}, Direction::North));
  const std::vector<std::uint8_t> bytes = noc_bytes(noc);
  ckpt::Writer gen_bytes;
  gen->save_state(gen_bytes);

  for (const char* tag : {"FMAP", "LFLT", "BERM"}) {
    std::size_t n = 0;
    for (auto at = bytes.begin();
         (at = std::search(at, bytes.end(), tag, tag + 4)) != bytes.end();
         ++at)
      ++n;
    EXPECT_EQ(n, 1u) << tag;
  }

  noc::NocSystem same(FaultMap(grid), opt);
  ckpt::Reader r(bytes);
  same.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(noc_bytes(same), bytes);
  EXPECT_EQ(same.faults(), faults);
  for (const noc::NetworkKind k : {noc::NetworkKind::XY, noc::NetworkKind::YX})
    EXPECT_EQ(same.network(k).link_ber().bers(), ber.bers());

  const auto same_gen = uniform_traffic(faults, 0.05, 1);
  ckpt::Reader gr(gen_bytes.bytes());
  same_gen->load_state(gr);
  workloads::TrafficDriver same_driver(same, *same_gen);
  for (int c = 0; c < 300; ++c) {
    driver.step();
    same_driver.step();
  }
  EXPECT_GT(noc.stats().link_retransmits, 0u);
  EXPECT_GT(noc.network(noc::NetworkKind::XY).stats().dropped_at_fault +
                noc.network(noc::NetworkKind::YX).stats().dropped_at_fault,
            0u);
  EXPECT_EQ(noc_bytes(same), noc_bytes(noc));
}

TEST(NocCkpt, FarNextIdLoadsInMemoryOfTheLiveCount) {
  // The id window is sized by the live count, not by the span from the
  // oldest live id to the next id: a frame whose next id lies 2^40 or
  // 2^64 - 1 past its one live transaction loads without a span-sized
  // allocation, re-saves byte-identically and still completes it.
  const TileGrid grid(8, 8);
  noc::NocSystem noc{FaultMap(grid)};
  const auto id = noc.issue({1, 1}, {6, 5}, noc::PacketType::ReadRequest);
  ASSERT_TRUE(id);
  std::vector<std::uint8_t> bytes = noc_bytes(noc);
  // (cycle, next id, pending seq) as three u64s just before LIVE.
  const std::size_t next = find_tag(bytes, "LIVE") - 16;
  ASSERT_EQ(get_u64(bytes, next), 2u);
  for (const std::uint64_t far : {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    put_u64(bytes, next, far);
    noc::NocSystem target{FaultMap(grid)};
    ckpt::Reader r(bytes);
    target.load_state(r);
    EXPECT_TRUE(r.done());
    EXPECT_TRUE(target.is_inflight(*id));
    EXPECT_EQ(target.inflight_transactions(), 1u);
    EXPECT_EQ(noc_bytes(target), bytes);
    std::vector<noc::CompletedTransaction> done;
    EXPECT_TRUE(target.drain(done, 1000));
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].id, *id);
  }
}

// The v3 MESH layout, walked from a payload: FIFO occupancy per tile and
// port, and the offset of each busy link's ring record by link id.
struct MeshLayout {
  static constexpr std::size_t kPacket = ckpt::min_encoded_size<noc::Packet>;
  static constexpr std::size_t kFrame = 8 + 1 + 1 + kPacket;
  std::vector<std::array<std::uint16_t, noc::kPortCount>> fifo;
  std::map<std::uint32_t, std::size_t> ring;

  MeshLayout(const std::vector<std::uint8_t>& b, std::size_t tiles) {
    std::size_t at = find_tag(b, "TILE") + 4;
    for (std::size_t t = 0; t < tiles; ++t) {
      const std::uint8_t mask = b[at + noc::kPortCount];
      at += noc::kPortCount + 1;
      auto& sizes = fifo.emplace_back();
      for (std::size_t p = 0; p < noc::kPortCount; ++p) {
        if (!(mask >> p & 1)) continue;
        sizes[p] = static_cast<std::uint16_t>(b[at] | b[at + 1] << 8);
        at += 2 + sizes[p] * kPacket;
      }
    }
    EXPECT_TRUE(std::equal(b.begin() + static_cast<std::ptrdiff_t>(at),
                           b.begin() + static_cast<std::ptrdiff_t>(at + 4),
                           "LINK"));
    const std::uint64_t busy = get_u64(b, at + 4);
    at += 12;
    for (std::uint64_t k = 0; k < busy; ++k) {
      ring[static_cast<std::uint32_t>(get_u64(b, at))] = at;  // u32 link id
      at += 6 + count(b, at) * kFrame;
    }
  }
  static std::size_t count(const std::vector<std::uint8_t>& b,
                           std::size_t ring_at) {
    return static_cast<std::size_t>(b[ring_at + 4] | b[ring_at + 5] << 8);
  }
};

TEST(MeshCkpt, RingBeyondDownstreamRoomIsRejected) {
  // Two streams converge on (1,0) of a 3x1 wafer.  Its one ejection port
  // drains them at half their arrival rate, so the West FIFO and the link
  // feeding it back up.  After a cycle in which the ejection port served
  // East, as after 41 cycles, every credit of that FIFO is held: by a
  // queued packet or by a frame on the wire.  One more frame on that link
  // would overflow the FIFO on landing, so the loader must refuse it.
  const TileGrid grid(3, 1);
  const FaultMap faults(grid);
  noc::MeshNetwork mesh(faults, noc::NetworkKind::XY);
  std::vector<noc::Packet> ejected;
  for (std::uint64_t c = 0; c < 41; ++c) {
    for (const TileCoord src : {TileCoord{0, 0}, TileCoord{2, 0}}) {
      noc::Packet p;
      p.src = src;
      p.dst = {1, 0};
      p.id = c * 2 + static_cast<std::uint64_t>(src.x) / 2 + 1;
      mesh.inject(p);
    }
    ejected.clear();
    mesh.step(ejected);
  }
  ckpt::Writer w;
  mesh.save_state(w);
  std::vector<std::uint8_t> bytes = w.bytes();

  const MeshLayout layout(bytes, grid.tile_count());
  const std::uint32_t east_of_0 = static_cast<std::uint32_t>(Direction::East);
  ASSERT_EQ(layout.ring.count(east_of_0), 1u);
  const std::size_t ring = layout.ring.at(east_of_0);
  const std::size_t frames = MeshLayout::count(bytes, ring);
  const std::size_t queued =
      layout.fifo[1][static_cast<std::size_t>(noc::Port::West)];
  const auto cap = static_cast<std::size_t>(
      noc::MeshOptions{}.input_queue_capacity);
  ASSERT_EQ(frames + queued, cap);
  ASSERT_LT(frames, cap);  // the ring alone still fits its own capacity

  {  // The untampered frame loads.
    noc::MeshNetwork same(faults, noc::NetworkKind::XY);
    ckpt::Reader r(bytes);
    same.load_state(r);
    EXPECT_TRUE(r.done());
  }
  // Repeat the ring's first frame: one frame more than the FIFO has room
  // for.  Count it as injected too, so packet conservation still holds
  // and only the credit check can refuse the frame.
  bytes[ring + 4] = static_cast<std::uint8_t>(frames + 1);
  const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(ring + 6);
  const std::vector<std::uint8_t> frame(first, first + MeshLayout::kFrame);
  bytes.insert(first, frame.begin(), frame.end());
  const std::size_t injected = find_tag(bytes, "CNTR") + 4;
  put_u64(bytes, injected, get_u64(bytes, injected) + 1);
  expect_schema_mismatch(bytes, [&](ckpt::Reader& r) {
    noc::MeshNetwork target(faults, noc::NetworkKind::XY);
    target.load_state(r);
  });
}

TEST(MeshCkpt, PoolPacketOutsideGridIsRejected) {
  const TileGrid grid(8, 8);
  const FaultMap faults(grid);
  noc::MeshNetwork mesh(faults, noc::NetworkKind::XY);
  noc::Packet p;
  p.src = {1, 1};
  p.dst = {5, 6};
  ASSERT_TRUE(mesh.inject(p));
  ckpt::Writer w;
  mesh.save_state(w);
  std::vector<std::uint8_t> bytes = w.bytes();
  // TILE: tag, then per tile five priorities and a FIFO mask, six bytes
  // for an idle tile.  Tile (1,1) holds the packet in its Local FIFO: mask,
  // count, then the packet, dst.x at offset 8.
  const std::size_t tile = find_tag(bytes, "TILE") + 4 + 9 * 6;
  ASSERT_EQ(bytes[tile + 5], 1u << static_cast<int>(noc::Port::Local));
  ASSERT_EQ(bytes[tile + 6], 1u);
  put_i32(bytes, tile + 8 + 8, -3);
  expect_schema_mismatch(bytes, [&](ckpt::Reader& r) {
    noc::MeshNetwork target(faults, noc::NetworkKind::XY);
    target.load_state(r);
  });
}

// A COSM payload after one epoch, so the activity snapshot and both
// warm-start seeds are populated.
std::vector<std::uint8_t> cosim_after_one_epoch(const cosim::CosimOptions& o) {
  cosim::CosimLoop loop(o);
  loop.run_epochs(1);
  ckpt::Writer w;
  loop.save_state(w);
  return w.bytes();
}

TEST(MeshCkpt, VersionTwoFrameIsVersionMismatch) {
  // MESH v3 dropped every storage index from the wire, v4 shrank the
  // option block, v5 dropped the per-link RNG states and v6 the fault
  // state and BER map.  A v2 to v5 MESH section, alone or inside a NOCS or
  // COSM payload, is refused at its version word.
  const auto expect_version_mismatch = [](std::vector<std::uint8_t> bytes,
                                          auto&& load) {
    const std::size_t at = find_tag(bytes, "MESH") + 4;
    ASSERT_EQ(bytes[at], 6u);
    for (const std::uint8_t old : {2, 3, 4, 5}) {
      bytes[at] = old;
      ckpt::Reader r(bytes);
      try {
        load(r);
        FAIL() << "v" << int{old} << " mesh section loaded";
      } catch (const ckpt::Error& e) {
        EXPECT_EQ(e.kind(), ckpt::ErrorKind::VersionMismatch) << e.what();
      }
    }
  };
  const TileGrid grid(6, 6);
  const FaultMap faults(grid);
  noc::MeshNetwork mesh(faults, noc::NetworkKind::XY);
  ckpt::Writer mw;
  mesh.save_state(mw);
  expect_version_mismatch(mw.bytes(), [&](ckpt::Reader& r) {
    noc::MeshNetwork target(faults, noc::NetworkKind::XY);
    target.load_state(r);
  });

  noc::NocSystem noc{faults};
  ASSERT_TRUE(noc.issue({0, 0}, {4, 5}, noc::PacketType::ReadRequest));
  expect_version_mismatch(noc_bytes(noc), [&](ckpt::Reader& r) {
    noc::NocSystem target{faults};
    target.load_state(r);
  });

  const cosim::CosimOptions o;
  expect_version_mismatch(cosim_after_one_epoch(o), [&](ckpt::Reader& r) {
    cosim::CosimLoop target(o);
    target.load_state(r);
  });
}

TEST(CosimCkpt, ActivitySnapshotOfWrongTileCountIsRejected) {
  // The epoch's activity rides each mesh's TACT block, three counters per
  // tile and no count: a block one tile short misframes the rest.
  const cosim::CosimOptions o;
  std::vector<std::uint8_t> bytes = cosim_after_one_epoch(o);
  erase(bytes, find_tag(bytes, "TACT") + 4, 24);
  cosim::CosimLoop target(o);
  ckpt::Reader r(bytes);
  EXPECT_THROW(target.load_state(r), ckpt::Error);
}

TEST(CosimCkpt, ShortWarmStartSeedIsRejected) {
  const cosim::CosimOptions o;
  std::vector<std::uint8_t> bytes = cosim_after_one_epoch(o);
  const std::size_t at = find_tag(bytes, "SEED") + 4 + 8;
  const std::uint64_t len = get_u64(bytes, at);
  ASSERT_GT(len, 0u);
  put_u64(bytes, at, len - 1);
  erase(bytes, at + 8, 8);
  expect_schema_mismatch(bytes, [&](ckpt::Reader& r) {
    cosim::CosimLoop target(o);
    target.load_state(r);
  });
}

TEST(CosimCkpt, WrongSeedCountIsRejected) {
  const cosim::CosimOptions o;
  std::vector<std::uint8_t> bytes = cosim_after_one_epoch(o);
  const std::size_t at = find_tag(bytes, "SEED") + 4;
  ASSERT_EQ(get_u64(bytes, at), 2u);
  put_u64(bytes, at, 1);
  // Drop the second buffer: its length word and its doubles.
  const std::size_t second = at + 8 + 8 + get_u64(bytes, at + 8) * 8;
  erase(bytes, second, 8 + get_u64(bytes, second) * 8);
  expect_schema_mismatch(bytes, [&](ckpt::Reader& r) {
    cosim::CosimLoop target(o);
    target.load_state(r);
  });
}

TEST(MeshCkpt, WrongKindIsTypedError) {
  const TileGrid grid(6, 6);
  const FaultMap faults(grid);
  noc::MeshNetwork xy(faults, noc::NetworkKind::XY);
  ckpt::Writer w;
  xy.save_state(w);
  noc::MeshNetwork yx(faults, noc::NetworkKind::YX);
  ckpt::Reader r(w.bytes());
  EXPECT_THROW(yx.load_state(r), ckpt::Error);
}

TEST(ObsCkpt, HistogramAndRegistryRoundTrip) {
  // The Histogram hooks are what NOCS and TrafficDriver frames embed; the
  // registry itself is rebuilt by its owner, never snapshotted.
  obs::Histogram h;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) h.record(rng.below(100000));

  ckpt::Writer w;
  h.save_state(w);
  obs::Histogram loaded;
  loaded.record(9);  // prior contents are replaced, not merged
  ckpt::Reader r(w.bytes());
  loaded.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(loaded, h);
  EXPECT_EQ(loaded.count(), h.count());
  EXPECT_EQ(loaded.sum(), h.sum());
  EXPECT_EQ(loaded.percentile(0.99), h.percentile(0.99));
}

// A HIST frame holding the runs {3 x 2, 7 x 5, 40 x 1}, and the offset of
// run `i`'s value word (its count word follows).
std::vector<std::uint8_t> three_run_hist() {
  obs::Histogram h;
  for (const std::uint64_t v : {7, 3, 7, 40, 7, 3, 7, 7}) h.record(v);
  ckpt::Writer w;
  h.save_state(w);
  EXPECT_EQ(get_u64(w.bytes(), 4), 3u);
  return w.bytes();
}
std::size_t run_at(std::size_t i) { return 4 + 8 + 16 * i; }

void expect_hist_rejected(const std::vector<std::uint8_t>& bytes) {
  expect_schema_mismatch(bytes, [](ckpt::Reader& r) {
    obs::Histogram target;
    target.load_state(r);
  });
}

TEST(ObsCkpt, HistogramFrameIsTheRunList) {
  const std::vector<std::uint8_t> bytes = three_run_hist();
  EXPECT_EQ(bytes.size(), run_at(3));
  EXPECT_EQ(get_u64(bytes, run_at(1)), 7u);
  EXPECT_EQ(get_u64(bytes, run_at(1) + 8), 5u);
  obs::Histogram loaded;
  ckpt::Reader r(bytes);
  loaded.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(loaded.count(), 8u);
  EXPECT_EQ(loaded.sum(), 3u * 2 + 7u * 5 + 40u);
}

TEST(ObsCkpt, HistogramRunsOutOfOrderAreRejected) {
  std::vector<std::uint8_t> equal = three_run_hist();
  put_u64(equal, run_at(2), 7);  // a repeated value
  expect_hist_rejected(equal);
  std::vector<std::uint8_t> descending = three_run_hist();
  put_u64(descending, run_at(0), 9);
  expect_hist_rejected(descending);
}

TEST(ObsCkpt, HistogramZeroCountRunIsRejected) {
  std::vector<std::uint8_t> bytes = three_run_hist();
  put_u64(bytes, run_at(1) + 8, 0);
  expect_hist_rejected(bytes);
}

TEST(ObsCkpt, HistogramCountOverflowIsRejected) {
  std::vector<std::uint8_t> bytes = three_run_hist();
  put_u64(bytes, run_at(0) + 8, UINT64_MAX - 5);  // total wraps at run 2
  expect_hist_rejected(bytes);
  // The largest total that fits still loads.
  put_u64(bytes, run_at(0) + 8, UINT64_MAX - 6);
  obs::Histogram at_limit;
  ckpt::Reader r(bytes);
  at_limit.load_state(r);
  EXPECT_EQ(at_limit.count(), UINT64_MAX);
  EXPECT_EQ(at_limit.percentile(1.0), 40u);
}

TEST(NocCkpt, VersionThreeFrameIsVersionMismatch) {
  // NOCS v4 carries the latency histogram as its run list, v5 a smaller
  // option block, v6 no staged BER map and v7 the fault state and BER map
  // once; a v3 to v6 section is refused at its version word.
  const TileGrid grid(6, 6);
  const FaultMap faults(grid);
  noc::NocSystem noc{faults};
  std::vector<std::uint8_t> bytes = noc_bytes(noc);
  const std::size_t at = find_tag(bytes, "NOCS") + 4;
  ASSERT_EQ(bytes[at], 7u);
  for (const std::uint8_t old : {3, 4, 5, 6}) {
    bytes[at] = old;
    noc::NocSystem target{faults};
    ckpt::Reader r(bytes);
    try {
      target.load_state(r);
      FAIL() << "v" << int{old} << " NOCS section loaded";
    } catch (const ckpt::Error& e) {
      EXPECT_EQ(e.kind(), ckpt::ErrorKind::VersionMismatch) << e.what();
    }
  }
}

}  // namespace
}  // namespace wsp
