// The full waferscale NoC: two DoR networks plus the kernel-software
// routing policy (Sec. VI, Fig. 7).
//
// Protocol rules reproduced from the paper:
//   * Requests and responses travel on complementary networks: a request
//     sent X-Y is answered Y-X, so the pair traverses the same tiles
//     (two-way communication works whenever one non-faulty path exists)
//     and request/response deadlock is impossible.
//   * The kernel consults the post-assembly fault map: if only one of the
//     two paths between a pair is healthy it uses that one; if both are
//     healthy it load-balances pairs across the networks — but *all*
//     packets of one source/destination pair stay on one network so
//     packets arrive in order.
//   * If neither direct path is healthy, the kernel routes via an
//     intermediate tile whose core forwards the packets (two chained
//     transactions), costing extra hops and core cycles.
// The choice is NetworkSelector::plan (connectivity.hpp); every fault-state
// change builds a new selector.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "wsp/obs/metrics.hpp"

#include "wsp/common/fault_map.hpp"
#include "wsp/noc/connectivity.hpp"
#include "wsp/noc/mesh_network.hpp"
#include "wsp/noc/packet.hpp"

namespace wsp::noc {

/// Completed round-trip record.
struct CompletedTransaction {
  std::uint64_t id = 0;
  TileCoord src;
  TileCoord dst;
  PacketType request_type = PacketType::ReadRequest;
  std::uint64_t issue_cycle = 0;
  std::uint64_t complete_cycle = 0;
  bool relayed = false;
  std::uint64_t latency() const { return complete_cycle - issue_cycle; }
};

struct NocOptions {
  MeshOptions mesh{};
  /// End-to-end round-trip timeout in cycles; 0 disables the timeout/
  /// retry machinery (assembly-time behaviour: a static fault map never
  /// strands a planned transaction).  Enable for runtime fault injection.
  std::uint64_t response_timeout = 0;
  /// Bounded retries after a timeout; each retry replans against the
  /// *current* fault map, so transactions stranded by a runtime fault
  /// recover over the surviving network.
  int max_retries = 3;
  /// First retry waits this many cycles; each further retry doubles it
  /// (exponential backoff, so a congested wafer is not hammered).
  std::uint64_t retry_backoff_base = 32;
};

auto fields(Of<NocOptions> auto& o) {
  return std::tie(o.mesh, o.response_timeout, o.max_retries,
                  o.retry_backoff_base);
}

/// Value snapshot of the system-level counters.  The counters themselves
/// live in an obs::MetricsRegistry (system counters under "noc.", per-mesh
/// counters under "noc.xy." / "noc.yx.", round-trip latencies in the
/// "noc.latency" histogram); this struct is the stable public shape
/// assembled on demand by NocSystem::stats().
struct NocStats {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t unreachable = 0;  ///< rejected: no plan exists
  std::uint64_t relayed = 0;
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_max = 0;
  // Runtime-resilience accounting (all zero when response_timeout == 0):
  std::uint64_t timeouts = 0;      ///< round trips that missed the deadline
  std::uint64_t retries = 0;       ///< re-issues after a timeout
  std::uint64_t lost = 0;          ///< permanently lost (retries exhausted
                                   ///< or no surviving route on replan)
  std::uint64_t stale_packets = 0; ///< late arrivals of superseded attempts
  std::uint64_t replans = 0;       ///< fault-map changes applied mid-run
  std::uint64_t corrupted = 0;     ///< packets killed by injected corruption
  // Link-integrity accounting (aggregated from both meshes; all zero when
  // NocOptions::mesh.integrity is off):
  std::uint64_t crc_detected = 0;      ///< wire corruptions caught by CRC
  std::uint64_t link_retransmits = 0;  ///< hop-level NACK/retransmit events
  std::uint64_t links_retired = 0;     ///< links predictively retired
  std::uint64_t escapes = 0;           ///< corruptions the CRC aliased on
  double mean_latency() const {
    return completed ? static_cast<double>(latency_sum) / completed : 0.0;
  }
};

auto fields(Of<NocStats> auto& s) {
  return std::tie(s.issued, s.completed, s.unreachable, s.relayed,
                  s.latency_sum, s.latency_max, s.timeouts, s.retries, s.lost,
                  s.stale_packets, s.replans, s.corrupted, s.crc_detected,
                  s.link_retransmits, s.links_retired, s.escapes);
}

/// Dual-network waferscale NoC with request/response semantics.
class NocSystem {
 public:
  /// Cycles the destination tile takes to produce a response (memory
  /// access through the intra-tile crossbar).
  static constexpr std::uint64_t kServiceLatency = 4;
  /// Core cycles an intermediate tile spends relaying one packet.
  static constexpr std::uint64_t kRelayLatency = 8;

  /// `metrics`: registry all NoC counters bind into (shared with both
  /// meshes).  When null the system owns a private registry — existing
  /// callers are unaffected.  Must outlive the NocSystem.
  NocSystem(const FaultMap& faults, const NocOptions& options = {},
            obs::MetricsRegistry* metrics = nullptr);

  /// Issues a read/write transaction.  Returns the transaction id, or
  /// nullopt when the kernel has no route (caller sees an unreachable
  /// tile) — also counted in stats().unreachable.
  std::optional<std::uint64_t> issue(TileCoord src, TileCoord dst,
                                     PacketType type,
                                     std::uint64_t payload = 0,
                                     std::uint32_t address = 0);

  /// Advances one cycle; completed transactions are appended to `done`.
  void step(std::vector<CompletedTransaction>& done);

  /// Runs until all in-flight transactions complete or `max_cycles` pass.
  /// Returns true when everything drained.
  bool drain(std::vector<CompletedTransaction>& done,
             std::uint64_t max_cycles = 1'000'000);

  /// Invoked when a request packet reaches its *final* destination tile,
  /// once its response is scheduled; it may issue().  Used by higher layers
  /// (e.g. the message-passing runtime in wsp/arch) to observe deliveries.
  using DeliveryListener = std::function<void(const Packet&)>;
  void set_delivery_listener(DeliveryListener listener) {
    delivery_listener_ = std::move(listener);
  }

  std::uint64_t now() const { return cycle_; }
  /// System-level stats.  Corruption and link-integrity counters are owned
  /// by the meshes (the layer that observes the wire) and aggregated here,
  /// so each event is counted exactly once.
  NocStats stats() const;
  /// Registry holding every NoC counter (system + both meshes): the bound
  /// one, or the internally owned fallback.
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  const NetworkSelector& selector() const { return selector_; }
  const MeshNetwork& network(NetworkKind k) const {
    return k == NetworkKind::XY ? xy_ : yx_;
  }
  std::size_t inflight_transactions() const {
    return txns_.size() - free_txns_.size();
  }
  bool is_inflight(std::uint64_t id) const { return live_slot(id) != kNone; }
  /// The id the next accepted issue() returns; every earlier id is below it.
  std::uint64_t next_transaction_id() const { return next_id_; }
  const FaultMap& faults() const { return faults_; }

  /// Adopts a new fault state mid-run (runtime fault injection): replaces
  /// the kernel's fault map, builds a new selector from it, and propagates
  /// the state to both mesh networks (purging packets stranded in dead
  /// routers).  Transactions stranded by the change recover via the
  /// timeout/retry machinery — enable options.response_timeout.
  void apply_fault_state(const FaultMap& faults, const LinkFaultSet& links);
  void apply_fault_state(const FaultMap& faults) {
    apply_fault_state(faults, links_);
  }

  /// Transient-fault model: corrupts (drops) one buffered packet at
  /// `tile`, preferring the XY network.  Returns true when a packet was
  /// killed; the owning transaction recovers via timeout + retry.
  bool inject_corruption(TileCoord tile);

  /// Sets the per-link BER map both meshes sample (takes effect only when
  /// NocOptions::mesh.integrity.enabled).  Re-call after every PDN
  /// re-solve so supply sag shows up on the wire.  The meshes step only
  /// inside step(), so the map is adopted between cycles and every cycle
  /// samples one coherent map: the last one set before it.  The grids must
  /// match (throws wsp::Error).  Taken by value: an rvalue map is moved
  /// into one mesh and copied into the other.
  void set_link_ber(LinkBerMap ber);
  /// Map the meshes sample, the last one set.
  const LinkBerMap& link_ber() const { return xy_.link_ber(); }

  /// Sums both meshes' per-tile activity since the previous take into
  /// `out` (assigned, sized to the tile count) and zeroes their counters:
  /// an epoch driver takes one epoch's activity per call.
  void take_tile_activity(std::vector<TileActivity>& out);

  /// Predictively retires the directed link leaving `from` toward `d`:
  /// marks it failed in the LinkFaultSet, builds a new selector and
  /// propagates to both meshes.  Returns false when the link leaves the
  /// array or is already retired.  Counted in stats().links_retired and
  /// stats().replans.
  bool retire_link(TileCoord from, Direction d);

  /// Detected CRC errors / traversal attempts charged to the directed link
  /// leaving `from`, summed over both meshes (LinkHealthMonitor input).
  std::uint64_t link_error_count(TileCoord from, Direction d) const;
  std::uint64_t link_traversal_count(TileCoord from, Direction d) const;

  /// Packet-conservation invariant of both meshes (see
  /// MeshNetwork::conservation_holds).
  bool packet_conservation_holds() const {
    return xy_.conservation_holds() && yx_.conservation_holds();
  }

  /// Checkpoint hooks (wsp::ckpt).  Captures the fault state and the BER
  /// map once, the full transaction layer — live transactions, timeout
  /// deadlines, deferred and ready injections, id/sequence allocators,
  /// counters and the latency histogram — and both meshes via their own
  /// hooks, so load + step is bit-identical to never having stopped.
  /// load_state hands the restored maps to both meshes before loading
  /// their sections.  The delivery listener is NOT captured (it is an
  /// arbitrary std::function); the owner re-attaches it after loading.
  /// load_state targets a system constructed over the same grid and
  /// options; mismatches throw ckpt::Error, as does a frame holding an id
  /// at or above its next id, or packets queued at a faulty tile (a ready
  /// queue or a mesh input FIFO there would never drain).
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

  /// Frames save_state into a "NOCS" container and writes it atomically.
  void save_checkpoint(const std::string& path) const;
  /// Loads a "NOCS" container produced by save_checkpoint into this
  /// system.  Throws ckpt::Error on any corruption or mismatch.
  void load_checkpoint(const std::string& path);

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::size_t kMinWindow = 1024;  ///< ids; a power of two

  struct LiveTransaction {
    std::uint64_t id = 0;
    RoutePlan plan;
    PacketType type;
    std::uint64_t payload;
    std::uint32_t address;
    std::uint64_t issue_cycle = 0;
    /// Current segment index; requests walk 0..n-1 forward, responses walk
    /// back.  `returning` flips at the final destination.
    std::size_t segment = 0;
    bool returning = false;
    std::uint32_t attempts = 0;  ///< retry generation currently in flight

    friend auto fields(Of<LiveTransaction> auto& t) {
      return std::tie(t.id, t.plan, t.type, t.payload, t.address,
                      t.issue_cycle, t.segment, t.returning, t.attempts);
    }
  };
  struct Deadline {
    std::uint64_t due_cycle;
    std::uint64_t id;
    std::uint32_t attempt;  ///< stale when != live attempt (lazy deletion)
    friend bool operator>(const Deadline& a, const Deadline& b) {
      return std::tie(a.due_cycle, a.id) > std::tie(b.due_cycle, b.id);
    }
    friend auto fields(Of<Deadline> auto& d) {
      return std::tie(d.due_cycle, d.id, d.attempt);
    }
  };
  /// Heap key of a deferred injection; the packet waits in packets_[slot].
  struct PendingInjection {
    std::uint64_t due_cycle;
    std::uint64_t seq;  ///< insertion order: makes heap order deterministic
    std::uint32_t slot;
    friend bool operator>(const PendingInjection& a,
                          const PendingInjection& b) {
      return std::tie(a.due_cycle, a.seq) > std::tie(b.due_cycle, b.seq);
    }
  };

  /// Registry-backed system counters resolved once at construction (the
  /// meshes bind their own under "noc.xy." / "noc.yx.").
  struct Counters {
    obs::Counter* issued = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* unreachable = nullptr;
    obs::Counter* relayed = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* lost = nullptr;
    obs::Counter* stale_packets = nullptr;
    obs::Counter* replans = nullptr;
    obs::Counter* links_retired = nullptr;
    obs::Histogram* latency = nullptr;  ///< round-trip cycles per completion

    friend auto fields(Of<Counters> auto& c) {
      return std::tie(c.issued, c.completed, c.unreachable, c.relayed,
                      c.timeouts, c.retries, c.lost, c.stale_packets,
                      c.replans, c.links_retired, c.latency);
    }
  };

  FaultMap faults_;
  LinkFaultSet links_;
  NocOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Counters ctr_;
  NetworkSelector selector_;
  MeshNetwork xy_;
  MeshNetwork yx_;
  std::uint64_t cycle_ = 0;
  std::uint64_t next_id_ = 1;
  /// Live transactions: a dense slab of records, found through a
  /// power-of-two window of slots keyed by id over [next_id_ - window size,
  /// next_id_) (one probe), and old_, the older live ids as sorted (id,
  /// slot) pairs.  add_live keeps the window under 16 entries per live
  /// transaction, so memory follows the live set, not the id span.
  std::vector<LiveTransaction> txns_;
  std::vector<std::uint32_t> free_txns_;
  std::vector<std::uint32_t> window_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> old_;
  /// Timeout deadlines, lazily invalidated, popped in (due, id) order from
  /// two sorted sources.  A first attempt is due at its issue cycle plus the
  /// timeout and ids rise with issue cycles: a FIFO from first_head_.  Only
  /// retries (due after a backoff) and restored deadlines need the heap.
  std::vector<Deadline> first_deadlines_;
  std::size_t first_head_ = 0;
  std::priority_queue<Deadline, std::vector<Deadline>, std::greater<>>
      retry_deadlines_;
  /// Packets between schedule() and injection, stored once in a slab;
  /// next_packet_ links each ready queue's slots.
  std::vector<Packet> packets_;
  std::vector<std::uint32_t> free_packets_;
  std::vector<std::uint32_t> next_packet_;
  std::priority_queue<PendingInjection, std::vector<PendingInjection>,
                      std::greater<>> pending_;  ///< min-heap by due cycle
  std::uint64_t pending_seq_ = 0;
  /// Packets due for injection, queued per (network, source tile) so a full
  /// local FIFO only stalls its own queue.  Each cycle serves the non-empty
  /// queues (ready_bits_) by ready_key: XY tiles ascending, then YX tiles.
  std::vector<std::uint32_t> ready_head_;  ///< kNone when empty
  std::vector<std::uint32_t> ready_tail_;
  std::vector<std::uint64_t> ready_bits_;
  std::size_t ready_count_ = 0;
  DeliveryListener delivery_listener_;
  /// Per-cycle ejection buffer, cleared (never shrunk) each step so the
  /// steady-state hot loop allocates nothing.
  std::vector<Packet> eject_scratch_;

  MeshNetwork& net(NetworkKind k) { return k == NetworkKind::XY ? xy_ : yx_; }
  std::uint32_t live_slot(std::uint64_t id) const {  // kNone unless live
    const std::size_t w = window_.size();
    if (next_id_ - id - 1 < w) return window_[id & (w - 1)];
    return old_.empty() ? kNone : old_slot(id);
  }
  std::uint32_t old_slot(std::uint64_t id) const;  // the rare path, out of line
  LiveTransaction& add_live(std::uint64_t id);
  /// Rebuilds window_ at `size` ids, taking back the old_ ids it covers.
  void resize_window(std::size_t size);
  void erase_live(std::uint64_t id);
  std::uint32_t store_packet(const Packet& p);
  std::size_t ready_key(NetworkKind n, std::size_t tile) const {
    return static_cast<std::size_t>(n) * (ready_head_.size() / 2) + tile;
  }
  void push_ready(std::size_t key, std::uint32_t slot);
  void schedule(std::uint64_t due, const Packet& p);
  void handle_ejection(const Packet& p,
                       std::vector<CompletedTransaction>& done);
  /// Schedules the request's first segment at `due`; arms its timeout.
  void send_request(const LiveTransaction& t, std::uint64_t due);
  void process_timeouts();
  static PacketType response_type(PacketType request) {
    return request == PacketType::ReadRequest ? PacketType::ReadResponse
                                              : PacketType::WriteAck;
  }
};

}  // namespace wsp::noc
