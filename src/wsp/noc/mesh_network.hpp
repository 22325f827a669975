// Cycle-level simulator of one DoR mesh network (Sec. VI).
//
// Each healthy tile carries one router per network with five ports
// (N, E, S, W, Local).  Packets are bus-wide (100 bits = one packet per
// link per cycle), so a router moves whole packets: every cycle each
// output port grants one waiting input packet (rotating priority),
// respecting downstream buffer credits, and ships it across the
// inter-chiplet link.  Links cross chiplet boundaries through asynchronous
// FIFOs (the BaseJump BSG IP in the real design), modelled as extra link
// latency — which is also why duty-cycle/jitter accumulation on the
// forwarded clock is tolerable (Sec. IV footnote 3).
//
// Faulty tiles have no functional router: nothing is ever granted toward
// them, and a packet whose DoR route demands one is dropped and counted
// (the kernel's fault-map discipline is what prevents this in practice).
//
// Link integrity (wsp/noc/link_integrity.hpp): when enabled, every link
// traversal samples the per-link BER channel.  A corrupted packet is
// caught by the hop CRC with probability 1 - 2^-8; the receiving hop
// NACKs it and the sender retransmits go-back-N style (frames behind the
// corrupted one on the same link are resent after it, so per-link — and
// therefore per-pair — ordering survives).  A packet that exhausts its
// bounded retransmit budget is dropped and recovers via the end-to-end
// timeout.  Escapes (corruption the CRC aliases on) are delivered with a
// poisoned payload and counted — detected-not-silent, quantified.
//
// ---------------------------------------------------------------------------
// Cycle semantics (see DESIGN.md "NoC cycle semantics")
//
// step() runs one cycle as two passes, then advances the cycle counter:
//
//   land   apply the credits returned since the last land, then pop every
//          due LinkTransfer off the links filed for this cycle, run it
//          through the BER channel (counter-based per-link draws) and push
//          it into the destination input queue.
//   route  arbitrate every router with FIFO occupancy, in ascending tile
//          index, against the credit snapshots.  The head of each busy
//          input requests one output, which sets that input's bit in the
//          output's request mask; each requested output, in ascending port
//          order, grants the first requester at or after its rotating
//          priority (one rotate and one countr_zero).  Grants pop the local
//          input queue and push onto the outgoing link ring, or eject.
//
// A slot freed by a pop becomes visible to the upstream sender one cycle
// later, as on real credit-return wires.  Each link has its own ring,
// landing FIFO, channel draws and sequence numbers, so land order cannot
// change the result; tile-index order in route fixes the ejection order.
//
// Events, not tiles.  A link with frames on the wire sits in one of kWheel
// buckets, filed under max(front arrival, now) mod kWheel; a front still in
// the future when its bucket comes up is filed again for another lap.
// Route walks a bitset of the tiles with FIFO occupancy.  Every FIFO pop on
// a link port (grant, route drop, corrupt_head_packet) queues one credit
// for its incoming link, applied at the next land, and a frame lost at land
// returns its credit at once.  So after each land every snapshot equals
// cap - FIFO size - frames on the wire, as if frozen afresh: an accepted
// landing or a retry leaves that sum unchanged.
// apply_fault_state() and load_state() recompute the snapshots and the
// wheel from the FIFOs and rings.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "wsp/common/fault_map.hpp"
#include "wsp/noc/link_integrity.hpp"
#include "wsp/noc/packet.hpp"
#include "wsp/noc/routing.hpp"
#include "wsp/obs/metrics.hpp"

namespace wsp::ckpt {
class Writer;
class Reader;
}  // namespace wsp::ckpt

namespace wsp::noc {

/// Router ports.  The first four alias the mesh directions.
enum class Port : std::uint8_t {
  North = 0, East = 1, South = 2, West = 3, Local = 4,
};
constexpr Port enum_max(Port) { return Port::Local; }
inline constexpr std::size_t kPortCount = 5;

struct MeshOptions {
  int input_queue_capacity = 4;  ///< packets per input FIFO
  int link_latency = 2;          ///< cycles per hop (wire + async FIFO sync)
  /// Route with the minimal-adaptive odd-even turn model instead of
  /// dimension order (the paper's future-work scheme, see
  /// wsp/noc/odd_even.hpp).  Deadlock-free without virtual channels; the
  /// adaptivity steers around congestion and faulty tiles.
  bool adaptive_odd_even = false;
  /// Hop-level BER channel + CRC/NACK protocol (off by default).
  LinkIntegrityOptions integrity{};
};

auto fields(Of<MeshOptions> auto& o) {
  return std::tie(o.input_queue_capacity, o.link_latency, o.adaptive_odd_even,
                  o.integrity);
}

/// Per-tile activity counters for epoch-coupled co-simulation (wsp::cosim).
/// A mesh counts since its owner last took them (take_tile_activity), so
/// a snapshot saved mid-epoch holds the epoch's partial counts and a
/// resumed run takes the same per-epoch activity.  `retransmits` are
/// charged to the *landing* tile of the corrupted hop (the receiver pays
/// the NACK/resend cost).
struct TileActivity {
  std::uint64_t injections = 0;   ///< packets entering at this source
  std::uint64_t traversals = 0;   ///< link grants leaving this tile
  std::uint64_t retransmits = 0;  ///< hop retransmits landing at this tile
};

constexpr auto fields(Of<TileActivity> auto& a) {
  return std::tie(a.injections, a.traversals, a.retransmits);
}

/// Value snapshot of one mesh's counters.  The counters themselves live in
/// an obs::MetricsRegistry (under "noc.xy." / "noc.yx."); this struct is
/// the stable public shape assembled on demand by MeshNetwork::stats().
struct MeshStats {
  std::uint64_t injected = 0;
  std::uint64_t ejected = 0;
  std::uint64_t dropped_at_fault = 0;  ///< routed into a faulty tile/link
  std::uint64_t link_traversals = 0;
  std::uint64_t cycles = 0;
  // Runtime-fault accounting (wsp::resilience):
  std::uint64_t purged_in_dead_router = 0;  ///< buffered in a tile that died
  std::uint64_t corrupted = 0;              ///< killed by injected corruption
  // Link-integrity accounting (all zero when integrity is off):
  std::uint64_t crc_detected = 0;      ///< wire corruptions caught by CRC
  std::uint64_t crc_escapes = 0;       ///< corruptions the CRC aliased on
  std::uint64_t link_retransmits = 0;  ///< hop-level NACK/retransmit events
  std::uint64_t link_error_drops = 0;  ///< retransmit budget exhausted
  std::uint64_t dup_dropped = 0;       ///< receiver-side sequence rejects
};

/// Checkpoint-load check for every pool or queue holding Packets: throws
/// ckpt::Error{SchemaMismatch} unless both endpoints lie in `grid`.
void expect_in_grid(const Packet& p, const TileGrid& grid);

/// One DoR network spanning the wafer.
class MeshNetwork {
 public:
  /// `metrics`: registry the mesh binds its counters into (names prefixed
  /// "noc.xy." / "noc.yx." by kind).  When null the mesh owns a private
  /// registry, so standalone meshes keep working unchanged.  The registry
  /// must outlive the mesh; binding a registry makes MeshNetwork move-only.
  MeshNetwork(const FaultMap& faults, NetworkKind kind,
              const MeshOptions& options = {},
              obs::MetricsRegistry* metrics = nullptr);

  NetworkKind kind() const { return kind_; }
  const TileGrid& grid() const { return grid_; }
  MeshStats stats() const;
  std::uint64_t now() const { return ctr_.cycles->value; }

  /// Registry holding this mesh's counters (the bound one, or the
  /// internally owned fallback).
  obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// True when the local injection FIFO at `src` can take a packet.
  bool can_inject(TileCoord src) const;

  /// Injects a packet at its source tile.  Returns false (and does
  /// nothing) when the local FIFO is full or the tile is faulty.
  bool inject(const Packet& packet);

  /// Advances one cycle (land, then route; see the header comment);
  /// appends packets ejected at their destination this cycle to `ejected`
  /// in tile-index order.  The buffer is append-only and identity-agnostic:
  /// callers may (and should) reuse one cleared-not-shrunk vector across
  /// cycles — results are identical either way.
  void step(std::vector<Packet>& ejected);

  /// Total packets buffered in routers or in flight on links.
  std::size_t in_flight() const { return in_flight_; }

  /// Test support: recounts in-flight packets the slow way (input queues +
  /// per-link rings).  Equal to in_flight() whenever the mesh is between
  /// cycles — the packet-conservation invariant.
  std::size_t recount_in_flight() const;

  /// Adopts a new fault state mid-run (runtime fault injection).  Packets
  /// buffered inside routers of newly dead tiles are purged and counted in
  /// stats().purged_in_dead_router; packets in flight on a link toward a
  /// dead tile are dropped on arrival.  The grids must match.
  void apply_fault_state(const FaultMap& faults, const LinkFaultSet& links);

  /// Transient-fault model: corrupts (drops) the oldest packet buffered at
  /// `tile`, scanning input ports in fixed order.  Returns the id of the
  /// killed packet, or nullopt when nothing is buffered there.  The lost
  /// packet surfaces upstream as a transaction timeout.
  std::optional<std::uint64_t> corrupt_head_packet(TileCoord tile);

  /// Adds the per-tile activity counted since the last take (see
  /// TileActivity) into `sum`, indexed by tile, and zeroes the counters.
  /// Always maintained: one increment per injection, grant or retry, not a
  /// branch.
  void take_tile_activity(std::vector<TileActivity>& sum);

  /// Binds the per-link BER map the channel model samples (no-op effect
  /// unless options.integrity.enabled).  Grids must match.  Taken by
  /// value: pass an rvalue to move the map in instead of copying it.
  void set_link_ber(LinkBerMap ber);
  const LinkBerMap& link_ber() const { return ber_; }

  /// Detected CRC errors charged to the directed link leaving `from`.
  std::uint64_t link_error_count(TileCoord from, Direction d) const;
  /// Traversal attempts (retransmissions included) on the same link.
  std::uint64_t link_traversal_count(TileCoord from, Direction d) const;

  /// Packet-conservation invariant: every injected packet is ejected,
  /// dropped at a fault, purged in a dead router, killed by corruption,
  /// dropped after exhausting its retransmit budget, rejected by the
  /// receiver sequence check, or still in flight.  Checked by tests at
  /// every drain point and asserted each cycle in debug builds.
  bool conservation_holds() const {
    return ctr_.injected->value ==
           ctr_.ejected->value + ctr_.dropped_at_fault->value +
               ctr_.purged_in_dead_router->value + ctr_.corrupted->value +
               ctr_.link_error_drops->value + ctr_.dup_dropped->value +
               in_flight_;
  }

  /// Checkpoint hooks (wsp::ckpt).  The snapshot captures the state the
  /// mesh evolves — the rotating priorities, the packets of every
  /// non-empty input FIFO and link ring in queue order, retransmit
  /// protocol state and counters — so a load followed by step() is
  /// bit-identical to never having stopped.  The channel draws need no
  /// state of their own: each is a pure function of the link id and its
  /// traversal count.  The snapshot is canonical and live-only: no free
  /// slot, ring head or pool index is written, error counts and retransmit
  /// watermarks only where they are non-zero and live, so a loaded mesh
  /// re-saves byte-identically.
  /// Storage (pool, free list, FIFO and ring heads, the occupied-tile
  /// bitset and busy-port masks, the arrival wheel) and derived tables
  /// (route9, link_ok_, neighbour maps, the credit snapshots) are rebuilt,
  /// not stored.
  /// The fault state and the BER map are not in the snapshot: the owner
  /// saves them (NocSystem writes each once) and must give this mesh the
  /// saver's, through apply_fault_state and set_link_ber, before
  /// load_state, which routes by the tables they built.
  /// load_state targets a mesh constructed over the same grid, kind and
  /// behavioural options as the saver; anything else, a ring holding more
  /// frames than its downstream FIFO has room for, an input-FIFO packet at
  /// a faulty tile, or a packet id at or above `id_limit` (the owner's
  /// next id) throws ckpt::Error (TopologyMismatch / SchemaMismatch).
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r,
                  std::uint64_t id_limit = ~std::uint64_t{0});

 private:
  /// One frame on a directed link (its ends and ports follow from the link
  /// id).  Carries a pool_ index instead of the 80-byte Packet so a hop
  /// moves 16 bytes of ring slab — the payload stays in the pool.
  struct LinkTransfer {
    std::uint64_t arrival_cycle = 0;
    std::uint32_t pkt = 0;         ///< pool_ index of the payload packet
    // Link-integrity protocol state:
    std::uint8_t seq = 0;          ///< 4-bit per-link sequence number
    std::uint8_t retransmits = 0;  ///< budget consumed by this traversal
  };

  /// Registry-backed counters resolved once at construction; incrementing
  /// through the pointers keeps the hot path equivalent to the old plain
  /// struct fields while the registry is the single source of truth.
  struct Counters {
    obs::Counter* injected = nullptr;
    obs::Counter* ejected = nullptr;
    obs::Counter* dropped_at_fault = nullptr;
    obs::Counter* link_traversals = nullptr;
    obs::Counter* cycles = nullptr;
    obs::Counter* purged_in_dead_router = nullptr;
    obs::Counter* corrupted = nullptr;
    obs::Counter* crc_detected = nullptr;
    obs::Counter* crc_escapes = nullptr;
    obs::Counter* link_retransmits = nullptr;
    obs::Counter* link_error_drops = nullptr;
    obs::Counter* dup_dropped = nullptr;

    friend auto fields(Of<Counters> auto& c) {
      return std::tie(c.injected, c.ejected, c.dropped_at_fault,
                      c.link_traversals, c.cycles, c.purged_in_dead_router,
                      c.corrupted, c.crc_detected, c.crc_escapes,
                      c.link_retransmits, c.link_error_drops, c.dup_dropped);
    }
  };

  // Route-table codes for tiles_[tile].route9[case]:
  //   0..3  forward out that Direction (the link is currently usable)
  //   4     eject (here == dst)
  //   5     the DoR direction is dead — drop at this router
  static constexpr std::uint8_t kRouteEject = 4;
  static constexpr std::uint8_t kRouteDrop = 5;

  TileGrid grid_;
  NetworkKind kind_;
  MeshOptions options_;
  std::size_t cap_ = 0;  ///< input_queue_capacity as size_t

  /// In-flight packet payloads.  Queues and link rings hold 4-byte indices
  /// into this pool, so the per-cycle working set is proportional to the
  /// packets actually in flight (tens of KB at realistic loads) instead of
  /// the multi-MB queue/ring slabs that dominated cache misses when the
  /// slabs stored whole Packets.  Slots are allocated only by inject()
  /// (between cycles) and released the moment their packet leaves the
  /// mesh; the order of free slots is internal and never observable.
  /// load_state rebuilds the pool densely from the snapshot's packets.
  std::vector<Packet> pool_;
  std::vector<std::uint32_t> pool_free_;

  /// All per-tile router state one arbitration pass reads, packed into a
  /// single cache line so route touches one line per router (land pushes
  /// into its queues, route pops).
  /// route9: precomputed DoR decision per sign-pair case — dimension-order
  /// routing only reads (sign(dst.x - x), sign(dst.y - y)), so the full
  /// (src, dst) table factors into 9 cases with link health folded in,
  /// rebuilt only on fault events (meaningless when routing adaptively:
  /// odd-even stays dynamic because its choice set depends on the packet
  /// source).  Case index: (sign(dx) + 1) * 3 + (sign(dy) + 1).
  struct alignas(64) TileState {
    std::array<std::uint16_t, kPortCount> q_head;  ///< FIFO head slot
    std::array<std::uint16_t, kPortCount> q_size;  ///< FIFO occupancy
    std::array<std::uint8_t, kPortCount> rr;  ///< per-output rotating priority
    /// Bit p set while input FIFO p is non-empty: route visits only the
    /// busy ports.  Kept by q_push and q_pop (and cleared by the dead-router
    /// purge and load_state), so it is derived state and never saved.
    std::uint8_t busy;
    std::int16_t x, y;       ///< the tile's coordinates
    std::uint8_t route9[9];  ///< derived from the fault state, not saved
  };
  std::vector<TileState> tiles_;  ///< indexed by tile

  /// Fixed-capacity FIFO storage of pool indices, indexed by
  /// (tile * kPortCount + port) * cap_ + slot.
  std::vector<std::uint32_t> q_slots_;
  /// Hot state of the directed link leaving (tile, direction), one record
  /// per link so a router's credit check, grant bookkeeping and ring push,
  /// and a landing's channel draw, all hit the same cache line.  Every
  /// frame on the wire holds one downstream credit (a grant reserves it, a
  /// landing or a loss releases it, a go-back-N retry keeps it), so
  /// `count` is also the number of credits reserved downstream.  `space`
  /// is the credit snapshot of the *downstream* input FIFO the sender
  /// arbitrates against (see the header comment): route consumes it on a
  /// grant, and land adds the returned and lost credits.  The last three
  /// fields are link-integrity state and stay zero while it is off.
  struct LinkState {
    std::uint16_t head = 0;   ///< ring head slot
    std::uint16_t count = 0;  ///< frames in flight = credits reserved
    std::uint16_t space = 0;  ///< downstream credit snapshot
    std::uint8_t tx_seq = 0;  ///< next 4-bit sequence number to send
    std::uint64_t traversals = 0;  ///< attempts, retransmissions included
    /// Earliest free arrival slot: keeps frames granted after a
    /// retransmission from overtaking it (go-back-N ordering).
    std::uint64_t next_free = 0;
  };
  std::vector<LinkState> link_;  ///< indexed by (tile * 4 + direction)

  // In-flight transfers of the directed link leaving (tile, direction),
  // as fixed-capacity rings in one slab (link id * cap_ + slot).  Every
  // frame on the wire holds a reserved downstream credit, so a ring never
  // exceeds the input queue capacity; push_front re-queues a NACKed frame
  // at the head of its go-back-N window.  The dense LinkState records keep
  // the per-cycle emptiness scan off the (much larger) slab.
  std::vector<LinkTransfer> ring_slab_;

  // Topology/health tables rebuilt only on fault / link-retirement events:
  std::vector<std::int32_t> neighbor_;   ///< tile*4+dir -> tile index or -1
  /// Incoming ring id per (tile, input port): the directed link whose
  /// transfers land at that port, or -1 at the array edge.
  std::vector<std::int32_t> in_ring_;
  std::vector<std::uint8_t> tile_faulty_;
  std::vector<std::uint8_t> link_ok_;    ///< neighbor alive && link alive

  std::vector<TileActivity> tile_activity_;  ///< indexed by tile

  /// Arrival wheel: bucket c % kWheel lists the links filed for cycle c;
  /// land drains a bucket from `due_`, so a refiled link takes a new lap.
  static constexpr std::size_t kWheel = 64;
  std::array<std::vector<std::uint32_t>, kWheel> wheel_;
  std::vector<std::uint32_t> due_;
  /// Bit t % 64 of word t / 64 is set while tile t has FIFO occupancy.
  std::vector<std::uint64_t> occupied_;
  /// Incoming links owed one credit each by a FIFO pop since the last land.
  std::vector<std::uint32_t> credit_returns_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Counters ctr_;
  std::size_t in_flight_ = 0;

  // Link-integrity state (allocated only when integrity is enabled),
  // indexed by link id (tile * 4 + direction) unless noted; the per-link
  // sequence number, traversal count and watermark live in LinkState.  A
  // link's channel draws are a pure function of its id and its traversal
  // count (see channel_admit), so what a link draws depends only on the
  // frames crossing it, never on tile visit order, and no generator is
  // stored.
  LinkBerMap ber_;
  std::vector<std::uint64_t> link_errors_;
  std::vector<std::uint8_t> rx_seq_;  ///< by dst * 4 + input port

  std::uint32_t pool_alloc(const Packet& p) {
    if (!pool_free_.empty()) {
      const std::uint32_t idx = pool_free_.back();
      pool_free_.pop_back();
      pool_[idx] = p;
      return idx;
    }
    pool_.push_back(p);
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }
  /// Releases the slot of a packet that left the mesh (ejected or lost).
  void pool_release(std::uint32_t idx) {
    pool_free_.push_back(idx);
    --in_flight_;
  }

  std::size_t qbase(std::size_t tile, std::size_t port) const {
    return (tile * kPortCount + port) * cap_;
  }
  /// Pool index of the i-th packet of a FIFO from the front (0 = head).
  std::uint32_t q_at(std::size_t tile, std::size_t port, std::size_t i) const {
    std::size_t slot = tiles_[tile].q_head[port] + i;
    if (slot >= cap_) slot -= cap_;
    return q_slots_[qbase(tile, port) + slot];
  }
  std::uint32_t q_front_idx(std::size_t tile, std::size_t port) const {
    return q_at(tile, port, 0);
  }
  void q_push(std::size_t tile, std::size_t port, std::uint32_t pkt) {
    TileState& ts = tiles_[tile];
    std::size_t slot =
        static_cast<std::size_t>(ts.q_head[port]) + ts.q_size[port];
    if (slot >= cap_) slot -= cap_;
    q_slots_[qbase(tile, port) + slot] = pkt;
    ++ts.q_size[port];
    ts.busy |= static_cast<std::uint8_t>(1u << port);
    occupied_[tile / 64] |= 1ull << (tile % 64);
  }
  /// Pops a FIFO head; a link port owes its incoming link one credit.
  void q_pop(std::size_t tile, std::size_t port) {
    TileState& ts = tiles_[tile];
    const std::size_t next = static_cast<std::size_t>(ts.q_head[port]) + 1;
    ts.q_head[port] = static_cast<std::uint16_t>(next == cap_ ? 0 : next);
    if (--ts.q_size[port] == 0) {
      ts.busy &= static_cast<std::uint8_t>(~(1u << port));
      if (ts.busy == 0) occupied_[tile / 64] &= ~(1ull << (tile % 64));
    }
    if (port != static_cast<std::size_t>(Port::Local))
      credit_returns_.push_back(
          static_cast<std::uint32_t>(in_ring_[tile * 4 + port]));
  }

  LinkTransfer& ring_front(std::size_t link) {
    return ring_slab_[link * cap_ + link_[link].head];
  }
  /// i-th in-flight frame of `link` from the front (0 = front).
  std::size_t ring_slot(std::size_t link, std::size_t i) const {
    std::size_t slot = link_[link].head + i;
    if (slot >= cap_) slot -= cap_;
    return link * cap_ + slot;
  }
  LinkTransfer& ring_at(std::size_t link, std::size_t i) {
    return ring_slab_[ring_slot(link, i)];
  }
  void ring_pop(std::size_t link) {
    const std::size_t next = static_cast<std::size_t>(link_[link].head) + 1;
    link_[link].head = static_cast<std::uint16_t>(next == cap_ ? 0 : next);
    --link_[link].count;
  }
  void ring_push_back(std::size_t link, const LinkTransfer& t) {
    assert(link_[link].count < cap_);
    std::size_t slot = link_[link].head + link_[link].count;
    if (slot >= cap_) slot -= cap_;
    ring_slab_[link * cap_ + slot] = t;
    ++link_[link].count;
  }
  void ring_push_front(std::size_t link, const LinkTransfer& t) {
    assert(link_[link].count < cap_);
    link_[link].head = static_cast<std::uint16_t>(
        link_[link].head == 0 ? cap_ - 1 : link_[link].head - 1);
    ring_slab_[link * cap_ + link_[link].head] = t;
    ++link_[link].count;
  }
  /// Files a link with frames on the wire in the arrival wheel.
  void file(std::size_t link) {
    const std::uint64_t due = std::max(ring_front(link).arrival_cycle, now());
    wheel_[due % kWheel].push_back(static_cast<std::uint32_t>(link));
  }

  /// Fills tile_faulty_, link_ok_ and route9 from a fault state; the mesh
  /// keeps these tables, not the maps.
  void rebuild_topology(const FaultMap& faults, const LinkFaultSet& links);
  /// Recomputes every credit snapshot and the wheel from the FIFOs and
  /// rings, dropping the queued credit returns.
  void resync();
  /// The two passes of step() (see the header comment).
  void land();
  void route(std::vector<Packet>& ejected);

  /// Runs `t`, just popped off `link`, through the dead-tile check, the BER
  /// channel + CRC + sequence protocol.  Returns true while `t` still holds
  /// its credit: accepted into its FIFO (possibly as a counted escape), or
  /// caught by the CRC and re-queued at the head of the ring.  Returns
  /// false when it is lost: dead tile, budget exhausted or retransmission
  /// off, sequence reject.
  bool channel_admit(LinkTransfer t, std::size_t link, std::uint64_t now);
};

}  // namespace wsp::noc
