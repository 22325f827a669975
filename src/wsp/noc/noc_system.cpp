#include "wsp/noc/noc_system.hpp"

#include <algorithm>
#include <bit>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/error.hpp"
#include "wsp/obs/trace.hpp"

namespace wsp::noc {

namespace {

constexpr std::uint32_t kNocTag = ckpt::fourcc("NOCS");
// v2: staged (not-yet-adopted) BER map ("SBER" block) — the cycle-boundary
// swap means a snapshot taken between set_link_ber and the next step must
// carry the pending map to resume bit-identically.
// v3: the option block holds all of NocOptions, the mesh options included.
// v4: the latency histogram in CNTR is its (value, count) run list.
// v5: the option block lost service/relay latency (now constants) and the
//     mesh options' retransmit budget and BER params.
// v6: no SBER block: set_link_ber hands the map to both meshes at once, so
//     their BERM blocks hold it.
// v7: one FMAP, LFLT and BERM at the head; MESH v6 sections hold neither.
constexpr std::uint32_t kNocStateVersion = 7;

void save_ber_map(ckpt::Writer& w, const LinkBerMap& ber) {
  w.tag(ckpt::fourcc("BERM"));
  w.i32(ber.grid().width());
  w.i32(ber.grid().height());
  ckpt::save_each(w, ber.bers());
}

LinkBerMap load_ber_map(ckpt::Reader& r, const TileGrid& expected) {
  r.expect_tag(ckpt::fourcc("BERM"), "LinkBerMap");
  const int w = r.i32();
  const int h = r.i32();
  if (w != expected.width() || h != expected.height())
    throw ckpt::Error(ckpt::ErrorKind::TopologyMismatch,
                      "BER map grid does not match live topology");
  std::vector<double> bers(expected.tile_count() * 4);
  ckpt::load_each(r, bers);
  return LinkBerMap::from_bers(expected, bers);
}

// A copy of a heap, popped: comparator order, a total order here
// (Deadline keys (due_cycle, id) and PendingInjection keys (due_cycle,
// seq) are unique), so the bytes are independent of the heap's layout.
template <class Heap>
std::vector<typename Heap::value_type> drained(Heap heap) {
  std::vector<typename Heap::value_type> out;
  out.reserve(heap.size());
  for (; !heap.empty(); heap.pop()) out.push_back(heap.top());
  return out;
}

/// A free slot of `slab` (the last one freed), growing the slab when none is.
template <class T>
std::uint32_t take_slot(std::vector<T>& slab,
                        std::vector<std::uint32_t>& free) {
  if (free.empty()) {
    free.push_back(static_cast<std::uint32_t>(slab.size()));
    slab.emplace_back();
  }
  const std::uint32_t slot = free.back();
  free.pop_back();
  return slot;
}

}  // namespace

NocSystem::NocSystem(const FaultMap& faults, const NocOptions& options,
                     obs::MetricsRegistry* metrics)
    : faults_(faults),
      links_(faults.grid()),
      options_(options),
      owned_metrics_(metrics ? nullptr : new obs::MetricsRegistry),
      metrics_(metrics ? metrics : owned_metrics_.get()),
      selector_(faults),
      xy_(faults, NetworkKind::XY, options.mesh, metrics_),
      yx_(faults, NetworkKind::YX, options.mesh, metrics_) {
  ctr_.issued = &metrics_->counter("noc.issued");
  ctr_.completed = &metrics_->counter("noc.completed");
  ctr_.unreachable = &metrics_->counter("noc.unreachable");
  ctr_.relayed = &metrics_->counter("noc.relayed");
  ctr_.timeouts = &metrics_->counter("noc.timeouts");
  ctr_.retries = &metrics_->counter("noc.retries");
  ctr_.lost = &metrics_->counter("noc.lost");
  ctr_.stale_packets = &metrics_->counter("noc.stale_packets");
  ctr_.replans = &metrics_->counter("noc.replans");
  ctr_.links_retired = &metrics_->counter("noc.links_retired");
  ctr_.latency = &metrics_->histogram("noc.latency");
  require(options.max_retries >= 0, "max_retries cannot be negative");
  require(options.response_timeout == 0 || options.retry_backoff_base >= 1,
          "retry backoff must be >= 1 cycle");
  // The last retry waits retry_backoff_base << (max_retries - 1) cycles.
  const auto base_bits = std::bit_width(options.retry_backoff_base);
  require(options.response_timeout == 0 ||
              options.max_retries <= 65 - static_cast<int>(base_bits),
          "retry backoff overflows 64 bits");
  ready_head_.assign(2 * faults.grid().tile_count(), kNone);
  ready_tail_.resize(ready_head_.size());
  ready_bits_.resize((ready_head_.size() + 63) / 64);
  window_.assign(kMinWindow, kNone);
}

NocSystem::LiveTransaction& NocSystem::add_live(std::uint64_t id) {
  if (std::uint32_t& entry = window_[id & (window_.size() - 1)];
      entry != kNone) {
    // The live id one window older leaves the window: double the window
    // while it holds under 16 entries (64 B) per live transaction, less
    // than a record, else move that id to old_.
    if (window_.size() < 16 * inflight_transactions()) {
      resize_window(2 * window_.size());
    } else {
      old_.emplace_back(txns_[entry].id, entry);
      entry = kNone;
    }
  }
  const std::uint32_t slot = take_slot(txns_, free_txns_);
  window_[id & (window_.size() - 1)] = slot;
  return txns_[slot];
}

void NocSystem::resize_window(std::size_t size) {
  std::vector<std::uint32_t> wider(size, kNone);
  for (const std::uint32_t slot : window_)
    if (slot != kNone) wider[txns_[slot].id & (size - 1)] = slot;
  // The newest old ids the wider window covers move back into it.
  for (; !old_.empty() && next_id_ - old_.back().first <= size; old_.pop_back())
    wider[old_.back().first & (size - 1)] = old_.back().second;
  window_ = std::move(wider);
}

std::uint32_t NocSystem::old_slot(std::uint64_t id) const {
  const auto it = std::lower_bound(old_.begin(), old_.end(), std::pair{id, 0u});
  return it != old_.end() && it->first == id ? it->second : kNone;
}

void NocSystem::erase_live(std::uint64_t id) {
  if (next_id_ - id - 1 < window_.size()) {
    free_txns_.push_back(
        std::exchange(window_[id & (window_.size() - 1)], kNone));
  } else {
    const auto it =
        std::lower_bound(old_.begin(), old_.end(), std::pair{id, 0u});
    free_txns_.push_back(it->second);
    old_.erase(it);
  }
}

std::uint32_t NocSystem::store_packet(const Packet& p) {
  const std::uint32_t slot = take_slot(packets_, free_packets_);
  next_packet_.resize(packets_.size());
  packets_[slot] = p;
  return slot;
}

void NocSystem::push_ready(std::size_t key, std::uint32_t slot) {
  next_packet_[slot] = kNone;
  if (ready_head_[key] == kNone)
    ready_bits_[key / 64] |= std::uint64_t{1} << (key % 64);
  (ready_head_[key] == kNone ? ready_head_[key]
                             : next_packet_[ready_tail_[key]]) = slot;
  ready_tail_[key] = slot;
  ++ready_count_;
}

void NocSystem::schedule(std::uint64_t due, const Packet& p) {
  pending_.push(PendingInjection{due, pending_seq_++, store_packet(p)});
}

void NocSystem::send_request(const LiveTransaction& t, std::uint64_t due) {
  schedule(due, Packet{.src = t.plan.waypoints[0], .dst = t.plan.waypoints[1],
                       .type = t.type, .network = t.plan.segment_networks[0],
                       .payload = t.payload, .address = t.address,
                       .id = t.id, .request_id = t.id,
                       .injected_cycle = cycle_, .attempt = t.attempts});
  if (options_.response_timeout == 0) return;
  const Deadline d{due + options_.response_timeout, t.id, t.attempts};
  if (t.attempts == 0)
    first_deadlines_.push_back(d);
  else
    retry_deadlines_.push(d);
}

std::optional<std::uint64_t> NocSystem::issue(TileCoord src, TileCoord dst,
                                              PacketType type,
                                              std::uint64_t payload,
                                              std::uint32_t address) {
  require(is_request(type), "issue() takes a request packet type");
  RoutePlan plan = selector_.plan(src, dst);
  if (!plan.reachable) {
    ctr_.unreachable->add();
    return std::nullopt;
  }

  const std::uint64_t id = next_id_++;
  LiveTransaction& txn = add_live(id);
  txn = LiveTransaction{id, std::move(plan), type, payload, address, cycle_};
  if (txn.plan.relayed) ctr_.relayed->add();
  send_request(txn, cycle_);
  ctr_.issued->add();
  return id;
}

void NocSystem::process_timeouts() {
  if (options_.response_timeout == 0) return;
  for (;;) {
    // The earlier of the two sorted sources' heads, by (due, id).
    const bool fifo = first_head_ < first_deadlines_.size() &&
                      (retry_deadlines_.empty() ||
                       retry_deadlines_.top() > first_deadlines_[first_head_]);
    if (!fifo && retry_deadlines_.empty()) return;
    const Deadline d =
        fifo ? first_deadlines_[first_head_] : retry_deadlines_.top();
    if (d.due_cycle > cycle_) return;
    if (!fifo) {
      retry_deadlines_.pop();
    } else if (2 * ++first_head_ >= first_deadlines_.size()) {
      // Drop the popped prefix once it is half the vector: amortised O(1).
      first_deadlines_.erase(first_deadlines_.begin(),
                             first_deadlines_.begin() +
                                 static_cast<std::ptrdiff_t>(first_head_));
      first_head_ = 0;
    }
    const std::uint32_t slot = live_slot(d.id);
    if (slot == kNone) continue;               // already completed or lost
    LiveTransaction& txn = txns_[slot];
    if (txn.attempts != d.attempt) continue;   // superseded by a retry

    ctr_.timeouts->add();
    // Replan against the *current* fault map: the route that stranded this
    // transaction may be dead, but the pair may still be reachable via the
    // other network or a relay tile.  Out of retries or routes, it is lost.
    RoutePlan fresh =
        static_cast<int>(txn.attempts) < options_.max_retries
            ? selector_.plan(txn.plan.waypoints.front(),
                             txn.plan.waypoints.back())
            : RoutePlan{};
    if (!fresh.reachable) {
      ctr_.lost->add();
      erase_live(d.id);
      continue;
    }

    ++txn.attempts;
    ctr_.retries->add();
    txn.plan = std::move(fresh);
    txn.segment = 0;
    txn.returning = false;
    send_request(txn, cycle_ + (options_.retry_backoff_base
                                << (txn.attempts - 1)));
  }
}

void NocSystem::handle_ejection(const Packet& p,
                                std::vector<CompletedTransaction>& done) {
  const std::uint32_t slot = live_slot(p.id);
  if (slot == kNone) {
    // Transaction already declared lost (or completed via a faster
    // attempt); this packet is a straggler from a superseded send.
    ctr_.stale_packets->add();
    return;
  }
  LiveTransaction& txn = txns_[slot];
  if (p.attempt != txn.attempts) {
    ctr_.stale_packets->add();
    return;
  }
  const auto& wp = txn.plan.waypoints;
  const auto& nets = txn.plan.segment_networks;

  if (!txn.returning) {
    if (txn.segment + 2 == wp.size()) {
      // Reached the final destination: the tile services the request and
      // answers on the complementary network along the same tiles.  The
      // listener runs last: an issue() from it may move txns_.
      txn.returning = true;
      schedule(cycle_ + kServiceLatency,
               Packet{.src = wp[txn.segment + 1], .dst = wp[txn.segment],
                      .type = response_type(txn.type),
                      .network = complementary(nets[txn.segment]),
                      .payload = txn.payload, .address = txn.address,
                      .id = p.id, .request_id = p.id,
                      .injected_cycle = cycle_, .attempt = txn.attempts});
      if (delivery_listener_) delivery_listener_(p);
    } else {
      // Relay tile: the core re-injects the request toward the next
      // waypoint after spending relay cycles on it.
      ++txn.segment;
      Packet fwd = p;
      fwd.src = wp[txn.segment];
      fwd.dst = wp[txn.segment + 1];
      fwd.network = nets[txn.segment];
      schedule(cycle_ + kRelayLatency, fwd);
    }
    return;
  }

  // Response arriving back at the origin of the current segment.
  if (txn.segment == 0) {
    done.push_back({.id = p.id, .src = wp.front(), .dst = wp.back(),
                    .request_type = txn.type, .issue_cycle = txn.issue_cycle,
                    .complete_cycle = cycle_, .relayed = txn.plan.relayed});
    ctr_.completed->add();
    ctr_.latency->record(done.back().latency());
    erase_live(p.id);
    return;
  }

  --txn.segment;
  Packet resp = p;
  resp.src = wp[txn.segment + 1];
  resp.dst = wp[txn.segment];
  resp.network = complementary(nets[txn.segment]);
  schedule(cycle_ + kRelayLatency, resp);
}

void NocSystem::step(std::vector<CompletedTransaction>& done) {
  WSP_TRACE_SPAN("noc.step");
  // Move everything due into the per-tile ready queues, then drain each
  // tile's queue head-first while its local FIFO accepts packets.  A
  // packet whose source tile died while it waited is dropped here — its
  // transaction recovers (or is declared lost) via the timeout machinery.
  while (!pending_.empty() && pending_.top().due_cycle <= cycle_) {
    const std::uint32_t slot = pending_.top().slot;
    pending_.pop();
    const Packet& p = packets_[slot];
    if (faults_.is_faulty(p.src))
      free_packets_.push_back(slot);
    else
      push_ready(ready_key(p.network, faults_.grid().index_of(p.src)), slot);
  }
  for (std::size_t w = 0; w < ready_bits_.size() && ready_count_ > 0; ++w) {
    for (std::uint64_t bits = ready_bits_[w]; bits != 0; bits &= bits - 1) {
      std::uint32_t& head = ready_head_[w * 64 + std::countr_zero(bits)];
      while (head != kNone &&
             net(packets_[head].network).inject(packets_[head])) {
        free_packets_.push_back(head);
        head = next_packet_[head];
        --ready_count_;
      }
      if (head == kNone) ready_bits_[w] &= ~(bits & -bits);
    }
  }

  // The meshes are independent; XY ejections precede YX ones.
  eject_scratch_.clear();
  xy_.step(eject_scratch_);
  yx_.step(eject_scratch_);
  for (const Packet& p : eject_scratch_) handle_ejection(p, done);
  process_timeouts();
  ++cycle_;
}

bool NocSystem::drain(std::vector<CompletedTransaction>& done,
                      std::uint64_t max_cycles) {
  const std::uint64_t limit = cycle_ + max_cycles;
  const auto busy = [this] {
    return inflight_transactions() > 0 || !pending_.empty() || ready_count_;
  };
  while (busy() && cycle_ < limit) step(done);
  return !busy();
}

void NocSystem::apply_fault_state(const FaultMap& faults,
                                  const LinkFaultSet& links) {
  require(faults.grid().width() == faults_.grid().width() &&
              faults.grid().height() == faults_.grid().height(),
          "apply_fault_state: fault map grid mismatch");
  faults_ = faults;
  links_ = links;
  selector_ = NetworkSelector(faults_, links_);
  xy_.apply_fault_state(faults_, links_);
  yx_.apply_fault_state(faults_, links_);

  // Packets waiting at the injection boundary of a dead tile can never
  // enter the mesh; drop them now so the ready queues keep draining.
  const std::size_t tiles = faults_.grid().tile_count();
  for (std::size_t key = 0; key < ready_head_.size(); ++key) {
    if (!faults_.is_faulty(faults_.grid().coord_of(key % tiles))) continue;
    for (; ready_head_[key] != kNone; --ready_count_) {
      free_packets_.push_back(ready_head_[key]);
      ready_head_[key] = next_packet_[ready_head_[key]];
    }
    ready_bits_[key / 64] &= ~(std::uint64_t{1} << (key % 64));
  }
  ctr_.replans->add();
}

bool NocSystem::inject_corruption(TileCoord tile) {
  // The mesh owns the `corrupted` counter (it observes the kill); counting
  // here as well would double-book the event in the aggregated stats().
  auto killed = xy_.corrupt_head_packet(tile);
  if (!killed) killed = yx_.corrupt_head_packet(tile);
  return killed.has_value();
}

NocStats NocSystem::stats() const {
  NocStats s;
  s.issued = ctr_.issued->value;
  s.completed = ctr_.completed->value;
  s.unreachable = ctr_.unreachable->value;
  s.relayed = ctr_.relayed->value;
  s.latency_sum = ctr_.latency->sum();
  s.latency_max = ctr_.latency->max();
  s.timeouts = ctr_.timeouts->value;
  s.retries = ctr_.retries->value;
  s.lost = ctr_.lost->value;
  s.stale_packets = ctr_.stale_packets->value;
  s.replans = ctr_.replans->value;
  s.links_retired = ctr_.links_retired->value;
  const MeshStats a = xy_.stats();
  const MeshStats b = yx_.stats();
  s.corrupted = a.corrupted + b.corrupted;
  s.crc_detected = a.crc_detected + b.crc_detected;
  s.link_retransmits = a.link_retransmits + b.link_retransmits;
  s.escapes = a.crc_escapes + b.crc_escapes;
  return s;
}

void NocSystem::set_link_ber(LinkBerMap ber) {
  xy_.set_link_ber(ber);  // checks the grid before either mesh changes
  yx_.set_link_ber(std::move(ber));
}

void NocSystem::take_tile_activity(std::vector<TileActivity>& out) {
  out.assign(faults_.grid().tile_count(), TileActivity{});
  xy_.take_tile_activity(out);
  yx_.take_tile_activity(out);
}

bool NocSystem::retire_link(TileCoord from, Direction d) {
  if (!faults_.grid().contains(from) || !faults_.grid().neighbor(from, d))
    return false;
  if (links_.is_failed(from, d)) return false;
  links_.set_failed(from, d);
  selector_ = NetworkSelector(faults_, links_);
  xy_.apply_fault_state(faults_, links_);
  yx_.apply_fault_state(faults_, links_);
  ctr_.links_retired->add();
  ctr_.replans->add();
  return true;
}

std::uint64_t NocSystem::link_error_count(TileCoord from, Direction d) const {
  return xy_.link_error_count(from, d) + yx_.link_error_count(from, d);
}

std::uint64_t NocSystem::link_traversal_count(TileCoord from,
                                              Direction d) const {
  return xy_.link_traversal_count(from, d) + yx_.link_traversal_count(from, d);
}

// --- checkpointing ----------------------------------------------------------

void NocSystem::save_state(ckpt::Writer& w) const {
  w.tag(kNocTag);
  w.u32(kNocStateVersion);
  w.i32(faults_.grid().width());
  w.i32(faults_.grid().height());
  ckpt::save_fields(w, options_);

  ckpt::save_fault_map(w, faults_);
  ckpt::save_link_faults(w, links_);
  save_ber_map(w, link_ber());
  ckpt::save_fields(w, std::tie(cycle_, next_id_, pending_seq_));

  // LIVE by id, DDLN and PEND in pop order, REDY per network by tile.
  w.tag(ckpt::fourcc("LIVE"));
  w.u64(inflight_transactions());
  for (const auto& [id, slot] : old_) ckpt::save_fields(w, txns_[slot]);
  for (std::uint64_t id = next_id_ - std::min<std::uint64_t>(
                                        next_id_, window_.size());
       id < next_id_; ++id)
    if (const std::uint32_t slot = live_slot(id); slot != kNone)
      ckpt::save_fields(w, txns_[slot]);

  w.tag(ckpt::fourcc("DDLN"));
  auto deadlines = retry_deadlines_;
  for (std::size_t f = first_head_; f < first_deadlines_.size(); ++f)
    deadlines.push(first_deadlines_[f]);
  ckpt::save_fields(w, drained(std::move(deadlines)));
  w.tag(ckpt::fourcc("PEND"));
  w.u64(pending_.size());
  for (const PendingInjection& p : drained(pending_))
    ckpt::save_fields(w, std::tie(p.due_cycle, p.seq, packets_[p.slot]));
  w.tag(ckpt::fourcc("REDY"));
  const std::size_t tiles = faults_.grid().tile_count();
  for (std::size_t key = 0; key < ready_head_.size(); ++key) {
    const auto head = ready_head_.begin() + static_cast<std::ptrdiff_t>(key);
    if (key % tiles == 0)  // each network's queue count
      w.u64(tiles - static_cast<std::size_t>(
                        std::count(head, head + tiles, kNone)));
    std::uint64_t len = 0;
    for (std::uint32_t s = *head; s != kNone; s = next_packet_[s]) ++len;
    const std::uint64_t tile = key % tiles;
    if (len > 0) ckpt::save_fields(w, std::tie(tile, len));
    for (std::uint32_t s = *head; s != kNone; s = next_packet_[s])
      ckpt::save_fields(w, packets_[s]);
  }
  w.tag(ckpt::fourcc("CNTR"));
  ckpt::save_fields(w, ctr_);

  xy_.save_state(w);
  yx_.save_state(w);
}

void NocSystem::load_state(ckpt::Reader& r) {
  r.expect_tag(kNocTag, "NocSystem");
  const std::uint32_t version = r.u32();
  if (version != kNocStateVersion)
    throw ckpt::Error(ckpt::ErrorKind::VersionMismatch,
                      "NocSystem state version " + std::to_string(version));
  const TileGrid& grid = faults_.grid();
  const int gw = r.i32();
  const int gh = r.i32();
  if (gw != grid.width() || gh != grid.height())
    throw ckpt::Error(ckpt::ErrorKind::TopologyMismatch,
                      "NoC snapshot grid " + std::to_string(gw) + "x" +
                          std::to_string(gh) + " vs live " +
                          std::to_string(grid.width()) + "x" +
                          std::to_string(grid.height()));
  ckpt::expect_fields(r, options_, "NoC options");
  const auto reject = [](const char* what) {
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch, what);
  };

  // Plans and the meshes' routing tables are a pure function of the fault
  // state, so applying the restored maps restores them exactly.  The purge
  // and counters this leaves behind are overwritten by the sections below.
  const FaultMap faults = ckpt::load_fault_map(r, &grid);
  apply_fault_state(faults, ckpt::load_link_faults(r, &grid));
  set_link_ber(load_ber_map(r, grid));
  ckpt::load_fields(r, std::tie(cycle_, next_id_, pending_seq_));

  r.expect_tag(ckpt::fourcc("LIVE"), "live transactions");
  txns_.resize(r.length(ckpt::min_encoded_size<LiveTransaction>));
  free_txns_.clear();
  for (LiveTransaction& txn : txns_) {
    ckpt::load_fields(r, txn);
    const std::vector<TileCoord>& wp = txn.plan.waypoints;
    if (wp.size() < 2 || txn.plan.segment_networks.size() + 1 != wp.size() ||
        txn.segment + 1 >= wp.size())
      reject("route plan shape or segment index is invalid");
    for (const TileCoord c : wp)
      if (!grid.contains(c)) reject("route waypoint outside the grid");
    if (txn.id >= next_id_ || (&txn != &txns_[0] && txn.id <= (&txn)[-1].id))
      reject("live transaction ids must rise below the next id");
  }
  // Sized by the live count, not by the id span: ids the window does not
  // cover stay in old_.
  old_.clear();
  for (std::uint32_t slot = 0; slot < txns_.size(); ++slot)
    old_.emplace_back(txns_[slot].id, slot);
  window_.clear();
  resize_window(std::bit_ceil(std::max(kMinWindow, 16 * txns_.size())));

  // The FIFO only takes first attempts issued from here on: they sort last.
  r.expect_tag(ckpt::fourcc("DDLN"), "deadlines");
  std::vector<Deadline> deadlines;
  ckpt::load_fields(r, deadlines);
  // A restored deadline or packet for an id not yet issued would act on
  // the transaction that later gets that id.
  for (const Deadline& d : deadlines)
    if (d.id >= next_id_) reject("deadline id at or above the next id");
  const auto expect_issued = [&](const Packet& p) {
    expect_in_grid(p, grid);
    if (p.id >= next_id_) reject("packet id at or above the next id");
  };
  first_deadlines_.clear();
  first_head_ = 0;
  retry_deadlines_ = {deadlines.begin(), deadlines.end()};

  packets_.clear();
  free_packets_.clear();
  r.expect_tag(ckpt::fourcc("PEND"), "pending injections");
  std::vector<std::tuple<std::uint64_t, std::uint64_t, Packet>> pending;
  ckpt::load_fields(r, pending);
  pending_ = {};
  for (const auto& [due, seq, p] : pending) {
    expect_issued(p);
    pending_.push({due, seq, store_packet(p)});
  }

  r.expect_tag(ckpt::fourcc("REDY"), "ready queues");
  std::fill(ready_head_.begin(), ready_head_.end(), kNone);
  std::fill(ready_bits_.begin(), ready_bits_.end(), 0);
  ready_count_ = 0;
  for (const NetworkKind n : {NetworkKind::XY, NetworkKind::YX}) {
    std::vector<std::pair<std::uint64_t, std::vector<Packet>>> queues;
    ckpt::load_fields(r, queues);
    for (const auto& [tile, q] : queues) {
      if (tile >= grid.tile_count())
        reject("ready-queue tile index out of range");
      if (ready_head_[ready_key(n, tile)] != kNone)
        reject("duplicate ready-queue tile");
      // inject() refuses a faulty source: its queue would never drain.
      if (faults_.is_faulty(grid.coord_of(tile)))
        reject("ready queue at a faulty source tile");
      for (const Packet& p : q) {
        expect_issued(p);
        push_ready(ready_key(n, tile), store_packet(p));
      }
    }
  }

  r.expect_tag(ckpt::fourcc("CNTR"), "NoC counters");
  ckpt::load_fields(r, ctr_);

  xy_.load_state(r, next_id_);
  yx_.load_state(r, next_id_);
  eject_scratch_.clear();
}

void NocSystem::save_checkpoint(const std::string& path) const {
  ckpt::Writer w;
  save_state(w);
  ckpt::save_frame_file(path, kNocTag, kNocStateVersion, w);
}

void NocSystem::load_checkpoint(const std::string& path) {
  const ckpt::Frame frame = ckpt::load_frame_file(path, kNocTag);
  ckpt::Reader r(frame.payload());
  load_state(r);
  if (!r.done())
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "trailing bytes after NoC state");
}

}  // namespace wsp::noc
