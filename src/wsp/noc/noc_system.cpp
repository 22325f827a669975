#include "wsp/noc/noc_system.hpp"

#include <algorithm>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/error.hpp"
#include "wsp/obs/trace.hpp"

namespace wsp::noc {

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
}

void NocSystem::schedule(std::uint64_t due, const Packet& p) {
  pending_.push(PendingInjection{due, pending_seq_++, p});
}

void NocSystem::arm_deadline(std::uint64_t id, const LiveTransaction& txn,
                             std::uint64_t from_cycle) {
  if (options_.response_timeout == 0) return;
  deadlines_.push(
      Deadline{from_cycle + options_.response_timeout, id, txn.attempts});
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
  LiveTransaction txn;
  txn.plan = std::move(plan);
  txn.type = type;
  txn.payload = payload;
  txn.address = address;
  txn.issue_cycle = cycle_;

  Packet p;
  p.src = txn.plan.waypoints[0];
  p.dst = txn.plan.waypoints[1];
  p.type = type;
  p.network = txn.plan.segment_networks[0];
  p.payload = payload;
  p.address = address;
  p.id = id;
  p.request_id = id;
  p.injected_cycle = cycle_;

  if (txn.plan.relayed) ctr_.relayed->add();
  arm_deadline(id, txn, cycle_);
  live_.emplace(id, std::move(txn));
  schedule(cycle_, p);
  ctr_.issued->add();
  return id;
}

void NocSystem::lose_transaction(std::uint64_t id) {
  ctr_.lost->add();
  live_.erase(id);
}

void NocSystem::process_timeouts() {
  if (options_.response_timeout == 0) return;
  while (!deadlines_.empty() && deadlines_.top().due_cycle <= cycle_) {
    const Deadline d = deadlines_.top();
    deadlines_.pop();
    const auto it = live_.find(d.id);
    if (it == live_.end()) continue;           // already completed or lost
    LiveTransaction& txn = it->second;
    if (txn.attempts != d.attempt) continue;   // superseded by a retry

    ctr_.timeouts->add();
    if (static_cast<int>(txn.attempts) >= options_.max_retries) {
      lose_transaction(d.id);
      continue;
    }

    // Replan against the *current* fault map: the route that stranded this
    // transaction may be dead, but the pair may still be reachable via the
    // other network or a relay tile.
    RoutePlan fresh =
        selector_.plan(txn.plan.waypoints.front(), txn.plan.waypoints.back());
    if (!fresh.reachable) {
      lose_transaction(d.id);
      continue;
    }

    ++txn.attempts;
    ctr_.retries->add();
    txn.plan = std::move(fresh);
    txn.segment = 0;
    txn.returning = false;

    Packet p;
    p.src = txn.plan.waypoints[0];
    p.dst = txn.plan.waypoints[1];
    p.type = txn.type;
    p.network = txn.plan.segment_networks[0];
    p.payload = txn.payload;
    p.address = txn.address;
    p.id = d.id;
    p.request_id = d.id;
    p.injected_cycle = cycle_;
    p.attempt = txn.attempts;

    const std::uint64_t backoff = options_.retry_backoff_base
                                  << (txn.attempts - 1);
    schedule(cycle_ + backoff, p);
    arm_deadline(d.id, txn, cycle_ + backoff);
  }
}

void NocSystem::handle_ejection(const Packet& p,
                                std::vector<CompletedTransaction>& done) {
  const auto it = live_.find(p.id);
  if (it == live_.end()) {
    // Transaction already declared lost (or completed via a faster
    // attempt); this packet is a straggler from a superseded send.
    ctr_.stale_packets->add();
    return;
  }
  LiveTransaction& txn = it->second;
  if (p.attempt != txn.attempts) {
    ctr_.stale_packets->add();
    return;
  }
  const auto& wp = txn.plan.waypoints;
  const auto& nets = txn.plan.segment_networks;

  if (!txn.returning) {
    if (txn.segment + 2 == wp.size()) {
      // Reached the final destination: the tile services the request and
      // answers on the complementary network along the same tiles.
      if (delivery_listener_) delivery_listener_(p);
      txn.returning = true;
      Packet resp;
      resp.src = wp[txn.segment + 1];
      resp.dst = wp[txn.segment];
      resp.type = response_type(txn.type);
      resp.network = complementary(nets[txn.segment]);
      resp.payload = txn.payload;
      resp.address = txn.address;
      resp.id = p.id;
      resp.request_id = p.id;
      resp.injected_cycle = cycle_;
      resp.attempt = txn.attempts;
      schedule(cycle_ + kServiceLatency, resp);
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
    CompletedTransaction ct;
    ct.id = p.id;
    ct.src = wp.front();
    ct.dst = wp.back();
    ct.request_type = txn.type;
    ct.issue_cycle = txn.issue_cycle;
    ct.complete_cycle = cycle_;
    ct.relayed = txn.plan.relayed;
    done.push_back(ct);
    ctr_.completed->add();
    ctr_.latency->record(ct.latency());
    live_.erase(it);
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
  // Cycle-boundary BER swap: a map staged by set_link_ber becomes visible
  // to both meshes here, before any packet moves this cycle — never
  // mid-cycle between the two meshes (see the set_link_ber contract).
  if (staged_ber_) {
    xy_.set_link_ber(*staged_ber_);
    yx_.set_link_ber(std::move(*staged_ber_));
    staged_ber_.reset();
  }
  // Move everything due into the per-tile ready queues, then drain each
  // tile's queue head-first while its local FIFO accepts packets.  A
  // packet whose source tile died while it waited is dropped here — its
  // transaction recovers (or is declared lost) via the timeout machinery.
  while (!pending_.empty() && pending_.top().due_cycle <= cycle_) {
    const Packet& p = pending_.top().packet;
    if (!faults_.is_faulty(p.src)) {
      ready_[static_cast<std::size_t>(p.network)]
          [grid_index_of(p.src)].push_back(p);
      ++ready_count_;
    }
    pending_.pop();
  }
  for (auto& per_net : ready_) {
    for (auto it = per_net.begin(); it != per_net.end();) {
      std::deque<Packet>& q = it->second;
      while (!q.empty() && net(q.front().network).inject(q.front())) {
        q.pop_front();
        --ready_count_;
      }
      it = q.empty() ? per_net.erase(it) : std::next(it);
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
  while ((!live_.empty() || !pending_.empty() || ready_count_ > 0) &&
         cycle_ < limit)
    step(done);
  return live_.empty() && pending_.empty() && ready_count_ == 0;
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
  for (auto& per_net : ready_) {
    for (auto it = per_net.begin(); it != per_net.end();) {
      if (faults_.is_faulty(faults_.grid().coord_of(it->first))) {
        ready_count_ -= it->second.size();
        it = per_net.erase(it);
      } else {
        ++it;
      }
    }
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
  require(ber.grid().width() == faults_.grid().width() &&
              ber.grid().height() == faults_.grid().height(),
          "set_link_ber: BER map grid mismatch");
  staged_ber_ = std::move(ber);
}

void NocSystem::accumulate_tile_activity(
    std::vector<TileActivity>& out) const {
  const std::vector<TileActivity>& a = xy_.tile_activity();
  const std::vector<TileActivity>& b = yx_.tile_activity();
  out.assign(a.size(), TileActivity{});
  for (std::size_t t = 0; t < a.size(); ++t) {
    out[t].injections = a[t].injections + b[t].injections;
    out[t].traversals = a[t].traversals + b[t].traversals;
    out[t].retransmits = a[t].retransmits + b[t].retransmits;
  }
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

namespace {

constexpr std::uint32_t kNocTag = ckpt::fourcc("NOCS");
// v2: staged (not-yet-adopted) BER map ("SBER" block) — the cycle-boundary
// swap means a snapshot taken between set_link_ber and the next step must
// carry the pending map to resume bit-identically.
// v3: the option block holds all of NocOptions, the mesh options included.
// v4: the latency histogram in CNTR is its (value, count) run list.
// v5: the option block lost service/relay latency (now constants) and the
//     mesh options' retransmit budget and BER params.
constexpr std::uint32_t kNocStateVersion = 5;

// Both priority queues drain (off a copy) in comparator order, which is a
// total order here — Deadline keys (due_cycle, id) and PendingInjection
// keys (due_cycle, seq) are unique — so the serialised order, and the
// observable pop order after a re-push on load, are independent of the
// heap's internal layout.
template <class Heap>
std::vector<typename Heap::value_type> drained(Heap heap) {
  std::vector<typename Heap::value_type> out;
  out.reserve(heap.size());
  for (; !heap.empty(); heap.pop()) out.push_back(heap.top());
  return out;
}

}  // namespace

void NocSystem::save_state(ckpt::Writer& w) const {
  w.tag(kNocTag);
  w.u32(kNocStateVersion);
  w.i32(faults_.grid().width());
  w.i32(faults_.grid().height());
  ckpt::save_fields(w, options_);

  ckpt::save_fault_map(w, faults_);
  ckpt::save_link_faults(w, links_);
  ckpt::save_fields(w, std::tie(cycle_, next_id_, pending_seq_));

  // Live transactions, sorted by id so the byte stream is independent of
  // unordered_map iteration order.
  std::vector<std::uint64_t> ids;
  ids.reserve(live_.size());
  for (const auto& [id, txn] : live_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.tag(ckpt::fourcc("LIVE"));
  w.u64(ids.size());
  for (const std::uint64_t id : ids)
    ckpt::save_fields(w, std::tie(id, live_.at(id)));

  w.tag(ckpt::fourcc("DDLN"));
  ckpt::save_fields(w, drained(deadlines_));
  w.tag(ckpt::fourcc("PEND"));
  ckpt::save_fields(w, drained(pending_));
  w.tag(ckpt::fourcc("REDY"));
  ckpt::save_fields(w, ready_);
  w.tag(ckpt::fourcc("CNTR"));
  ckpt::save_fields(w, ctr_);

  w.tag(ckpt::fourcc("SBER"));
  w.b(staged_ber_.has_value());
  if (staged_ber_) ckpt::save_each(w, staged_ber_->bers());

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

  faults_ = ckpt::load_fault_map(r, &grid);
  links_ = ckpt::load_link_faults(r, &grid);
  ckpt::load_fields(r, std::tie(cycle_, next_id_, pending_seq_));

  r.expect_tag(ckpt::fourcc("LIVE"), "live transactions");
  live_.clear();
  const std::size_t live_count = r.length(
      ckpt::min_encoded_size<std::tuple<std::uint64_t, LiveTransaction>>);
  for (std::size_t i = 0; i < live_count; ++i) {
    std::uint64_t id = 0;
    LiveTransaction txn{};
    ckpt::load_fields(r, std::tie(id, txn));
    const std::vector<TileCoord>& wp = txn.plan.waypoints;
    if (wp.size() < 2 || txn.plan.segment_networks.size() + 1 != wp.size() ||
        txn.segment + 1 >= wp.size())
      throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                        "route plan shape or segment index is invalid");
    for (const TileCoord c : wp)
      if (!grid.contains(c))
        throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                          "route waypoint outside the grid");
    if (!live_.emplace(id, std::move(txn)).second)
      throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                        "duplicate live transaction id");
  }

  r.expect_tag(ckpt::fourcc("DDLN"), "deadlines");
  std::vector<Deadline> deadlines;
  ckpt::load_fields(r, deadlines);
  deadlines_ = {};
  for (const Deadline& d : deadlines) deadlines_.push(d);

  r.expect_tag(ckpt::fourcc("PEND"), "pending injections");
  std::vector<PendingInjection> pending;
  ckpt::load_fields(r, pending);
  pending_ = {};
  for (const PendingInjection& p : pending) {
    expect_in_grid(p.packet, grid);
    pending_.push(p);
  }

  r.expect_tag(ckpt::fourcc("REDY"), "ready queues");
  ready_count_ = 0;
  for (auto& per_net : ready_) {
    std::vector<std::pair<std::size_t, std::deque<Packet>>> queues;
    ckpt::load_fields(r, queues);
    per_net.clear();
    for (auto& [tile, q] : queues) {
      if (tile >= grid.tile_count())
        throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                          "ready-queue tile index out of range");
      for (const Packet& p : q) expect_in_grid(p, grid);
      ready_count_ += q.size();
      if (!per_net.emplace(tile, std::move(q)).second)
        throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                          "duplicate ready-queue tile");
    }
  }

  r.expect_tag(ckpt::fourcc("CNTR"), "NoC counters");
  ckpt::load_fields(r, ctr_);

  r.expect_tag(ckpt::fourcc("SBER"), "staged BER map");
  if (r.b()) {
    std::vector<double> bers(grid.tile_count() * 4);
    ckpt::load_each(r, bers);
    staged_ber_ = LinkBerMap::from_bers(grid, bers);
  } else {
    staged_ber_.reset();
  }

  xy_.load_state(r);
  yx_.load_state(r);

  // Plans are a pure function of the fault state, so a selector built
  // from the restored maps restores them exactly.
  selector_ = NetworkSelector(faults_, links_);
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
