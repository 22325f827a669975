#include "wsp/noc/mesh_network.hpp"

#include <algorithm>
#include <bit>
#include <ranges>
#include <string>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/error.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/noc/odd_even.hpp"
#include "wsp/obs/trace.hpp"

namespace wsp::noc {

namespace {
// Hop retransmits allowed per link traversal.  A frame that exhausts the
// budget is dropped at the link (counted in link_error_drops) and recovers
// through the end-to-end timeout.
constexpr std::uint8_t kMaxRetransmits = 4;

/// Draw `k` (0: corruption, 1: CRC escape) of the `index`-th landing on
/// `link`, uniform in [0, 1): a stateless splitmix64 mix of the stream
/// seed, the link id and the draw index, so a link needs no generator
/// state (counter-based, after Salmon et al., SC 2011).
double channel_uniform(std::uint64_t seed, std::size_t link,
                       std::uint64_t index, unsigned k) {
  const std::uint64_t stream = mix64(seed + kGolden64 * (link + 1));
  return static_cast<double>(mix64(stream + kGolden64 * (2 * index + k + 1)) >>
                             11) *
         0x1.0p-53;
}
}  // namespace

MeshNetwork::MeshNetwork(const FaultMap& faults, NetworkKind kind,
                         const MeshOptions& options,
                         obs::MetricsRegistry* metrics)
    : grid_(faults.grid()),
      kind_(kind),
      options_(options),
      cap_(static_cast<std::size_t>(options.input_queue_capacity)),
      owned_metrics_(metrics ? nullptr : new obs::MetricsRegistry),
      metrics_(metrics ? metrics : owned_metrics_.get()),
      ber_(faults.grid()) {
  const std::string prefix =
      kind == NetworkKind::XY ? "noc.xy." : "noc.yx.";
  ctr_.injected = &metrics_->counter(prefix + "injected");
  ctr_.ejected = &metrics_->counter(prefix + "ejected");
  ctr_.dropped_at_fault = &metrics_->counter(prefix + "dropped_at_fault");
  ctr_.link_traversals = &metrics_->counter(prefix + "link_traversals");
  ctr_.cycles = &metrics_->counter(prefix + "cycles");
  ctr_.purged_in_dead_router =
      &metrics_->counter(prefix + "purged_in_dead_router");
  ctr_.corrupted = &metrics_->counter(prefix + "corrupted");
  ctr_.crc_detected = &metrics_->counter(prefix + "crc_detected");
  ctr_.crc_escapes = &metrics_->counter(prefix + "crc_escapes");
  ctr_.link_retransmits = &metrics_->counter(prefix + "link_retransmits");
  ctr_.link_error_drops = &metrics_->counter(prefix + "link_error_drops");
  ctr_.dup_dropped = &metrics_->counter(prefix + "dup_dropped");
  require(options.input_queue_capacity >= 1,
          "input queues need capacity >= 1");
  require(options.input_queue_capacity <= 4096,
          "input queue capacity too large");
  require(options.link_latency >= 1, "links take at least one cycle");

  const std::size_t n = grid_.tile_count();
  q_slots_.assign(n * kPortCount * cap_, 0);
  tiles_.assign(n, TileState{});
  link_.assign(n * 4, LinkState{0, 0, static_cast<std::uint16_t>(cap_)});
  ring_slab_.assign(n * 4 * cap_, LinkTransfer{});
  neighbor_.assign(n * 4, -1);
  in_ring_.assign(n * 4, -1);
  tile_faulty_.assign(n, 0);
  link_ok_.assign(n * 4, 0);
  tile_activity_.assign(n, TileActivity{});
  occupied_.assign((n + 63) / 64, 0);
  for (std::size_t t = 0; t < n; ++t) {
    const TileCoord c = grid_.coord_of(t);
    tiles_[t].x = static_cast<std::int16_t>(c.x);
    tiles_[t].y = static_cast<std::int16_t>(c.y);
    for (std::size_t d = 0; d < 4; ++d)
      if (const auto nb = grid_.neighbor(c, static_cast<Direction>(d)))
        neighbor_[t * 4 + d] =
            static_cast<std::int32_t>(grid_.index_of(*nb));
  }
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t p = 0; p < 4; ++p) {
      const std::int32_t src = neighbor_[t * 4 + p];
      if (src < 0) continue;
      const auto out =
          static_cast<std::size_t>(opposite(static_cast<Direction>(p)));
      in_ring_[t * 4 + p] = src * 4 + static_cast<std::int32_t>(out);
    }
  }

  if (options_.integrity.enabled) {
    link_errors_.assign(n * 4, 0);
    rx_seq_.assign(n * 4, 0);
  }
  rebuild_topology(faults, LinkFaultSet(grid_));
}

void MeshNetwork::rebuild_topology(const FaultMap& faults,
                                   const LinkFaultSet& links) {
  const std::size_t n = grid_.tile_count();
  for (std::size_t t = 0; t < n; ++t)
    tile_faulty_[t] = faults.is_faulty(grid_.coord_of(t)) ? 1 : 0;
  for (std::size_t t = 0; t < n; ++t) {
    const TileCoord c = grid_.coord_of(t);
    for (std::size_t d = 0; d < 4; ++d) {
      const std::int32_t nb = neighbor_[t * 4 + d];
      link_ok_[t * 4 + d] =
          (nb >= 0 && !tile_faulty_[static_cast<std::size_t>(nb)] &&
           !links.is_failed(c, static_cast<Direction>(d)))
              ? 1
              : 0;
    }
  }

  if (options_.adaptive_odd_even) return;  // routes dynamically, no table
  // DoR only reads the sign pair (sign(dst.x - x), sign(dst.y - y)), so
  // the per-(src, dst) decision table factors into 9 cases per tile; fold
  // link health in so the hot path is a single byte load.
  for (std::size_t here = 0; here < n; ++here) {
    if (tile_faulty_[here]) continue;  // never arbitrates; row unread
    std::uint8_t* row = tiles_[here].route9;
    for (int sx = -1; sx <= 1; ++sx) {
      for (int sy = -1; sy <= 1; ++sy) {
        std::uint8_t code = kRouteEject;
        if (kind_ == NetworkKind::XY ? sx != 0 : (sx != 0 && sy == 0)) {
          code = static_cast<std::uint8_t>(sx > 0 ? Direction::East
                                                  : Direction::West);
        } else if (sy != 0) {
          code = static_cast<std::uint8_t>(sy > 0 ? Direction::North
                                                  : Direction::South);
        }
        if (code < 4 && !link_ok_[here * 4 + code]) code = kRouteDrop;
        row[(sx + 1) * 3 + (sy + 1)] = code;
      }
    }
  }
}

void MeshNetwork::resync() {
  credit_returns_.clear();
  for (std::vector<std::uint32_t>& bucket : wheel_) bucket.clear();
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    for (std::size_t p = 0; p < 4; ++p) {
      const std::int32_t link = in_ring_[t * 4 + p];
      if (link < 0) continue;
      LinkState& l = link_[static_cast<std::size_t>(link)];
      l.space = static_cast<std::uint16_t>(cap_ - tiles_[t].q_size[p] - l.count);
      if (l.count != 0) file(static_cast<std::size_t>(link));
    }
  }
}

MeshStats MeshNetwork::stats() const {
  MeshStats s;
  s.injected = ctr_.injected->value;
  s.ejected = ctr_.ejected->value;
  s.dropped_at_fault = ctr_.dropped_at_fault->value;
  s.link_traversals = ctr_.link_traversals->value;
  s.cycles = ctr_.cycles->value;
  s.purged_in_dead_router = ctr_.purged_in_dead_router->value;
  s.corrupted = ctr_.corrupted->value;
  s.crc_detected = ctr_.crc_detected->value;
  s.crc_escapes = ctr_.crc_escapes->value;
  s.link_retransmits = ctr_.link_retransmits->value;
  s.link_error_drops = ctr_.link_error_drops->value;
  s.dup_dropped = ctr_.dup_dropped->value;
  return s;
}

bool MeshNetwork::can_inject(TileCoord src) const {
  if (!grid_.contains(src)) return false;
  const std::size_t t = grid_.index_of(src);
  return !tile_faulty_[t] &&
         tiles_[t].q_size[static_cast<std::size_t>(Port::Local)] < cap_;
}

bool MeshNetwork::inject(const Packet& packet) {
  if (!can_inject(packet.src)) return false;
  const std::size_t t = grid_.index_of(packet.src);
  const std::uint32_t idx = pool_alloc(packet);
  pool_[idx].network = kind_;
  q_push(t, static_cast<std::size_t>(Port::Local), idx);
  ctr_.injected->add();
  ++tile_activity_[t].injections;
  ++in_flight_;
  return true;
}

bool MeshNetwork::channel_admit(LinkTransfer t, std::size_t link,
                                std::uint64_t now) {
  const std::size_t src = link / 4;
  const std::size_t dir = link % 4;
  const auto dst = static_cast<std::size_t>(neighbor_[link]);
  const auto port =
      static_cast<std::size_t>(opposite(static_cast<Direction>(dir)));
  const std::size_t rx = dst * 4 + port;
  // A frame arriving at a tile that died while it was on the wire is lost.
  if (tile_faulty_[dst]) {
    if (options_.integrity.enabled)
      rx_seq_[rx] = static_cast<std::uint8_t>((t.seq + 1) & 0xF);
    ctr_.dropped_at_fault->add();
    pool_release(t.pkt);
    return false;
  }

  if (options_.integrity.enabled) {
    const double p = ber_.packet_error_prob_at(src, dir);
    if (p > 0.0) {
      // Every frame on the wire holds one counted traversal, so this
      // landing's index on the link is the traversals not still in flight.
      const std::uint64_t seed = options_.integrity.seed ^
                                 (static_cast<std::uint64_t>(kind_) << 32);
      const std::uint64_t index =
          link_[link].traversals - link_[link].count - 1;
      if (channel_uniform(seed, link, index, 0) < p) {
        // The channel flipped at least one of the 100 wire bits.
        if (channel_uniform(seed, link, index, 1) < kCrcEscapeProbability) {
          // Aliased to a valid codeword: delivered with poisoned payload.
          ctr_.crc_escapes->add();
          pool_[t.pkt].payload ^= 1;
        } else {
          ctr_.crc_detected->add();
          ++link_errors_[link];
          if (options_.integrity.retransmit &&
              t.retransmits < kMaxRetransmits) {
            // Go-back-N: the receiving hop NACKs; the sender replays this
            // frame (one NACK flight + one resend flight) and every frame
            // behind it on the same link, preserving per-link order.  The
            // downstream credit stays reserved for the whole retry.
            ctr_.link_retransmits->add();
            ctr_.link_traversals->add();
            ++tile_activity_[dst].retransmits;
            ++link_[link].traversals;
            ++t.retransmits;
            std::uint64_t slot =
                now + 2 * static_cast<std::uint64_t>(options_.link_latency);
            t.arrival_cycle = slot;
            for (std::size_t i = 0; i < link_[link].count; ++i)
              ring_at(link, i).arrival_cycle = ++slot;
            link_[link].next_free = std::max(link_[link].next_free, slot + 1);
            ring_push_front(link, t);
            return true;
          }
          // Budget exhausted (or retransmission disabled): drop here and
          // let the end-to-end timeout recover.  Both ends skip the lost
          // sequence number as part of the final NACK handshake.
          ctr_.link_error_drops->add();
          rx_seq_[rx] = static_cast<std::uint8_t>((t.seq + 1) & 0xF);
          pool_release(t.pkt);
          return false;
        }
      }
    }
    // Receiver-side sequence check keeps delivery idempotent: anything but
    // the expected number is a stale replay and is rejected.
    if (t.seq != rx_seq_[rx]) {
      ctr_.dup_dropped->add();
      pool_release(t.pkt);
      return false;
    }
    rx_seq_[rx] = static_cast<std::uint8_t>((t.seq + 1) & 0xF);
  }

  q_push(dst, port, t.pkt);
  return true;
}

void MeshNetwork::land() {
  const std::uint64_t now = ctr_.cycles->value;
  for (const std::uint32_t link : credit_returns_) ++link_[link].space;
  credit_returns_.clear();

  // Drain every due frame of each link filed for this cycle.  Arrivals on
  // one link are monotone, so the scan stops at the first future frame; a
  // retry re-queues at now + 2*latency, which also fails the `<= now` test
  // and ends the scan.  A link still holding frames is filed again under
  // its new front.
  due_.swap(wheel_[now % kWheel]);
  for (const std::uint32_t link : due_) {
    while (link_[link].count != 0 && ring_front(link).arrival_cycle <= now) {
      const LinkTransfer tr = ring_front(link);
      ring_pop(link);
      // A lost frame frees its downstream slot at once.
      if (!channel_admit(tr, link, now)) ++link_[link].space;
    }
    if (link_[link].count != 0) file(link);
  }
  due_.clear();
}

void MeshNetwork::route(std::vector<Packet>& ejected) {
  const std::uint64_t now = ctr_.cycles->value;
  const bool have_table = !options_.adaptive_odd_even;
  constexpr auto kLocal = static_cast<unsigned>(Port::Local);

  // Grants only push link rings; no tile gains FIFO occupancy here, so
  // walking a copy of each word visits every tile this pass has work for.
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t t =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      if (tile_faulty_[t]) continue;
      TileState& ts = tiles_[t];

      // Bit in of request field `out` (bits 5*out .. 5*out+4) is set when
      // input `in`'s head wants output `out` and can have it this cycle;
      // out_mask marks the requested outputs.
      std::uint32_t req = 0;
      unsigned out_mask = 0;
      const auto request = [&](unsigned out, unsigned in) {
        req |= 1u << (kPortCount * out + in);
        out_mask |= 1u << out;
      };
      // Iterating a copy: a drop below pops its own input, never another.
      for (unsigned busy = ts.busy; busy != 0; busy &= busy - 1) {
        const auto in = static_cast<unsigned>(std::countr_zero(busy));
        const Packet& head = pool_[q_front_idx(t, in)];

        if (have_table) {
          // DoR only looks at the sign of the remaining offset, so the
          // whole (src,dst) route function factors through nine cases per
          // tile (see rebuild_topology).  Off-grid destinations fall into
          // a non-zero sign case and drop at the wafer edge via link
          // health, same as the direct next_hop computation.
          const int sx = (head.dst.x > ts.x) - (head.dst.x < ts.x);
          const int sy = (head.dst.y > ts.y) - (head.dst.y < ts.y);
          const std::uint8_t r = ts.route9[(sx + 1) * 3 + (sy + 1)];
          if (r == kRouteEject) {
            request(kLocal, in);
          } else if (r == kRouteDrop) {
            // The single DoR direction is dead (the kernel's fault-map
            // discipline exists to prevent this).
            pool_release(q_front_idx(t, in));
            q_pop(t, in);
            ctr_.dropped_at_fault->add();
          } else if (link_[t * 4 + r].space > 0) {
            request(r, in);
          }
          continue;
        }

        // No table (adaptive routing): candidate outputs in preference
        // order, the odd-even minimal-adaptive choice set.
        const RouteChoices cand =
            odd_even_route(head.src, TileCoord{ts.x, ts.y}, head.dst);
        if (cand.eject) {
          request(kLocal, in);
          continue;
        }
        // Pick the first candidate that is healthy and has downstream
        // credit; a healthy-but-full candidate stalls the input for this
        // cycle, a route with no healthy candidate at all drops the packet.
        bool any_healthy = false;
        for (int i = 0; i < cand.count; ++i) {
          const auto dir = static_cast<unsigned>(cand.dirs[i]);
          if (!link_ok_[t * 4 + dir]) continue;
          any_healthy = true;
          if (link_[t * 4 + dir].space > 0) {
            request(dir, in);
            break;
          }
        }
        if (!any_healthy) {
          pool_release(q_front_idx(t, in));
          q_pop(t, in);
          ctr_.dropped_at_fault->add();
        }
      }

      // Each requested output grants one input per cycle, in ascending
      // output order: the first requester at or after its rotating
      // priority.  A link output was requested only while healthy with a
      // credit, and no other output spends that credit.
      for (; out_mask != 0; out_mask &= out_mask - 1) {
        const auto out = static_cast<unsigned>(std::countr_zero(out_mask));
        const unsigned mask = req >> (kPortCount * out) & 0x1fu;
        const unsigned rr = ts.rr[out];
        const unsigned rotated = (mask >> rr | mask << (kPortCount - rr));
        unsigned winner =
            rr + static_cast<unsigned>(std::countr_zero(rotated & 0x1fu));
        if (winner >= kPortCount) winner -= kPortCount;
        ts.rr[out] = static_cast<std::uint8_t>(
            winner + 1 == kPortCount ? 0 : winner + 1);

        const std::uint32_t idx = q_front_idx(t, winner);
        q_pop(t, winner);

        if (out == kLocal) {
          pool_[idx].delivered_cycle = now;
          ejected.push_back(pool_[idx]);
          pool_release(idx);
          ctr_.ejected->add();
        } else {
          const std::size_t link = t * 4 + out;
          assert(link_ok_[link] && link_[link].space > 0);
          --link_[link].space;
          ctr_.link_traversals->add();
          ++tile_activity_[t].traversals;
          LinkTransfer tr;
          tr.arrival_cycle =
              now + static_cast<std::uint64_t>(options_.link_latency);
          tr.pkt = idx;
          if (options_.integrity.enabled) {
            tr.seq = link_[link].tx_seq;
            link_[link].tx_seq = static_cast<std::uint8_t>((tr.seq + 1) & 0xF);
            ++link_[link].traversals;
            // The per-link watermark keeps frames granted after a
            // retransmission from overtaking the replayed window.
            tr.arrival_cycle =
                std::max(tr.arrival_cycle, link_[link].next_free);
            link_[link].next_free = tr.arrival_cycle + 1;
          }
          const bool idle = link_[link].count == 0;
          ring_push_back(link, tr);
          if (idle) file(link);
        }
      }
    }
  }
}

void MeshNetwork::step(std::vector<Packet>& ejected) {
  WSP_TRACE_SPAN("noc.mesh.step");
  land();
  route(ejected);
  ctr_.cycles->add();
  assert(conservation_holds());
}

std::size_t MeshNetwork::recount_in_flight() const {
  std::size_t total = 0;
  for (const TileState& ts : tiles_)
    for (std::size_t p = 0; p < kPortCount; ++p) total += ts.q_size[p];
  for (const LinkState& l : link_) total += l.count;
  return total;
}

void MeshNetwork::apply_fault_state(const FaultMap& faults,
                                    const LinkFaultSet& links) {
  require(faults.grid().width() == grid_.width() &&
              faults.grid().height() == grid_.height(),
          "apply_fault_state: fault map grid mismatch");
  rebuild_topology(faults, links);

  // Packets buffered inside a router that just died are gone: the tile no
  // longer arbitrates, so they would otherwise sit in its queues forever.
  const std::size_t n = grid_.tile_count();
  for (std::size_t t = 0; t < n; ++t) {
    TileState& ts = tiles_[t];
    if (!tile_faulty_[t] || ts.busy == 0) continue;
    for (std::size_t p = 0; p < kPortCount; ++p) {
      const std::uint16_t sz = ts.q_size[p];
      if (sz == 0) continue;
      for (std::size_t i = 0; i < sz; ++i) pool_release(q_at(t, p, i));
      ctr_.purged_in_dead_router->add(sz);
      ts.q_size[p] = 0;
      ts.q_head[p] = 0;
    }
    ts.busy = 0;
    occupied_[t / 64] &= ~(1ull << (t % 64));
  }
  resync();
}

std::optional<std::uint64_t> MeshNetwork::corrupt_head_packet(TileCoord tile) {
  if (!grid_.contains(tile)) return std::nullopt;
  const std::size_t t = grid_.index_of(tile);
  for (std::size_t p = 0; p < kPortCount; ++p) {
    if (tiles_[t].q_size[p] == 0) continue;
    const std::uint32_t idx = q_front_idx(t, p);
    const std::uint64_t id = pool_[idx].id;
    pool_release(idx);
    q_pop(t, p);
    ctr_.corrupted->add();
    return id;
  }
  return std::nullopt;
}

void MeshNetwork::take_tile_activity(std::vector<TileActivity>& sum) {
  for (std::size_t t = 0; t < tile_activity_.size(); ++t) {
    sum[t].injections += tile_activity_[t].injections;
    sum[t].traversals += tile_activity_[t].traversals;
    sum[t].retransmits += tile_activity_[t].retransmits;
  }
  std::ranges::fill(tile_activity_, TileActivity{});
}

void MeshNetwork::set_link_ber(LinkBerMap ber) {
  require(ber.grid().width() == grid_.width() &&
              ber.grid().height() == grid_.height(),
          "set_link_ber: BER map grid mismatch");
  ber_ = std::move(ber);
}

std::uint64_t MeshNetwork::link_error_count(TileCoord from,
                                            Direction d) const {
  if (link_errors_.empty() || !grid_.contains(from)) return 0;
  return link_errors_[grid_.index_of(from) * 4 + static_cast<std::size_t>(d)];
}

std::uint64_t MeshNetwork::link_traversal_count(TileCoord from,
                                                Direction d) const {
  if (!grid_.contains(from)) return 0;
  return link_[grid_.index_of(from) * 4 + static_cast<std::size_t>(d)]
      .traversals;
}

// --- checkpointing ----------------------------------------------------------

void expect_in_grid(const Packet& p, const TileGrid& grid) {
  if (!grid.contains(p.src) || !grid.contains(p.dst))
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "packet endpoint outside the grid");
}

namespace {

constexpr std::uint32_t kMeshTag = ckpt::fourcc("MESH");
// v2: per-tile activity totals ("TACT" block) for epoch co-simulation.
// v3: canonical and live-only — queued packets and in-flight frames in
//     queue order, no pool, free list, head or credit words.
// v4: the integrity options lost the retransmit budget (now a constant)
//     and the BER params no mesh reads.
// v5: counter-based channel draws, so no per-link RNG states; INTG lists
//     only the links with detected errors or a live watermark.
// v6: no FMAP, LFLT or BERM: the owner saves them once and restores them.
constexpr std::uint32_t kMeshStateVersion = 6;

[[noreturn]] void reject(const char* what) {
  throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch, what);
}

/// One field of every LinkState, as a range of references.
auto link_field(auto& links, auto member) {
  return std::views::transform(
      links, [member](auto& l) -> auto& { return l.*member; });
}

/// The entries of a per-link array that `keep` selects (never zeros), as a
/// count then (link id, value) pairs by ascending id.
void save_sparse(ckpt::Writer& w, const auto& v, auto keep) {
  w.u64(static_cast<std::uint64_t>(std::ranges::count_if(v, keep)));
  for (std::size_t link = 0; link < v.size(); ++link) {
    if (!keep(v[link])) continue;
    w.u32(static_cast<std::uint32_t>(link));
    w.u64(v[link]);
  }
}

/// Inverse of save_sparse; every entry not listed is zero.
void load_sparse(ckpt::Reader& r, auto&& v) {
  std::ranges::fill(v, 0);
  const std::size_t n = r.length(12);
  std::size_t next = 0;  // link ids are strictly ascending
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t link = r.u32();
    if (link < next || link >= v.size())
      reject("sparse entry on a repeated or missing link");
    next = link + 1;
    if ((v[link] = r.u64()) == 0) reject("sparse entry holds zero");
  }
}

}  // namespace

void MeshNetwork::save_state(ckpt::Writer& w) const {
  w.tag(kMeshTag);
  w.u32(kMeshStateVersion);
  w.i32(grid_.width());
  w.i32(grid_.height());
  w.u8(static_cast<std::uint8_t>(kind_));
  // Behavioural options are part of the schema: resuming under different
  // queue capacities or a different channel model would not reproduce the
  // saver's future.
  ckpt::save_fields(w, options_);

  // Per tile: the rotating priorities, a mask of the non-empty FIFOs, then
  // each of those FIFOs' packets from the head.
  w.tag(ckpt::fourcc("TILE"));
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    const TileState& ts = tiles_[t];
    ckpt::save_fields(w, ts.rr);
    w.u8(ts.busy);
    for (std::size_t p = 0; p < kPortCount; ++p) {
      if (ts.q_size[p] == 0) continue;
      w.u16(ts.q_size[p]);
      for (std::size_t i = 0; i < ts.q_size[p]; ++i)
        ckpt::save_fields(w, pool_[q_at(t, p, i)]);
    }
  }
  // Only the links with frames on the wire, by ascending link id; the id
  // implies each frame's source, direction and landing port.
  w.tag(ckpt::fourcc("LINK"));
  const auto busy = static_cast<std::uint64_t>(std::ranges::count_if(
      link_, [](const LinkState& l) { return l.count != 0; }));
  w.u64(busy);
  for (std::size_t link = 0; link < link_.size(); ++link) {
    if (link_[link].count == 0) continue;
    w.u32(static_cast<std::uint32_t>(link));
    w.u16(link_[link].count);
    for (std::size_t i = 0; i < link_[link].count; ++i) {
      const LinkTransfer& tr = ring_slab_[ring_slot(link, i)];
      w.u64(tr.arrival_cycle);
      w.u8(tr.seq);
      w.u8(tr.retransmits);
      ckpt::save_fields(w, pool_[tr.pkt]);
    }
  }
  w.tag(ckpt::fourcc("CNTR"));
  ckpt::save_fields(w, ctr_);
  w.tag(ckpt::fourcc("TACT"));
  ckpt::save_each(w, tile_activity_);

  w.b(options_.integrity.enabled);
  if (options_.integrity.enabled) {
    w.tag(ckpt::fourcc("INTG"));
    // Detected errors are rare: only the links that have any.
    save_sparse(w, link_errors_, [](std::uint64_t e) { return e != 0; });
    ckpt::save_each(w, link_field(link_, &LinkState::traversals),
                    link_field(link_, &LinkState::tx_seq), rx_seq_);
    // A watermark at or below now + link_latency bounds no future arrival
    // (a grant lands at least that late, a retry later still), so only
    // the live ones are written and a loaded mesh holds 0 for the rest.
    const std::uint64_t horizon =
        now() + static_cast<std::uint64_t>(options_.link_latency);
    save_sparse(w, link_field(link_, &LinkState::next_free),
                [horizon](std::uint64_t f) { return f > horizon; });
  }
}

void MeshNetwork::load_state(ckpt::Reader& r, std::uint64_t id_limit) {
  r.expect_tag(kMeshTag, "MeshNetwork");
  const std::uint32_t version = r.u32();
  if (version != kMeshStateVersion)
    throw ckpt::Error(ckpt::ErrorKind::VersionMismatch,
                      "MeshNetwork state version " + std::to_string(version));
  const int gw = r.i32();
  const int gh = r.i32();
  if (gw != grid_.width() || gh != grid_.height())
    throw ckpt::Error(ckpt::ErrorKind::TopologyMismatch,
                      "mesh snapshot grid " + std::to_string(gw) + "x" +
                          std::to_string(gh) + " vs live " +
                          std::to_string(grid_.width()) + "x" +
                          std::to_string(grid_.height()));
  if (r.u8() != static_cast<std::uint8_t>(kind_))
    reject("mesh snapshot is for the other DoR network");
  ckpt::expect_fields(r, options_, "mesh behavioural options");

  // Storage is rebuilt densely: every pool slot live, every FIFO and ring
  // starting at slot 0.
  const auto load_packet = [&] {
    Packet p;
    ckpt::load_fields(r, p);
    expect_in_grid(p, grid_);
    if (p.id >= id_limit) reject("packet id at or above the owner's next id");
    return pool_alloc(p);
  };
  pool_.clear();
  pool_free_.clear();
  std::ranges::fill(occupied_, 0);
  r.expect_tag(ckpt::fourcc("TILE"), "TileState");
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    TileState& ts = tiles_[t];
    ckpt::load_fields(r, ts.rr);
    for (const std::uint8_t rr : ts.rr)
      if (rr >= kPortCount) reject("rotating priority out of range");
    const std::uint8_t mask = r.u8();
    if (mask >> kPortCount) reject("input FIFO mask names a missing port");
    // A dead tile never routes, so its packets would stay in flight forever
    // (apply_fault_state purges exactly these).
    if (mask != 0 && tile_faulty_[t]) reject("input FIFO at a faulty tile");
    ts.q_head = {};
    ts.q_size = {};
    ts.busy = 0;
    for (std::size_t p = 0; p < kPortCount; ++p) {
      if (!(mask >> p & 1)) continue;
      const std::uint16_t size = r.u16();
      if (size == 0 || size > cap_)
        reject("input FIFO occupancy out of range");
      for (std::size_t i = 0; i < size; ++i) q_push(t, p, load_packet());
    }
  }

  r.expect_tag(ckpt::fourcc("LINK"), "LinkState");
  for (LinkState& l : link_) l.head = l.count = 0;
  const std::size_t busy = r.length(6);
  std::size_t next = 0;  // link ids are strictly ascending
  for (std::size_t k = 0; k < busy; ++k) {
    const std::size_t link = r.u32();
    if (link < next || link >= link_.size() || neighbor_[link] < 0)
      reject("in-flight frames on a repeated or missing link");
    next = link + 1;
    // Each frame holds a credit of the FIFO it lands in, so the frames and
    // that FIFO's packets can never exceed its capacity; a snapshot that
    // claims otherwise would overflow the FIFO on landing.
    const std::size_t count = r.u16();
    const auto dst = static_cast<std::size_t>(neighbor_[link]);
    const auto port = static_cast<std::size_t>(
        opposite(static_cast<Direction>(link % 4)));
    if (count == 0 || count + tiles_[dst].q_size[port] > cap_)
      reject("link frames exceed the downstream FIFO's free slots");
    LinkTransfer tr;
    for (std::size_t i = 0; i < count; ++i) {
      tr.arrival_cycle = r.u64();
      tr.seq = r.u8();
      tr.retransmits = r.u8();
      tr.pkt = load_packet();
      ring_push_back(link, tr);
    }
  }
  in_flight_ = pool_.size();

  r.expect_tag(ckpt::fourcc("CNTR"), "mesh counters");
  ckpt::load_fields(r, ctr_);
  r.expect_tag(ckpt::fourcc("TACT"), "tile activity");
  ckpt::load_each(r, tile_activity_);

  if (r.b() != options_.integrity.enabled)
    reject("integrity-state presence flag disagrees");
  if (options_.integrity.enabled) {
    r.expect_tag(ckpt::fourcc("INTG"), "link-integrity state");
    load_sparse(r, link_errors_);
    auto traversals = link_field(link_, &LinkState::traversals);
    auto tx_seq = link_field(link_, &LinkState::tx_seq);
    ckpt::load_each(r, traversals, tx_seq, rx_seq_);
    load_sparse(r, link_field(link_, &LinkState::next_free));
  }

  // The routing tables already hold the owner's restored fault state.  The
  // credit snapshots and the wheel come from the FIFOs and rings, filed
  // against the cycle counter just read.
  resync();
  if (!conservation_holds())
    reject("restored mesh fails packet conservation");
}

}  // namespace wsp::noc
