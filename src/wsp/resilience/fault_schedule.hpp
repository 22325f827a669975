// Timed fault schedules: the injection layer's script.
//
// A FaultSchedule is an ordered list of fault events, each pinned to a
// simulation cycle: tile deaths, directed-link failures, LDO brownouts,
// clock-generator losses, and transient packet corruptions.  Schedules are
// either authored explicitly (regression scenarios) or sampled from a
// seeded Rng (Monte Carlo campaigns) — either way they are plain data and
// replay bit-identically.  The runtime fault kinds and the FaultNotice that
// FaultInjector::advance_to returns per applied event live here too.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "wsp/common/geometry.hpp"
#include "wsp/common/rng.hpp"

namespace wsp::ckpt {
class Writer;
class Reader;
}  // namespace wsp::ckpt

namespace wsp {

/// Kinds of fault that can strike a live wafer (Secs. IV-VII failure
/// modes, extended from assembly-time to runtime).
enum class RuntimeFaultKind : std::uint8_t {
  TileDeath = 0,        ///< whole tile (both chiplets) stops responding
  LinkFailure = 1,      ///< one directed inter-tile link (stuck async FIFO)
  LdoBrownout = 2,      ///< tile's LDO loses regulation under a load step
  ClockGenLoss = 3,     ///< an edge clock-generator tile stops toggling
  PacketCorruption = 4, ///< transient: one in-flight packet is corrupted
  LinkRetirement = 5,   ///< health monitor retired an error-prone link
  LinkBerDegradation = 6, ///< one link's bit-error rate jumps (marginal eye)
};
constexpr RuntimeFaultKind enum_max(RuntimeFaultKind) {
  return RuntimeFaultKind::LinkBerDegradation;
}

inline const char* to_string(RuntimeFaultKind k) {
  switch (k) {
    case RuntimeFaultKind::TileDeath: return "TileDeath";
    case RuntimeFaultKind::LinkFailure: return "LinkFailure";
    case RuntimeFaultKind::LdoBrownout: return "LdoBrownout";
    case RuntimeFaultKind::ClockGenLoss: return "ClockGenLoss";
    case RuntimeFaultKind::PacketCorruption: return "PacketCorruption";
    case RuntimeFaultKind::LinkRetirement: return "LinkRetirement";
    case RuntimeFaultKind::LinkBerDegradation: return "LinkBerDegradation";
  }
  return "?";
}

/// One applied fault event, as FaultInjector::advance_to returns it.
struct FaultNotice {
  RuntimeFaultKind kind = RuntimeFaultKind::TileDeath;
  TileCoord tile;                 ///< struck tile (or link source)
  std::optional<Direction> link;  ///< outgoing direction, link events only
  std::uint64_t cycle = 0;        ///< simulation cycle the fault appeared
  double magnitude = 0.0;         ///< new BER, LinkBerDegradation only
};

auto fields(Of<FaultNotice> auto& n) {
  return std::tie(n.kind, n.tile, n.link, n.cycle, n.magnitude);
}

}  // namespace wsp

namespace wsp::resilience {

/// One scheduled fault.  `link` is meaningful for link-targeted kinds;
/// `magnitude` is the new bit-error rate for LinkBerDegradation.
struct FaultEvent {
  std::uint64_t cycle = 0;
  RuntimeFaultKind kind = RuntimeFaultKind::TileDeath;
  TileCoord tile;
  Direction link = Direction::North;
  double magnitude = 0.0;
};

auto fields(Of<FaultEvent> auto& e) {
  return std::tie(e.cycle, e.kind, e.tile, e.link, e.magnitude);
}

/// Mix of faults a random schedule draws (counts per kind).
struct ScheduleMix {
  std::size_t tile_deaths = 3;
  std::size_t link_failures = 2;
  std::size_t ldo_brownouts = 1;
  std::size_t clock_gen_losses = 0;
  std::size_t packet_corruptions = 2;
  std::size_t link_ber_degradations = 0;

  std::size_t total() const {
    return tile_deaths + link_failures + ldo_brownouts + clock_gen_losses +
           packet_corruptions + link_ber_degradations;
  }
};

auto fields(Of<ScheduleMix> auto& m) {
  return std::tie(m.tile_deaths, m.link_failures, m.ldo_brownouts,
                  m.clock_gen_losses, m.packet_corruptions,
                  m.link_ber_degradations);
}

/// Cycle-ordered fault script.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Inserts an event keeping the list sorted by cycle; events on the same
  /// cycle keep their insertion order (stable), so authored schedules
  /// apply in the order they were written.
  void add(const FaultEvent& event);

  const std::vector<FaultEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Cycle of the last event, 0 when empty.
  std::uint64_t horizon() const {
    return events_.empty() ? 0 : events_.back().cycle;
  }

  /// Samples a schedule of `mix.total()` events with cycles uniform in
  /// [1, horizon] and targets uniform over the grid (tile deaths avoid
  /// repeats; clock-gen losses target edge tiles).  Deterministic in rng.
  static FaultSchedule random(const TileGrid& grid, const ScheduleMix& mix,
                              std::uint64_t horizon, Rng& rng);

  /// Checkpoint hooks (wsp::ckpt): the event list round-trips verbatim
  /// (schedules are plain data).  Load rejects out-of-range enums and an
  /// unsorted event list with ckpt::Error{SchemaMismatch}.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace wsp::resilience
