// Timed fault schedules: the injection layer's script.
//
// A FaultSchedule is an ordered list of fault events, each pinned to a
// simulation cycle: tile deaths, directed-link failures, LDO brownouts,
// clock-generator losses, and transient packet corruptions.  Schedules are
// either authored explicitly (regression scenarios) or sampled from a
// seeded Rng (Monte Carlo campaigns) — either way they are plain data and
// replay bit-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "wsp/common/fault_observer.hpp"
#include "wsp/common/geometry.hpp"
#include "wsp/common/rng.hpp"

namespace wsp::ckpt {
class Writer;
class Reader;
}  // namespace wsp::ckpt

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
