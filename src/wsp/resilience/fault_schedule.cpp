#include "wsp/resilience/fault_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/error.hpp"

namespace wsp::resilience {

void FaultSchedule::add(const FaultEvent& event) {
  // upper_bound keeps same-cycle events in insertion order (stable).
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.cycle < b.cycle; });
  events_.insert(pos, event);
}

FaultSchedule FaultSchedule::random(const TileGrid& grid,
                                    const ScheduleMix& mix,
                                    std::uint64_t horizon, Rng& rng) {
  require(horizon >= 1, "schedule horizon must be at least one cycle");
  require(mix.tile_deaths < grid.tile_count(),
          "cannot kill every tile of the grid");

  FaultSchedule schedule;
  const auto random_cycle = [&] { return 1 + rng.below(horizon); };
  const auto random_tile = [&] {
    return grid.coord_of(rng.below(grid.tile_count()));
  };

  std::vector<TileCoord> dead;
  for (std::size_t i = 0; i < mix.tile_deaths; ++i) {
    TileCoord t = random_tile();
    while (std::find(dead.begin(), dead.end(), t) != dead.end())
      t = random_tile();
    dead.push_back(t);
    schedule.add({random_cycle(), RuntimeFaultKind::TileDeath, t, {}});
  }
  for (std::size_t i = 0; i < mix.link_failures; ++i) {
    // Redraw until the link actually leaves toward a neighbour.
    TileCoord t = random_tile();
    auto d = static_cast<Direction>(rng.below(4));
    while (!grid.neighbor(t, d)) {
      t = random_tile();
      d = static_cast<Direction>(rng.below(4));
    }
    schedule.add({random_cycle(), RuntimeFaultKind::LinkFailure, t, d});
  }
  for (std::size_t i = 0; i < mix.ldo_brownouts; ++i)
    schedule.add(
        {random_cycle(), RuntimeFaultKind::LdoBrownout, random_tile(), {}});
  for (std::size_t i = 0; i < mix.clock_gen_losses; ++i) {
    TileCoord t = random_tile();
    while (!grid.is_edge(t)) t = random_tile();
    schedule.add({random_cycle(), RuntimeFaultKind::ClockGenLoss, t, {}});
  }
  for (std::size_t i = 0; i < mix.packet_corruptions; ++i)
    schedule.add({random_cycle(), RuntimeFaultKind::PacketCorruption,
                  random_tile(), {}});
  for (std::size_t i = 0; i < mix.link_ber_degradations; ++i) {
    TileCoord t = random_tile();
    auto d = static_cast<Direction>(rng.below(4));
    while (!grid.neighbor(t, d)) {
      t = random_tile();
      d = static_cast<Direction>(rng.below(4));
    }
    // BER log-uniform in [1e-5, 1e-2]: from barely measurable to a link
    // that corrupts most packets (100 bits/packet).
    const double ber = std::pow(10.0, -(2.0 + 3.0 * rng.uniform()));
    FaultEvent e{random_cycle(), RuntimeFaultKind::LinkBerDegradation, t, d};
    e.magnitude = ber;
    schedule.add(e);
  }
  return schedule;
}

// --- checkpointing ----------------------------------------------------------

void FaultSchedule::save_state(ckpt::Writer& w) const {
  w.tag(ckpt::fourcc("FSCH"));
  ckpt::save_fields(w, events_);
}

void FaultSchedule::load_state(ckpt::Reader& r) {
  r.expect_tag(ckpt::fourcc("FSCH"), "FaultSchedule");
  std::vector<FaultEvent> events;
  ckpt::load_fields(r, events);
  if (!std::is_sorted(events.begin(), events.end(),
                      [](const FaultEvent& a, const FaultEvent& b) {
                        return a.cycle < b.cycle;
                      }))
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "schedule events not sorted by cycle");
  events_ = std::move(events);
}

}  // namespace wsp::resilience
