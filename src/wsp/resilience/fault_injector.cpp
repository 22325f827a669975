#include "wsp/resilience/fault_injector.hpp"

#include <limits>
#include <utility>

#include "wsp/common/error.hpp"

namespace wsp::resilience {

FaultInjector::FaultInjector(const FaultMap& initial, FaultSchedule schedule)
    : faults_(initial),
      links_(initial.grid()),
      schedule_(std::move(schedule)) {}

std::uint64_t FaultInjector::next_due_cycle() const {
  return exhausted() ? std::numeric_limits<std::uint64_t>::max()
                     : schedule_.events()[next_].cycle;
}

std::vector<FaultNotice> FaultInjector::advance_to(std::uint64_t cycle) {
  std::vector<FaultNotice> applied;
  const auto& events = schedule_.events();
  while (next_ < events.size() && events[next_].cycle <= cycle) {
    const FaultEvent& e = events[next_++];
    require(faults_.grid().contains(e.tile),
            "scheduled fault targets a tile outside the grid");

    FaultNotice notice;
    notice.kind = e.kind;
    notice.tile = e.tile;
    notice.cycle = e.cycle;

    switch (e.kind) {
      case RuntimeFaultKind::TileDeath:
        faults_.set_faulty(e.tile, true);
        break;
      case RuntimeFaultKind::LinkFailure:
        links_.set_failed(e.tile, e.link, true);
        notice.link = e.link;
        break;
      case RuntimeFaultKind::LdoBrownout:
        brownouts_.push_back(e.tile);
        break;
      case RuntimeFaultKind::ClockGenLoss:
        lost_generators_.push_back(e.tile);
        break;
      case RuntimeFaultKind::PacketCorruption:
        break;  // transient: no state mutation, the caller acts on the notice
      case RuntimeFaultKind::LinkRetirement:
        // Normally monitor-driven (retire_link), but scheduling one works:
        // it is a link failure with a different provenance.
        links_.set_failed(e.tile, e.link, true);
        notice.link = e.link;
        break;
      case RuntimeFaultKind::LinkBerDegradation:
        ber_degradations_.push_back(e);
        notice.link = e.link;
        notice.magnitude = e.magnitude;
        break;  // channel-quality change: the campaign re-derives BER maps
    }

    applied.push_back(notice);
  }
  return applied;
}

bool FaultInjector::retire_link(TileCoord tile, Direction d) {
  if (!faults_.grid().contains(tile) || !faults_.grid().neighbor(tile, d))
    return false;
  if (links_.is_failed(tile, d)) return false;
  links_.set_failed(tile, d, true);
  return true;
}

}  // namespace wsp::resilience
