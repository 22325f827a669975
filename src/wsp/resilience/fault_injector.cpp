#include "wsp/resilience/fault_injector.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "wsp/ckpt/checkpoint.hpp"
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
        break;  // transient: no state mutation, observers act on the notice
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

    bus_.publish(notice, faults_, links_);
    applied.push_back(notice);
  }
  return applied;
}

bool FaultInjector::retire_link(TileCoord tile, Direction d,
                                std::uint64_t cycle) {
  if (!faults_.grid().contains(tile) || !faults_.grid().neighbor(tile, d))
    return false;
  if (links_.is_failed(tile, d)) return false;
  links_.set_failed(tile, d, true);
  FaultNotice notice;
  notice.kind = RuntimeFaultKind::LinkRetirement;
  notice.tile = tile;
  notice.link = d;
  notice.cycle = cycle;
  bus_.publish(notice, faults_, links_);
  return true;
}

// --- checkpointing ----------------------------------------------------------

void FaultInjector::save_state(ckpt::Writer& w) const {
  w.tag(ckpt::fourcc("FINJ"));
  ckpt::save_fault_map(w, faults_);
  ckpt::save_link_faults(w, links_);
  ckpt::save_fields(w, std::tie(schedule_, next_, brownouts_,
                                lost_generators_, ber_degradations_));
}

void FaultInjector::load_state(ckpt::Reader& r) {
  r.expect_tag(ckpt::fourcc("FINJ"), "FaultInjector");
  // Stage everything, commit only once the whole section validated: a
  // rejected snapshot leaves the injector in its pre-load state.
  FaultMap faults = ckpt::load_fault_map(r, &faults_.grid());
  LinkFaultSet links = ckpt::load_link_faults(r, &faults_.grid());
  FaultSchedule schedule;
  std::size_t next = 0;
  std::vector<TileCoord> brownouts;
  std::vector<TileCoord> lost;
  std::vector<FaultEvent> ber;
  ckpt::load_fields(r, std::tie(schedule, next, brownouts, lost, ber));
  if (next > schedule.size())
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "schedule cursor past the end of the schedule");
  const TileGrid& grid = faults.grid();
  const auto outside = [&grid](TileCoord t) { return !grid.contains(t); };
  if (std::any_of(brownouts.begin(), brownouts.end(), outside) ||
      std::any_of(lost.begin(), lost.end(), outside) ||
      std::any_of(ber.begin(), ber.end(),
                  [&](const FaultEvent& e) { return outside(e.tile); }))
    throw ckpt::Error(ckpt::ErrorKind::SchemaMismatch,
                      "accumulated fault target outside the grid");

  faults_ = std::move(faults);
  links_ = std::move(links);
  schedule_ = std::move(schedule);
  next_ = next;
  brownouts_ = std::move(brownouts);
  lost_generators_ = std::move(lost);
  ber_degradations_ = std::move(ber);
}

}  // namespace wsp::resilience
