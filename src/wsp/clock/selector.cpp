#include "wsp/clock/selector.hpp"

#include "wsp/common/error.hpp"

namespace wsp::clock {

std::optional<Direction> direction_of(ClockSource s) {
  switch (s) {
    case ClockSource::ForwardedN: return Direction::North;
    case ClockSource::ForwardedE: return Direction::East;
    case ClockSource::ForwardedS: return Direction::South;
    case ClockSource::ForwardedW: return Direction::West;
    default: return std::nullopt;
  }
}

const char* to_string(ClockSource s) {
  switch (s) {
    case ClockSource::Jtag: return "JTAG";
    case ClockSource::Master: return "MASTER";
    case ClockSource::ForwardedN: return "FWD_N";
    case ClockSource::ForwardedE: return "FWD_E";
    case ClockSource::ForwardedS: return "FWD_S";
    case ClockSource::ForwardedW: return "FWD_W";
  }
  return "?";
}

ClockSelector::ClockSelector(int toggle_threshold)
    : threshold_(toggle_threshold) {
  require(toggle_threshold > 0, "toggle threshold must be positive");
}

void ClockSelector::begin_auto_select() {
  require(phase_ == SelectorPhase::Boot,
          "auto-selection can only start from the boot phase");
  phase_ = SelectorPhase::AutoSelect;
  counts_.fill(0);
}

void ClockSelector::force_select(ClockSource source) {
  phase_ = SelectorPhase::Locked;
  selected_ = source;
}

std::optional<ClockSource> ClockSelector::step(
    const std::array<bool, 4>& toggled) {
  if (phase_ == SelectorPhase::Locked) return selected_;
  if (phase_ != SelectorPhase::AutoSelect) return std::nullopt;

  // Count this step's toggles on all inputs, then check thresholds in the
  // fixed arbiter priority order (N, E, S, W) so simultaneous arrivals
  // resolve deterministically, as the hardware mux does.
  for (std::size_t d = 0; d < 4; ++d)
    if (toggled[d]) ++counts_[d];

  for (Direction d : kAllDirections) {
    if (counts_[static_cast<std::size_t>(d)] >= threshold_) {
      phase_ = SelectorPhase::Locked;
      selected_ = forwarded_from(d);
      return selected_;
    }
  }
  return std::nullopt;
}

}  // namespace wsp::clock
