// Per-tile clock selection FSM (Sec. IV, Fig. 3).
//
// Each compute chiplet can choose its functional clock from six sources:
// the software-controlled JTAG/test clock (default at boot), the slow
// master clock, or one of four clocks forwarded by the neighbouring tiles.
// During the clock-setup phase the selector counts toggles on each
// forwarded input and latches onto the first input to reach a pre-defined
// toggle count (default 16).  Once latched, the selection is final and the
// chosen clock is also forwarded (inverted) to all four neighbours.
//
// This class is a cycle-level simulation of that circuitry: callers feed it
// the per-input toggle activity each sampling step and it reproduces the
// selection behaviour, including the deterministic tie-break (the hardware
// arbiter priority follows the port order N, E, S, W).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "wsp/common/geometry.hpp"

namespace wsp::clock {

/// Clock sources selectable by the tile mux.
enum class ClockSource : std::uint8_t {
  Jtag = 0,       ///< software-controlled test clock (boot default)
  Master = 1,     ///< slow off-wafer master clock
  ForwardedN = 2,
  ForwardedE = 3,
  ForwardedS = 4,
  ForwardedW = 5,
};

/// Forwarded-clock source corresponding to a mesh direction.
constexpr ClockSource forwarded_from(Direction d) {
  switch (d) {
    case Direction::North: return ClockSource::ForwardedN;
    case Direction::East:  return ClockSource::ForwardedE;
    case Direction::South: return ClockSource::ForwardedS;
    case Direction::West:  return ClockSource::ForwardedW;
  }
  return ClockSource::ForwardedN;  // unreachable
}

/// Direction a forwarded source arrives from; nullopt for Jtag/Master.
std::optional<Direction> direction_of(ClockSource s);

const char* to_string(ClockSource s);

/// Selection FSM phases.
enum class SelectorPhase : std::uint8_t {
  Boot,      ///< JTAG clock selected (power-up default)
  AutoSelect,///< counting toggles on the forwarded inputs
  Locked,    ///< functional clock chosen; forwarding active
};

class ClockSelector {
 public:
  /// `toggle_threshold` is the pre-defined toggle count (paper default 16).
  explicit ClockSelector(int toggle_threshold = 16);

  SelectorPhase phase() const { return phase_; }
  ClockSource selected() const { return selected_; }
  int toggle_threshold() const { return threshold_; }

  /// Enters the auto-selection phase (initiated over JTAG during setup).
  void begin_auto_select();

  /// Forces a specific source (used for edge tiles configured over JTAG to
  /// take the master clock / PLL path instead of a forwarded clock).
  void force_select(ClockSource source);

  /// Advances one sampling step of the auto-selection phase.  `toggled[d]`
  /// is true when the forwarded input from direction d toggled during this
  /// step.  Returns the locked source once selection completes.
  std::optional<ClockSource> step(const std::array<bool, 4>& toggled);

  /// Toggle count currently accumulated for direction `d`.
  int count(Direction d) const {
    return counts_[static_cast<std::size_t>(d)];
  }

 private:
  int threshold_;
  SelectorPhase phase_ = SelectorPhase::Boot;
  ClockSource selected_ = ClockSource::Jtag;
  std::array<int, 4> counts_{};
};

}  // namespace wsp::clock
