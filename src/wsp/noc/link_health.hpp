// Predictive link retirement from accumulated CRC-error telemetry.
//
// Every router hop that catches a CRC error charges it to the directed
// link the frame crossed (MeshNetwork::link_error_count).  Firmware scrubs
// those counters periodically — in hardware over the same DAP/JTAG chain
// used for SRAM repair (wsp/testinfra/link_scrub.hpp) — and retires a link
// whose observed error rate says it is dying *before* it fails hard: the
// link goes into the kernel's LinkFaultSet and the PR-1 replan machinery
// routes around it while traffic still flows.  Retirement is one-way; a
// marginal link that recovers its margin is not trusted again.
//
// The scrub word format is what the hardware path carries: one 32-bit word
// per direction, detected errors in the high half and traversal attempts
// in the low half.  Past 16 bits of traversals both counts are scaled down
// together, so a busy link keeps its error rate.  The monitor makes its
// decisions from those packed words whether they arrived via JTAG or were
// read directly from the simulator, so the two paths retire identically.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "wsp/common/geometry.hpp"

namespace wsp::noc {

class NocSystem;

/// One retirement decision, for the campaign report.
struct RetiredLink {
  TileCoord tile;                ///< link source
  Direction dir = Direction::North;
  std::uint64_t cycle = 0;       ///< scrub cycle that triggered it
  std::uint64_t errors = 0;      ///< counter values at that scrub
  std::uint64_t traversals = 0;
};

auto fields(Of<RetiredLink> auto& l) {
  return std::tie(l.tile, l.dir, l.cycle, l.errors, l.traversals);
}

/// Packs one direction's counters into the 32-bit scrub word the DAP
/// chain carries: errors<<16 | traversals.  When traversals exceed 0xFFFF
/// both counts are shifted right by the same amount until traversals fit,
/// which keeps their ratio; errors beyond traversals saturate at 0xFFFF.
std::uint32_t pack_scrub_word(std::uint64_t errors, std::uint64_t traversals);

/// The four scrub words of one tile (kAllDirections order), read straight
/// from the NoC's per-link counters — what the tile deposits in its SRAM
/// for the JTAG host to collect.
std::array<std::uint32_t, 4> pack_scrub_words(const NocSystem& noc,
                                              TileCoord tile);

/// Accumulates scrubbed per-link error telemetry and flags links for
/// retirement.  The monitor only *decides*; the caller retires the link in
/// the NoC (NocSystem::retire_link) and in the runtime fault state
/// (FaultInjector::retire_link).
class LinkHealthMonitor {
 public:
  /// When to give up on a link.  Rate alone is too twitchy at low traffic
  /// (one error in three traversals is noise), so retirement also needs a
  /// minimum observation count on both axes.
  static constexpr std::uint64_t kMinTraversals = 16;  ///< don't judge idle
  static constexpr std::uint64_t kMinErrors = 4;  ///< don't judge a glitch
  static constexpr double kRetireErrorRate = 0.02;  ///< errors/traversals

  explicit LinkHealthMonitor(const TileGrid& grid);

  /// Scrubs every tile's counters directly from the simulator and returns
  /// the links newly due for retirement (each link is reported once).
  std::vector<RetiredLink> scrub(const NocSystem& noc);

  /// Feeds one tile's scrub words as collected over the hardware path
  /// (wsp/testinfra/link_scrub.hpp).  Same decision logic as scrub().
  std::vector<RetiredLink> ingest(TileCoord tile,
                                  const std::array<std::uint32_t, 4>& words,
                                  std::uint64_t cycle);

  /// Every retirement decision so far, in decision order.
  const std::vector<RetiredLink>& retired() const { return retired_; }
  bool is_retired(TileCoord tile, Direction d) const;

  const TileGrid& grid() const { return grid_; }

 private:
  TileGrid grid_;
  std::vector<std::array<bool, 4>> flagged_;  ///< already reported
  std::vector<RetiredLink> retired_;
};

}  // namespace wsp::noc
