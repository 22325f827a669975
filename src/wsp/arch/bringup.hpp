// Wafer bring-up orchestration: the end-to-end sequence the paper's
// sections describe, as one library call.
//
//   1. post-assembly JTAG screening (per-row progressive unrolling, its
//      TCKs in closed form) confirms/locates the faulty tiles;
//   2. clock setup: healthy edge generators, forwarding, duty-cycle and
//      skew checks;
//   3. the usable set: healthy tiles the clock reaches with a live duty
//      cycle;
//   4. the single-system-image check: every usable pair routable,
//      directly or through one relay;
//   5. boot-time estimate for loading all memories.
//
// The Fig. 6 disconnection census is not part of bring-up; a caller that
// wants it runs noc::census_disconnection(report.usable).
//
// The result says which tiles are *usable* — healthy, clocked, and
// reachable — which is exactly the fault map the kernel then schedules
// against.  examples/bringup_flow.cpp narrates the same sequence
// interactively; this API makes it scriptable and testable.
#pragma once

#include <optional>
#include <vector>

#include "wsp/clock/duty_cycle.hpp"
#include "wsp/clock/forwarding.hpp"
#include "wsp/clock/skew.hpp"
#include "wsp/common/config.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/testinfra/test_time.hpp"

namespace wsp::arch {

/// The first healthy edge tile in tile-index order: the default clock
/// generator.  nullopt when no edge tile is healthy.
std::optional<TileCoord> first_healthy_edge_tile(const FaultMap& faults);

struct BringupOptions {
  /// Generators to configure; empty = first_healthy_edge_tile().
  std::vector<TileCoord> clock_generators;
  clock::DutyCycleOptions duty{};
  double clock_hop_delay_s = 150e-12;
  bool use_broadcast_loading = true;
};

struct BringupReport {
  /// Tiles detected faulty by the JTAG screen (== the input fault map by
  /// construction of the simulation; real hardware learns it here).
  std::size_t faulty_tiles = 0;
  std::uint64_t screening_tcks = 0;

  clock::ForwardingPlan clock_plan;
  clock::WaferDutyReport duty;
  clock::SkewReport skew;

  testinfra::LoadTimeReport boot_load;

  /// Healthy + clocked tiles; what the kernel may schedule on.
  FaultMap usable{TileGrid(1, 1)};
  std::size_t usable_tiles = 0;
  /// True when every usable pair can communicate (directly or relayed):
  /// the wafer can host a single unified-memory image.
  bool single_system_image = false;
};

/// Runs the full bring-up sequence against an assembled wafer's fault map.
BringupReport run_bringup(const SystemConfig& config, const FaultMap& faults,
                          const BringupOptions& options = {});

}  // namespace wsp::arch
