#include "wsp/arch/bringup.hpp"

#include "wsp/common/error.hpp"
#include "wsp/noc/noc_system.hpp"

namespace wsp::arch {

std::optional<TileCoord> first_healthy_edge_tile(const FaultMap& faults) {
  const TileGrid& grid = faults.grid();
  for (std::size_t i = 0; i < grid.tile_count(); ++i) {
    const TileCoord c = grid.coord_of(i);
    if (grid.is_edge(c) && faults.is_healthy(c)) return c;
  }
  return std::nullopt;
}

BringupReport run_bringup(const SystemConfig& config, const FaultMap& faults,
                          const BringupOptions& options) {
  config.validate();
  const TileGrid grid = config.grid();
  require(grid.width() == faults.grid().width() &&
              grid.height() == faults.grid().height(),
          "fault map does not match the configuration");

  BringupReport report;
  report.faulty_tiles = faults.fault_count();

  // --- 1. JTAG screening: one chain per row, progressive unrolling ---
  // A row's screen stops at its first faulty tile, so its TCK count is a
  // closed form in that index.
  const int daps_in_path =
      options.use_broadcast_loading ? 1 : config.cores_per_tile;
  for (int row = 0; row < config.array_height; ++row) {
    std::optional<int> first_faulty;
    for (int x = 0; x < config.array_width && !first_faulty; ++x)
      if (faults.is_faulty({x, row})) first_faulty = x;
    report.screening_tcks += testinfra::progressive_unroll_tcks(
        config.array_width, daps_in_path, first_faulty);
  }

  // --- 2. clock setup ---
  std::vector<TileCoord> generators = options.clock_generators;
  if (generators.empty()) {
    const std::optional<TileCoord> edge = first_healthy_edge_tile(faults);
    require(edge.has_value(), "no healthy edge tile to generate the clock");
    generators.push_back(*edge);
  }
  report.clock_plan = clock::simulate_forwarding(faults, generators);
  report.duty =
      clock::analyze_plan_duty(report.clock_plan, grid, options.duty);
  report.skew =
      clock::analyze_skew(report.clock_plan, grid, options.clock_hop_delay_s);

  // --- 3. usable set: healthy, clocked, and with a live duty cycle ---
  report.usable = faults;
  grid.for_each([&](TileCoord c) {
    const auto i = grid.index_of(c);
    if (faults.is_healthy(c) &&
        (!report.clock_plan.tiles[i].reached || !report.duty.alive[i]))
      report.usable.set_faulty(c, true);
  });
  report.usable_tiles = report.usable.healthy_count();

  // --- 4. single-system-image check: every usable pair routable,
  // directly or through one relay ---
  const noc::PairReachability census =
      noc::NetworkSelector(report.usable).reachable_pairs();
  report.single_system_image = census.reachable == census.pairs;

  // --- 5. boot-time estimate ---
  report.boot_load = testinfra::memory_load_time(
      config, config.jtag_chains, options.use_broadcast_loading);
  return report;
}

}  // namespace wsp::arch
