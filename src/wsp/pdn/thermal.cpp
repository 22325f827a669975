#include "wsp/pdn/thermal.hpp"

#include <algorithm>
#include <numeric>

#include "wsp/common/error.hpp"

namespace wsp::pdn {

WaferThermal::WaferThermal(const SystemConfig& config,
                           const ThermalOptions& options)
    : config_(config), options_(options), grid_(build_grid()) {}

ResistiveGrid WaferThermal::build_grid() const {
  config_.validate();
  require(options_.nodes_per_tile >= 1, "nodes_per_tile must be >= 1");
  require(options_.silicon_conductivity_w_mk > 0.0 &&
              options_.wafer_thickness_m > 0.0 &&
              options_.cooling_w_m2k > 0.0,
          "thermal parameters must be positive");
  const int k = options_.nodes_per_tile;
  // Lateral spreading: conductance of a silicon slab segment.  Every node
  // has the vertical path to the cold plate, a shunt to ambient.
  const double dx = config_.geometry.tile_pitch_x_m() / k;
  const double dy = config_.geometry.tile_pitch_y_m() / k;
  const double kt = options_.silicon_conductivity_w_mk *
                    options_.wafer_thickness_m;
  return ResistiveGrid({.width = config_.array_width * k,
                        .height = config_.array_height * k,
                        .gx = kt * dy / dx,
                        .gy = kt * dx / dy,
                        .shunt_g = options_.cooling_w_m2k * dx * dy,
                        .shunt_ref = options_.ambient_c});
}

ThermalReport WaferThermal::solve(const std::vector<double>& tile_power_w) {
  const TileGrid tiles = config_.grid();
  require(tile_power_w.size() == tiles.tile_count(),
          "tile power vector size mismatch");

  const int k = options_.nodes_per_tile;

  // Heat injection: negative current sinks.
  const double nodes_per_tile = static_cast<double>(k) * k;
  std::vector<double> sink(grid_.node_count(), 0.0);
  for (std::size_t i = 0; i < tiles.tile_count(); ++i) {
    const TileCoord c = tiles.coord_of(i);
    const double per_node = tile_power_w[i] / nodes_per_tile;
    for (int sy = 0; sy < k; ++sy)
      for (int sx = 0; sx < k; ++sx)
        sink[grid_.index(c.x * k + sx, c.y * k + sy)] = -per_node;
  }

  // A zero seed: results must not depend on solve history.
  std::vector<double> node_c(grid_.node_count(), 0.0);
  const SolveStats stats = grid_.solve(sink, node_c, options_.solver_tol);

  ThermalReport report;
  report.solver_converged = stats.converged;
  report.tile_temperature_c.resize(tiles.tile_count());
  report.total_heat_w =
      std::accumulate(tile_power_w.begin(), tile_power_w.end(), 0.0);
  double sum_c = 0.0;
  for (std::size_t i = 0; i < tiles.tile_count(); ++i) {
    const TileCoord c = tiles.coord_of(i);
    double t = 0.0;
    for (int sy = 0; sy < k; ++sy)
      for (int sx = 0; sx < k; ++sx)
        t += node_c[grid_.index(c.x * k + sx, c.y * k + sy)];
    t /= nodes_per_tile;
    report.tile_temperature_c[i] = t;
    report.max_c = std::max(report.max_c, t);
    sum_c += t;
    if (t > options_.junction_limit_c) ++report.tiles_over_limit;
  }
  report.mean_c = sum_c / static_cast<double>(tiles.tile_count());
  return report;
}

std::vector<double> heat_map_from_pdn(const SystemConfig& config,
                                      const PdnReport& pdn) {
  require(pdn.tiles.size() ==
              static_cast<std::size_t>(config.total_tiles()),
          "PDN report does not match the configuration");
  const double plane_share =
      pdn.plane_loss_w / static_cast<double>(config.total_tiles());
  std::vector<double> heat(pdn.tiles.size());
  for (std::size_t i = 0; i < pdn.tiles.size(); ++i)
    heat[i] = pdn.tiles[i].supply_v * pdn.tiles[i].plane_current_a +
              plane_share;
  return heat;
}

ThermalReport WaferThermal::solve_uniform(double activity) {
  require(activity >= 0.0 && activity <= 1.0, "activity must be in [0,1]");
  std::vector<double> power(
      static_cast<std::size_t>(config_.total_tiles()),
      activity * config_.tile_peak_power_w);
  return solve(power);
}

}  // namespace wsp::pdn
