// Whole-wafer steady-state thermal model.
//
// A 725 W, 15,000 mm^2 system has a heat problem as surely as a power-
// delivery problem; the paper's "design methods for higher-power
// waferscale systems" (Sec. IX ongoing work) hinge on both.  This model
// exploits the thermal-electrical duality — temperature <-> voltage,
// heat <-> current, thermal conductance <-> electrical conductance — and
// reuses the PDN's nodal solver:
//
//   * lateral spreading through the full-thickness silicon wafer
//     (k_Si ~ 149 W/mK, 700 um thick);
//   * a vertical path per unit area to the cold plate (an effective
//     heat-transfer coefficient, modelled as a shunt to ambient);
//   * per-tile heat injection from a power map (uniform peak or a
//     workload map from wsp::arch::tile_power_map).
#pragma once

#include <vector>

#include "wsp/common/config.hpp"
#include "wsp/pdn/resistive_grid.hpp"
#include "wsp/pdn/wafer_pdn.hpp"

namespace wsp::pdn {

struct ThermalOptions {
  int nodes_per_tile = 2;
  double silicon_conductivity_w_mk = 149.0;
  double wafer_thickness_m = 700e-6;
  /// Effective heat-transfer coefficient of the cooling solution, W/m^2K
  /// (2e3 ~ decent forced-air cold plate, 1e4+ ~ liquid).
  double cooling_w_m2k = 2000.0;
  double ambient_c = 25.0;
  double junction_limit_c = 105.0;
  /// Tolerance of the duality solve, kelvin, tighter than the PDN's.
  double solver_tol = 1e-8;
};

struct ThermalReport {
  std::vector<double> tile_temperature_c;  ///< by TileGrid::index_of
  double max_c = 0.0;
  double mean_c = 0.0;
  double total_heat_w = 0.0;
  int tiles_over_limit = 0;
  bool solver_converged = false;
};

class WaferThermal {
 public:
  WaferThermal(const SystemConfig& config, const ThermalOptions& options = {});

  /// Solves with per-tile power (watts, TileGrid::index_of order).
  ThermalReport solve(const std::vector<double>& tile_power_w);

  /// Solves with every tile at `activity` x peak power.
  ThermalReport solve_uniform(double activity = 1.0);

  const ThermalOptions& options() const { return options_; }

 private:
  SystemConfig config_;
  ThermalOptions options_;
  // The duality grid: one uniform slab sheet with a cold-plate shunt at
  // every node, so the hierarchy setup is paid once per WaferThermal.
  ResistiveGrid grid_;

  /// Validates the config and options, then describes the slab sheet.
  ResistiveGrid build_grid() const;
};

/// Per-tile *heat* from a PDN solve: every watt entering a tile (logic
/// plus the LDO's burned headroom) becomes heat there, and the planes'
/// own IR loss is spread across the wafer.  Notably, the edge tiles run
/// hottest under the paper's scheme — their LDOs burn the most headroom —
/// which partially cancels the usual hot-center thermal profile.
std::vector<double> heat_map_from_pdn(const SystemConfig& config,
                                      const PdnReport& pdn);

}  // namespace wsp::pdn
