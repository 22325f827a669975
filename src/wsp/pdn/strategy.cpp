#include "wsp/pdn/strategy.hpp"

#include <algorithm>

namespace wsp::pdn {

namespace {

// Both plane-based schemes are scored off the same peak-draw plane
// solution, so compare_strategies() runs one solve (one cached
// hierarchy) and derives both reports from it.
StrategyReport ldo_report_from(const SystemConfig& config,
                               const PdnReport& r) {
  StrategyReport s;
  s.edge_voltage_v = config.edge_supply_voltage_v;
  s.plane_current_a = r.total_supply_current_a;
  s.plane_loss_w = r.plane_loss_w;
  s.regulation_loss_w = r.ldo_loss_w;
  s.delivered_power_w = r.delivered_power_w;
  s.input_power_w = r.total_input_power_w;
  s.efficiency = r.efficiency;
  s.area_overhead_fraction = 0.0;  // LDOs live inside the compute chiplets
  s.min_tile_supply_v = r.min_supply_v;
  return s;
}

StrategyReport buck_report_from(const SystemConfig& config,
                                const BuckParams& buck,
                                const PdnReport& ldo_solution) {
  // Same planes, same per-tile logic power, but delivered at the buck input
  // voltage: plane current scales down by (V_buck / V_ff) relative to the
  // LDO scheme, and plane loss by that ratio squared (I^2 R).
  const double logic_power =
      config.tile_peak_power_w * config.total_tiles();
  // Power the converters must pull from the planes.
  const double converter_input_power = logic_power / buck.converter_efficiency;
  const double plane_current = converter_input_power / buck.input_voltage_v;

  // Plane loss: reuse the LDO-scheme solve to get the plane resistance
  // behaviour, then scale by the current ratio squared.  (The droop in the
  // buck scheme is tiny, so the linear scaling is accurate.)
  const double current_ratio =
      plane_current / std::max(ldo_solution.total_supply_current_a, 1e-12);
  const double plane_loss =
      ldo_solution.plane_loss_w * current_ratio * current_ratio;

  StrategyReport s;
  s.edge_voltage_v = buck.input_voltage_v;
  s.plane_current_a = plane_current;
  s.plane_loss_w = plane_loss;
  s.regulation_loss_w = converter_input_power - logic_power;
  s.delivered_power_w = logic_power;
  s.input_power_w = converter_input_power + plane_loss;
  s.efficiency = s.delivered_power_w / s.input_power_w;
  s.area_overhead_fraction = buck.area_overhead_fraction;
  // Droop scales linearly with plane current.
  const double ldo_droop =
      config.edge_supply_voltage_v - ldo_solution.min_supply_v;
  s.min_tile_supply_v = buck.input_voltage_v - ldo_droop * current_ratio;
  return s;
}

}  // namespace

StrategyReport evaluate_ldo_strategy(const SystemConfig& config,
                                     const WaferPdnOptions& options) {
  WaferPdn pdn(config, options);
  return ldo_report_from(config, pdn.solve_uniform(1.0));
}

StrategyReport evaluate_buck_strategy(const SystemConfig& config,
                                      const BuckParams& buck,
                                      const WaferPdnOptions& options) {
  WaferPdn pdn(config, options);
  return buck_report_from(config, buck, pdn.solve_uniform(1.0));
}

StrategyReport evaluate_twv_strategy(const SystemConfig& config,
                                     const TwvParams& twv) {
  // Every tile is fed vertically: the only series resistance is its own
  // via bundle, so there is no wafer-scale droop gradient at all.
  const double i_tile = config.tile_peak_power_w / config.ff_corner_voltage_v;
  const double bundle_r = twv.via_resistance_ohm / twv.vias_per_tile;
  const double drop = i_tile * bundle_r;
  const double v_tile = twv.supply_voltage_v - drop;

  // The LDO still regulates, but from a barely-above-band input, so its
  // headroom loss is small.  Reuse the LDO model at the TWV voltage.
  LdoParams ldo_params;
  ldo_params.min_input_v = std::min(1.3, v_tile);
  const Ldo ldo(ldo_params);
  const LdoOperatingPoint op = ldo.evaluate(v_tile, i_tile);

  const double tiles = config.total_tiles();
  StrategyReport s;
  s.edge_voltage_v = twv.supply_voltage_v;
  s.plane_current_a = tiles * op.i_in;  // carried vertically, not laterally
  s.plane_loss_w = tiles * drop * op.i_in;  // via-bundle IR loss
  s.regulation_loss_w = tiles * op.power_loss_w;
  s.delivered_power_w = tiles * op.v_out * i_tile;
  s.input_power_w = s.delivered_power_w + s.plane_loss_w + s.regulation_loss_w;
  s.efficiency = s.delivered_power_w / s.input_power_w;
  s.area_overhead_fraction = 0.0;  // vias live under the tiles
  s.min_tile_supply_v = v_tile;
  return s;
}

StrategyComparison compare_strategies(const SystemConfig& config,
                                      const BuckParams& buck,
                                      const WaferPdnOptions& options) {
  StrategyComparison cmp;
  // One peak-draw solve serves both plane-based schemes.
  WaferPdn pdn(config, options);
  const PdnReport peak = pdn.solve_uniform(1.0);
  cmp.ldo = ldo_report_from(config, peak);
  cmp.buck = buck_report_from(config, buck, peak);
  cmp.twv = evaluate_twv_strategy(config);
  cmp.plane_current_ratio =
      cmp.ldo.plane_current_a / std::max(cmp.buck.plane_current_a, 1e-12);
  return cmp;
}

DtcBenefit evaluate_deep_trench_decap(const SystemConfig& config,
                                      double dtc_density_f_per_m2,
                                      double loop_response_s) {
  DtcBenefit b;
  b.onchip_decap_f = config.decap_per_tile_f;
  // The substrate area under one tile becomes available for trench caps.
  const double tile_area = config.geometry.tile_pitch_x_m() *
                           config.geometry.tile_pitch_y_m();
  b.dtc_decap_f = dtc_density_f_per_m2 * tile_area;
  b.recovered_area_fraction = config.decap_area_fraction;
  // Largest step the new budget absorbs while staying 100 mV inside the
  // regulation band: I = C * dV / t.
  const double band_margin =
      0.5 * (config.regulated_max_v - config.regulated_min_v);
  b.max_load_step_a =
      (b.onchip_decap_f + b.dtc_decap_f) * band_margin / loop_response_s;
  return b;
}

}  // namespace wsp::pdn
