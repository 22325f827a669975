// Tests for the whole-wafer thermal model (Sec. IX "higher-power
// waferscale systems" companion analysis) and the shunt extension of the
// nodal solver it relies on.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "wsp/common/error.hpp"
#include "wsp/pdn/resistive_grid.hpp"
#include "wsp/pdn/thermal.hpp"
#include "wsp/pdn/wafer_pdn.hpp"

namespace wsp::pdn {
namespace {

SystemConfig cfg() { return SystemConfig::paper_prototype(); }

/// A shunt-only sheet fed the same current at every node carries none
/// laterally, so every node sits at exactly v_ref + I/g.
std::vector<double> uniform_injection(double shunt_g, double shunt_ref,
                                      double amperes) {
  ResistiveGrid g({.width = 7, .height = 5, .gx = 1.3, .gy = 0.4,
                   .shunt_g = shunt_g, .shunt_ref = shunt_ref});
  const std::vector<double> sink(g.node_count(), -amperes);  // inject
  std::vector<double> v(g.node_count(), 0.0);
  EXPECT_TRUE(g.solve(sink, v, 1e-12).converged);
  return v;
}

TEST(ResistiveGridShunt, DividerAgainstReference) {
  // Every node fed 1 A with a 2 S shunt to 0 V: V = I/G = 0.5.
  for (const double v : uniform_injection(2.0, 0.0, 1.0))
    EXPECT_NEAR(v, 0.5, 1e-9);
}

TEST(ResistiveGridShunt, ReferenceOffsetRespected) {
  for (const double v : uniform_injection(1.0, 25.0, 10.0))
    EXPECT_NEAR(v, 35.0, 1e-8);
  EXPECT_THROW(ResistiveGrid({.width = 2, .height = 2, .gx = 1.0, .gy = 1.0,
                              .shunt_g = -1.0}),
               Error);
}

TEST(WaferThermal, UniformPeakIsWarmButSafe) {
  WaferThermal thermal(cfg(), {});
  const ThermalReport r = thermal.solve_uniform(1.0);
  ASSERT_TRUE(r.solver_converged);
  // ~350 mW over a ~12 mm^2 tile at h = 2000 W/m^2K: ~15 C rise.
  EXPECT_GT(r.mean_c, 30.0);
  EXPECT_LT(r.max_c, 60.0);
  EXPECT_EQ(r.tiles_over_limit, 0);
  EXPECT_NEAR(r.total_heat_w, 1024 * 0.350, 1.0);
}

TEST(WaferThermal, UniformLoadGivesUniformTemperature) {
  WaferThermal thermal(cfg(), {});
  const ThermalReport r = thermal.solve_uniform(1.0);
  // No lateral gradients when every tile dissipates the same power.
  double min_c = 1e9;
  for (const double t : r.tile_temperature_c) min_c = std::min(min_c, t);
  EXPECT_NEAR(r.max_c, min_c, 0.5);
}

TEST(WaferThermal, HotspotSpreadsAndDecays) {
  const SystemConfig c = SystemConfig::reduced(16, 16);
  WaferThermal thermal(c, {});
  std::vector<double> power(256, 0.0);
  power[c.grid().index_of({8, 8})] = 2.0;  // a 2 W rogue tile
  const ThermalReport r = thermal.solve(power);
  ASSERT_TRUE(r.solver_converged);
  const double t_hot = r.tile_temperature_c[c.grid().index_of({8, 8})];
  const double t_near = r.tile_temperature_c[c.grid().index_of({9, 8})];
  const double t_far = r.tile_temperature_c[c.grid().index_of({15, 15})];
  EXPECT_GT(t_hot, t_near);
  EXPECT_GT(t_near, t_far);
  EXPECT_NEAR(t_far, thermal.options().ambient_c, 2.0);
}

TEST(WaferThermal, BetterCoolingLowersTemperature) {
  ThermalOptions air;
  air.cooling_w_m2k = 1000.0;
  ThermalOptions liquid;
  liquid.cooling_w_m2k = 10000.0;
  const ThermalReport r_air = WaferThermal(cfg(), air).solve_uniform(1.0);
  const ThermalReport r_liq = WaferThermal(cfg(), liquid).solve_uniform(1.0);
  EXPECT_GT(r_air.max_c, r_liq.max_c + 10.0);
}

TEST(WaferThermal, HigherPowerSystemsNeedBetterCooling) {
  // The paper's ongoing-work direction, quantified: scale tile power up
  // and watch the air-cooled design cross the junction limit.
  SystemConfig hot = cfg();
  hot.tile_peak_power_w = 3.5;  // 10x the prototype: a ~7 kW wafer
  ThermalOptions air;
  air.cooling_w_m2k = 1000.0;
  const ThermalReport r = WaferThermal(hot, air).solve_uniform(1.0);
  EXPECT_GT(r.tiles_over_limit, 0);
  ThermalOptions liquid;
  liquid.cooling_w_m2k = 20000.0;
  const ThermalReport r2 = WaferThermal(hot, liquid).solve_uniform(1.0);
  EXPECT_EQ(r2.tiles_over_limit, 0);
}

TEST(WaferThermal, PdnHeatMapMakesEdgeTilesHottest) {
  // Under edge-LDO delivery the edge tiles burn the most headroom, so the
  // PDN-coupled heat map inverts the usual hot-center intuition.
  WaferPdn pdn(cfg(), {});
  const PdnReport power = pdn.solve_uniform(1.0);
  const std::vector<double> heat = heat_map_from_pdn(cfg(), power);
  const TileGrid grid = cfg().grid();
  const double heat_edge = heat[grid.index_of({0, 16})];
  const double heat_center = heat[grid.index_of({16, 16})];
  EXPECT_GT(heat_edge, heat_center * 1.3);

  WaferThermal thermal(cfg(), {});
  const ThermalReport r = thermal.solve(heat);
  ASSERT_TRUE(r.solver_converged);
  // Total heat equals the wafer's input power.
  EXPECT_NEAR(r.total_heat_w, power.total_input_power_w,
              power.total_input_power_w * 0.02);
}

TEST(WaferThermal, MeanIsTileOrderSum) {
  // mean_c accumulates tile temperatures in index order; the same sum
  // over the report's per-tile values reproduces it exactly.
  WaferThermal th(cfg(), {});
  std::vector<double> power(static_cast<std::size_t>(cfg().total_tiles()));
  for (std::size_t i = 0; i < power.size(); ++i)
    power[i] = 0.1 + 0.25 * static_cast<double>(i % 7) / 7.0;
  const ThermalReport r = th.solve(power);
  double sum = 0.0;
  for (const double t : r.tile_temperature_c) sum += t;
  EXPECT_EQ(r.mean_c, sum / static_cast<double>(r.tile_temperature_c.size()));
}

TEST(WaferThermal, ValidatesInputs) {
  EXPECT_THROW(WaferThermal(cfg(), {.nodes_per_tile = 0}), Error);
  ThermalOptions bad;
  bad.cooling_w_m2k = 0.0;
  EXPECT_THROW(WaferThermal(cfg(), bad), Error);
  WaferThermal ok(cfg(), {});
  EXPECT_THROW(ok.solve(std::vector<double>(5, 0.0)), Error);
  EXPECT_THROW(ok.solve_uniform(2.0), Error);
}

}  // namespace
}  // namespace wsp::pdn
