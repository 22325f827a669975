#include "wsp/resilience/pdn_degradation.hpp"

#include <algorithm>

#include "wsp/common/error.hpp"

namespace wsp::resilience {

std::vector<TileCoord> PdnDegradationReport::unusable() const {
  std::vector<TileCoord> out = browned_out;
  out.insert(out.end(), undervolted.begin(), undervolted.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

PdnDegradationReport resolve_after_brownouts(
    pdn::WaferPdn& model, const pdn::PdnReport& baseline,
    const std::vector<TileCoord>& browned_out, double brownout_load_factor) {
  require(brownout_load_factor >= 1.0,
          "a browned-out LDO cannot draw less than its nominal load");
  const SystemConfig& config = model.config();
  const TileGrid grid = config.grid();
  require(baseline.tiles.size() == grid.tile_count(),
          "baseline report must come from the same model");

  PdnDegradationReport report;
  report.browned_out = browned_out;
  std::sort(report.browned_out.begin(), report.browned_out.end());
  report.browned_out.erase(
      std::unique(report.browned_out.begin(), report.browned_out.end()),
      report.browned_out.end());
  for (TileCoord t : report.browned_out)
    require(grid.contains(t), "browned-out tile outside the grid");

  report.baseline = baseline;
  std::vector<double> tile_power(grid.tile_count(), config.tile_peak_power_w);
  for (TileCoord t : report.browned_out)
    tile_power[grid.index_of(t)] *= brownout_load_factor;
  report.degraded = model.solve(tile_power);
  report.min_supply_v = report.degraded.min_supply_v;

  // Collateral damage: tiles regulated at baseline but not any more.  The
  // struck tiles themselves are reported separately.
  grid.for_each([&](TileCoord c) {
    const auto i = grid.index_of(c);
    if (std::binary_search(report.browned_out.begin(),
                           report.browned_out.end(), c))
      return;
    if (report.baseline.tiles[i].in_regulation &&
        !report.degraded.tiles[i].in_regulation)
      report.undervolted.push_back(c);
  });
  return report;
}

}  // namespace wsp::resilience
