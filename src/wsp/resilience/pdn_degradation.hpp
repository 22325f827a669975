// PDN degradation: re-solving the droop profile after LDO brownouts.
//
// Sec. III sizes the edge-delivery PDN so every tile's LDO stays in its
// guaranteed [1.0 V, 1.2 V] output band.  A browned-out LDO breaks that
// contract two ways: the struck tile itself loses regulation, and — because
// a failed pass device leaks extra plane current — the surrounding droop
// deepens, which can push *neighbouring* tiles' inputs below the voltage
// the LDO can regulate from.  This module re-runs the nodal plane solve
// with the browned-out loads on the caller's PDN model and reports every
// tile pushed out of the regulated band, so the degradation layer can mark
// them unusable.
#pragma once

#include <vector>

#include "wsp/common/config.hpp"
#include "wsp/common/geometry.hpp"
#include "wsp/pdn/wafer_pdn.hpp"

namespace wsp::resilience {

struct PdnDegradationOptions {
  pdn::WaferPdnOptions pdn{};
  /// A browned-out LDO's pass device leaks: the struck tile draws this
  /// multiple of its nominal load from the plane.
  double brownout_load_factor = 1.5;
};

auto fields(Of<PdnDegradationOptions> auto& o) {
  return std::tie(o.pdn, o.brownout_load_factor);
}

struct PdnDegradationReport {
  pdn::PdnReport baseline;  ///< solve before the brownouts
  pdn::PdnReport degraded;  ///< solve with browned-out loads applied
  /// The struck tiles themselves (always unusable).
  std::vector<TileCoord> browned_out;
  /// Tiles that were in regulation at baseline but fell out of the
  /// regulated band after the re-solve (collateral undervoltage).
  std::vector<TileCoord> undervolted;
  /// Worst plane voltage after degradation.
  double min_supply_v = 0.0;

  /// All tiles the PDN layer says must be marked unusable.
  std::vector<TileCoord> unusable() const;
};

/// Re-solves `model` with `browned_out` LDOs failed, every tile at peak
/// power (the worst case a brownout can meet), each struck tile drawing
/// `brownout_load_factor` x its peak.  `baseline` is the same model's
/// all-peak solve (`model.solve_uniform(1.0)`); only the degraded map is
/// solved here.  Deterministic, since WaferPdn::solve is
/// history-independent; tiles listed twice are only counted once.
PdnDegradationReport resolve_after_brownouts(
    pdn::WaferPdn& model, const pdn::PdnReport& baseline,
    const std::vector<TileCoord>& browned_out, double brownout_load_factor);

}  // namespace wsp::resilience
