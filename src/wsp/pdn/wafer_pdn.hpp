// Whole-wafer power-delivery analysis (Sec. III, Fig. 2).
//
// Combines the resistive-plane solver with the per-tile LDO model to answer
// the paper's power-delivery questions: what voltage does each tile receive,
// does the LDO hold regulation everywhere, how much power is lost in the
// planes and the regulators, and what does the droop profile from edge to
// center look like.
//
// Electrical model: the VDD and ground planes are each a slotted 2 um
// copper sheet; the load current traverses both, so the solver uses the
// round-trip (loop) sheet resistance.  The wafer edge is held at the edge
// supply voltage on the powered edges.  Each tile's LDO passes its load
// current through unchanged (constant-current load), which is why the paper
// can quote "about 290 A" independent of where the droop settles; a
// constant-power mode is provided as an ablation.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "wsp/common/config.hpp"
#include "wsp/common/geometry.hpp"
#include "wsp/pdn/ldo.hpp"
#include "wsp/pdn/resistive_grid.hpp"

namespace wsp::pdn {

/// How tile loads are modelled during the plane solve.
enum class LoadModel {
  ConstantCurrent,  ///< I_tile fixed at P_peak / V_ff (LDO pass-through)
  ConstantPower,    ///< I_tile = P_tile / V_node, solved self-consistently
};

struct WaferPdnOptions {
  /// Grid refinement: solver nodes per tile along each axis.
  int nodes_per_tile = 2;
  /// Multiplier on plane sheet resistance accounting for plane slotting
  /// (slotted planes are required for manufacturability; calibrated so the
  /// full prototype's center voltage lands at the paper's ~1.4 V).
  double plane_slotting_factor = 2.9;
  /// Which wafer edges carry power connectors (N, E, S, W).
  std::array<bool, 4> powered_edges{true, true, true, true};
  LoadModel load_model = LoadModel::ConstantCurrent;
  LdoParams ldo{};
  /// Plane-solve tolerance on the max per-node update, volts (see
  /// ResistiveGrid::solve).  The grid topology is fixed per WaferPdn, so
  /// the multigrid hierarchy is built once and amortized over every solve
  /// / batch / brownout re-solve.
  double solver_tol = 1e-7;
};

auto fields(Of<WaferPdnOptions> auto& o) {
  return std::tie(o.nodes_per_tile, o.plane_slotting_factor, o.powered_edges,
                  o.load_model, o.ldo, o.solver_tol);
}

/// Per-tile result of a PDN solve.
struct TilePower {
  double supply_v = 0.0;      ///< plane voltage delivered to the tile
  double regulated_v = 0.0;   ///< LDO output
  double plane_current_a = 0.0;
  double ldo_loss_w = 0.0;
  bool in_regulation = false;
};

/// Aggregate result of a PDN solve.
struct PdnReport {
  std::vector<TilePower> tiles;       ///< indexed by TileGrid::index_of
  double min_supply_v = 0.0;          ///< worst (center) plane voltage
  double max_supply_v = 0.0;          ///< best (edge) plane voltage
  double total_supply_current_a = 0.0;
  double total_input_power_w = 0.0;   ///< power entering the wafer edge
  double plane_loss_w = 0.0;          ///< IR loss in the power planes
  double ldo_loss_w = 0.0;            ///< headroom loss in all LDOs
  double delivered_power_w = 0.0;     ///< power reaching tile logic
  double efficiency = 0.0;            ///< delivered / input
  int tiles_out_of_regulation = 0;
  bool solver_converged = false;
};

/// Whole-wafer PDN model bound to one SystemConfig.
class WaferPdn {
 public:
  WaferPdn(const SystemConfig& config, const WaferPdnOptions& options = {});

  /// Solves the planes with every tile drawing `activity` x its peak power
  /// (activity = 1.0 reproduces Fig. 2's peak-draw condition).  `activity`
  /// must be a finite value in [0,1]; anything else throws wsp::Error.
  PdnReport solve_uniform(double activity = 1.0);

  /// Solves with an explicit per-tile power vector (watts, indexed by
  /// TileGrid::index_of) — used for workload-dependent power maps.  Every
  /// entry must be finite and non-negative (throws wsp::Error otherwise).
  /// Results are history-independent: each solve re-seeds the cached grid
  /// to the fresh cold-start state, so only the hierarchy setup is
  /// amortized, never the numerics.
  PdnReport solve(const std::vector<double>& tile_power_w);

  /// Solves many per-tile power maps against the one cached topology in a
  /// single batched call (ResistiveGrid::solve_batch: serial, one
  /// hierarchy amortized).  Reports are bit-identical to calling solve()
  /// on each map in order.  Requires
  /// LoadModel::ConstantCurrent (the constant-power outer iteration couples
  /// sinks to its own solution and cannot batch).  Power maps face the same
  /// preconditions as solve().
  std::vector<PdnReport> solve_batch(
      const std::vector<std::vector<double>>& tile_power_maps);

  /// Warm-started batch solve — the epoch-coupling seam.  Like
  /// solve_batch(), but each map's solver state is seeded from (and the
  /// converged solution written back into) `seeds[m]`, a caller-owned
  /// buffer of node_count() voltages persisted across calls: an epoch
  /// driver re-solving a slowly drifting power map starts from last
  /// epoch's solution and converges in a fraction of the cold-start
  /// V-cycles.  An empty seeds[m] is cold-started (zeros) and resized;
  /// any other length throws wsp::Error.  `seeds.size()` must equal
  /// `tile_power_maps.size()`; either may be a sub-span of a longer list.
  /// A seed that already solves its map (iterations == 0) comes back
  /// unchanged, as does its report.  stats_out, when non-null, receives
  /// the per-map solver stats (iteration counts for warm-vs-cold
  /// accounting).
  std::vector<PdnReport> solve_batch_warm(
      std::span<const std::vector<double>> tile_power_maps,
      std::span<std::vector<double>> seeds,
      std::vector<SolveStats>* stats_out = nullptr);

  /// Solver nodes per plane solve — the seed-buffer length for
  /// solve_batch_warm.
  std::size_t node_count() const { return grid_.node_count(); }

  /// Loop (VDD+GND) sheet resistance after slotting derate, ohm/sq.
  double loop_sheet_resistance() const;

  /// Voltage profile along the horizontal mid-line of the wafer: one entry
  /// per tile column.  This is the Fig. 2 edge-to-center-to-edge curve.
  static std::vector<double> midline_profile(const PdnReport& report,
                                             const TileGrid& grid);

  /// Mean supply voltage at each distance-to-edge ring (index = tile rings
  /// from the boundary inward).  Shows droop vs distance from edge.
  static std::vector<double> ring_profile(const PdnReport& report,
                                          const TileGrid& grid);

  const SystemConfig& config() const { return config_; }
  const WaferPdnOptions& options() const { return options_; }

  /// Binds wafer-level PDN metrics into `registry` ("pdn." namespace):
  /// solver counters/gauges from the underlying ResistiveGrid plus report
  /// gauges (pdn.min_supply_v, pdn.efficiency, pdn.plane_loss_w,
  /// pdn.ldo_loss_w, pdn.tiles_out_of_regulation), refreshed per solve.
  /// Pass nullptr to unbind.  The registry must outlive the WaferPdn.
  void bind_metrics(obs::MetricsRegistry* registry) {
    metrics_ = registry;
    grid_.bind_metrics(registry);
  }

 private:
  SystemConfig config_;
  WaferPdnOptions options_;
  Ldo ldo_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // The plane model, built once: topology (conductances, Dirichlet edges)
  // never changes after construction, so the cached multigrid hierarchy
  // survives for the WaferPdn's whole lifetime.
  ResistiveGrid grid_;
  std::vector<double> sink_scratch_;  // node sinks staged per solve

  ResistiveGrid build_grid() const;
  /// Per-tile LDO load currents for a power map under ConstantCurrent
  /// (pass-through, P / V_ff; quiescent draw excluded).
  std::vector<double> load_currents(
      const std::vector<double>& tile_power_w) const;
  /// Scatters per-tile load currents, plus the quiescent draw of every
  /// powered tile, into per-node sinks (k x k nodes/tile).
  void scatter_sinks(const std::vector<double>& tile_load,
                     const std::vector<double>& tile_power_w,
                     std::vector<double>& node_sink) const;
  /// `tile_load_a` is the per-tile load current the solve actually sank
  /// (before quiescent draw); each LDO is evaluated at it.  Throws if a
  /// converged report's energy balance misses by more than the solve's
  /// KCL residual allows.
  PdnReport extract_report(std::span<const double> node_v,
                           std::span<const double> node_sink,
                           const std::vector<double>& tile_power_w,
                           const std::vector<double>& tile_load_a,
                           const SolveStats& stats) const;
};

}  // namespace wsp::pdn
