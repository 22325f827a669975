// Load-step transient simulation of the LDO + on-chip decap (Sec. III).
//
// The paper's requirement: the regulator must absorb a 200 mA load swing
// "within a few cycles" while the output stays inside [1.0 V, 1.2 V],
// backed by ~20 nF of on-chip decoupling capacitance per tile (35 % of the
// tile area!).  This module integrates the single-pole loop response
//
//    C * dV/dt = i_reg(t) - i_load(t)
//    tau * di_reg/dt = i_target(V) - i_reg(t)
//
// with forward Euler at sub-nanosecond steps, where i_target is the loop's
// attempt to restore V to the target (proportional control with the loop
// gain folded into tau).  It reproduces the droop/overshoot waveform and
// checks the regulation band.
#pragma once

#include <functional>
#include <vector>

#include "wsp/pdn/ldo.hpp"
#include "wsp/pdn/wafer_pdn.hpp"

namespace wsp::pdn {

/// One sample of the transient waveform.
struct TransientSample {
  double t_s = 0.0;
  double v_out = 0.0;
  double i_load = 0.0;
  double i_reg = 0.0;
};

struct TransientResult {
  std::vector<TransientSample> waveform;
  double min_v = 0.0;
  double max_v = 0.0;
  /// Time for the output to re-enter and stay within `settle_band_v` of the
  /// target after the last load change (seconds); -1 if it never settles.
  /// "Stay" means the final in-band stretch lasted at least the dwell
  /// requirement (TransientParams::settle_dwell_s): an underdamped output
  /// that is merely *crossing* the band mid-ring when the simulation
  /// horizon ends does not count as settled.
  double settle_time_s = -1.0;
  bool stayed_in_band = false;  ///< never left [min_output_v, max_output_v]
};

struct TransientParams {
  double decap_f = 20e-9;        ///< on-chip decoupling capacitance
  double loop_tau_s = 4e-9;      ///< regulator response time constant
  double loop_gain = 5.0;        ///< A per volt of output error
  double dt_s = 0.05e-9;         ///< integration step
  double settle_band_v = 0.02;   ///< settling window around target
  /// Minimum time the output must remain continuously inside the settle
  /// band before the entry point counts as settled; 0 selects the default
  /// of 5 * loop_tau_s (a ring that re-exits does so well within a few
  /// time constants).
  double settle_dwell_s = 0.0;
};

/// Simulates `duration_s` of operation with load current given by
/// `i_load(t)`.  The LDO params supply the target and the guaranteed band.
TransientResult simulate_load_transient(
    const LdoParams& ldo, const TransientParams& params, double duration_s,
    const std::function<double(double)>& i_load);

/// Convenience: a single step from `i0` to `i1` at `t_step`.
TransientResult simulate_load_step(const LdoParams& ldo,
                                   const TransientParams& params,
                                   double i0, double i1, double t_step,
                                   double duration_s);

/// One epoch of a wafer-level quasi-static transient.
struct WaferTransientEpoch {
  double t_s = 0.0;
  double min_supply_v = 0.0;
  double max_supply_v = 0.0;
  int tiles_out_of_regulation = 0;
  bool converged = false;
};

/// Result of sweeping a sequence of power maps through the plane solver.
struct WaferTransientResult {
  std::vector<WaferTransientEpoch> epochs;
  double worst_min_supply_v = 0.0;  ///< deepest droop over the whole run
  int worst_tiles_out_of_regulation = 0;
  bool all_converged = false;
};

/// Quasi-static wafer transient: each epoch's per-tile power map (watts,
/// TileGrid::index_of order) gets its own steady-state plane solve.  Valid
/// when the epoch duration is long against the plane RC (~ns), which holds
/// for NoC-activity epochs (~us).  All epochs share `pdn`'s one cached
/// multigrid hierarchy and are solved as a single WaferPdn::solve_batch, so
/// each epoch's figures equal a WaferPdn::solve on its map bit for bit;
/// epoch e starts at t = e * epoch_s.  An offline sweep of precomputed
/// maps: the coupled CosimLoop does not call it — it re-solves each epoch
/// with warm-started WaferPdn::solve_batch_warm.
WaferTransientResult simulate_wafer_transient(
    WaferPdn& pdn, const std::vector<std::vector<double>>& epoch_power_maps,
    double epoch_s);

}  // namespace wsp::pdn
