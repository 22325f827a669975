// Behavioural model of the custom wide-input-range LDO regulator.
//
// Sec. III: every compute chiplet contains an LDO that must produce a
// stable ~1.1 V logic supply while its input varies from 2.5 V (edge tiles)
// down to 1.4 V (center tiles at peak draw), deliver up to 350 mW, and ride
// out 200 mA load steps within a few cycles using ~20 nF of on-chip
// decoupling capacitance.  The paper guarantees the regulated voltage stays
// within [1.0 V, 1.2 V] across PVT corners.
//
// An LDO passes its load current straight through (I_in ~= I_out), so its
// efficiency is V_out / V_in and the headroom (V_in - V_out) is burned as
// heat in the pass device.  That first-order behaviour — plus dropout and a
// single-pole load-step response — is what this model captures; transistor-
// level detail is out of scope (the paper itself omits it "for brevity").
#pragma once

#include "wsp/common/fields.hpp"

namespace wsp::pdn {

/// Static (DC) parameters of the LDO.
struct LdoParams {
  double target_v = 1.1;      ///< nominal regulated output
  double min_output_v = 1.0;  ///< guaranteed band, low (PVT)
  double max_output_v = 1.2;  ///< guaranteed band, high (PVT)
  double dropout_v = 0.15;    ///< minimum headroom for regulation
  double max_input_v = 2.5;   ///< rated input (edge supply)
  double min_input_v = 1.4;   ///< rated input (center of wafer)
  double quiescent_a = 0.5e-3; ///< ground-pin current of the regulator
  double max_load_a = 0.35;   ///< ~350 mW / 1.0 V
  /// Line-regulation coefficient: output shifts by this fraction of the
  /// input deviation from mid-range (models the imperfect regulation that
  /// Sec. IV says makes non-edge PLL operation unreliable).
  double line_regulation = 0.02;
};

auto fields(Of<LdoParams> auto& p) {
  return std::tie(p.target_v, p.min_output_v, p.max_output_v, p.dropout_v,
                  p.max_input_v, p.min_input_v, p.quiescent_a, p.max_load_a,
                  p.line_regulation);
}

/// Result of evaluating the LDO at one DC operating point.
struct LdoOperatingPoint {
  double v_out = 0.0;        ///< regulated output voltage
  double i_in = 0.0;         ///< current drawn from the plane
  double power_loss_w = 0.0; ///< headroom + quiescent dissipation
  double efficiency = 0.0;   ///< P_out / P_in
  bool in_regulation = false; ///< output within the guaranteed band
  bool in_dropout = false;    ///< insufficient headroom: output tracks input
};

/// DC and small-signal-transient behavioural LDO.
class Ldo {
 public:
  explicit Ldo(const LdoParams& params = {});

  const LdoParams& params() const { return params_; }

  /// DC solution for a given input voltage and load current.
  LdoOperatingPoint evaluate(double v_in, double i_load) const;

  /// Worst-case transient droop (volts below the pre-step output) for a
  /// load step of `i_step` amperes absorbed by `decap_f` farads while the
  /// loop takes `response_s` seconds to react: dV = I * t / C.
  static double load_step_droop(double i_step, double decap_f,
                                double response_s);

  /// True when the steady-state output *and* the worst-case load-step
  /// excursion both stay inside the guaranteed [min, max] output band.
  bool regulation_holds(double v_in, double i_load, double i_step,
                        double decap_f, double response_s) const;

 private:
  LdoParams params_;
};

}  // namespace wsp::pdn
