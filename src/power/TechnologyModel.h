//===- power/TechnologyModel.h - Process technology constants ----*- C++ -*-===//
///
/// \file
/// Technology constants of the Section 3 power model: the alpha-power
/// velocity-saturation exponent, the subthreshold slope of the leakage
/// law, and the metastability/overdrive margin constraining Vth.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_POWER_TECHNOLOGYMODEL_H
#define HCVLIW_POWER_TECHNOLOGYMODEL_H

namespace hcvliw {

struct TechnologyModel {
  /// Velocity-saturation exponent of the alpha-power law
  /// fmax = beta * (Vdd - Vth)^Alpha / (CL * Vdd). 1.3 is the standard
  /// short-channel value.
  double Alpha = 1.3;

  /// Subthreshold slope Sv (volts per decade) of
  /// Pstat = I_t0 * W * 10^(-Vth/Sv) * Vdd. 100 mV/decade.
  double SubthresholdSlopeV = 0.1;

  /// Validity margin on the derived threshold voltage. The paper requires
  /// (its PDF rendering of the inequality is garbled) a gate-overdrive
  /// margin preventing metastability, glitches and process-variation
  /// upsets; we read it as (Vdd - Vth) - Vth > OverdriveMargin * Vdd,
  /// which admits the reference point (1 V, 0.25 V).
  double OverdriveMargin = 0.1;

  static TechnologyModel paperDefault() { return TechnologyModel(); }
};

} // namespace hcvliw

#endif // HCVLIW_POWER_TECHNOLOGYMODEL_H
