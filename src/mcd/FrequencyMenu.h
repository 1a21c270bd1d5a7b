//===- mcd/FrequencyMenu.h - Supported clock frequencies --------*- C++ -*-===//
///
/// \file
/// The set of frequencies the clock-generation network (Figure 2:
/// multipliers/dividers off one general clock) can deliver to a domain.
/// Figure 7 evaluates menus of any/16/8/4 frequencies; a discrete menu
/// forces the scheduler to pick an (II, frequency) pair with II = IT * f
/// integral and f in the menu, occasionally increasing the IT "due to
/// synchronization problems" (Section 4).
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_MCD_FREQUENCYMENU_H
#define HCVLIW_MCD_FREQUENCYMENU_H

#include "support/Rational.h"

#include <optional>
#include <utility>
#include <vector>

namespace hcvliw {

class FrequencyMenu {
  enum class Kind : uint8_t {
    /// Any frequency is generable.
    Continuous,
    /// One machine-wide list of absolute frequencies (GHz).
    Absolute,
    /// Each domain's clock network derives K sub-frequencies of that
    /// domain's own maximum: f = fmax * ratio.
    Relative,
  };
  Kind MenuKind = Kind::Continuous;
  /// Absolute frequencies (GHz), sorted ascending (Kind::Absolute).
  std::vector<Rational> Freqs;
  /// Ratios in (0, 1], sorted descending (Kind::Relative).
  std::vector<Rational> Ratios;

public:
  /// Any frequency is generable ("any freq" series of Figure 7).
  static FrequencyMenu continuous();

  /// \p K frequencies uniformly spaced at multiples of MaxGHz / K
  /// (divider network off a MaxGHz general clock).
  static FrequencyMenu uniform(unsigned K, Rational MaxGHz);

  /// \p K frequencies MaxGHz * m/d with small denominators, added in
  /// increasing-denominator order (1, 1/2, 2/3, 3/4, 4/5, 3/5, 5/6,
  /// ...): the natural output of the Figure 2 multiplier/divider
  /// network shared by all domains.
  static FrequencyMenu dividerLadder(unsigned K, Rational MaxGHz);

  /// Per-domain ladder (the Figure 7 sweep): each domain supports
  /// \p K frequencies fmax * m/d with the same small-denominator ratio
  /// sequence, so a domain can always run at its own maximum and slows
  /// down in coarse steps to synchronize with a loop's IT.
  static FrequencyMenu relativeLadder(unsigned K);

  /// Largest ladder the command-line tools accept (--menu K). Figure 7
  /// stops at 16; every extra frequency widens each domain's (II, freq)
  /// search, and K = 1024 already keeps the suite busy for over 30 s.
  static constexpr unsigned MaxLadderSize = 64;

  bool isContinuous() const { return MenuKind == Kind::Continuous; }
  const std::vector<Rational> &frequencies() const { return Freqs; }
  const std::vector<Rational> &ratios() const { return Ratios; }

  /// Best (II, frequency) pair for a domain with maximum frequency
  /// \p FmaxGHz at initiation time \p ITNs: the largest menu frequency
  /// f <= fmax with f * IT integral; II = f * IT. std::nullopt when no
  /// pair exists (a synchronization failure; the caller must increase
  /// the IT).
  std::optional<std::pair<int64_t, Rational>>
  selectIIFreq(const Rational &ITNs, const Rational &FmaxGHz) const;

  /// Smallest IT' > ITNs at which this domain would obtain at least one
  /// feasible pair with one more slot than at ITNs (used to grow the IT
  /// after scheduling or synchronization failures).
  Rational nextIT(const Rational &ITNs, const Rational &FmaxGHz) const;

  /// The largest frequency nextIT() steps by for a domain of maximum
  /// \p FmaxGHz: fmax itself on the continuous menu, fmax times the top
  /// ratio (1) on a relative ladder, the largest entry <= fmax on an
  /// absolute menu; std::nullopt when an absolute menu has none. Every
  /// multiple of its period is a point of the nextIT() sequence.
  std::optional<Rational> topFrequency(const Rational &FmaxGHz) const;
};

} // namespace hcvliw

#endif // HCVLIW_MCD_FREQUENCYMENU_H
