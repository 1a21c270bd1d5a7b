//===- profiling/ProfileData.h - Reference-run profiles ----------*- C++ -*-===//
///
/// \file
/// Profile data collected from the reference homogeneous machine
/// (Section 3: "we will first simulate program execution in a reference
/// homogeneous microarchitecture"): per-loop scheduling statistics and
/// dynamic activity that the configuration-selection models consume.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_PROFILING_PROFILEDATA_H
#define HCVLIW_PROFILING_PROFILEDATA_H

#include "ir/RecurrenceAnalysis.h"
#include "power/EnergyModel.h"
#include "support/Rational.h"

#include <string>
#include <vector>

namespace hcvliw {

/// Table 2's loop taxonomy.
enum class LoopConstraint {
  Resource,   ///< recMII <  resMII
  Borderline, ///< resMII <= recMII < 1.3 * resMII
  Recurrence, ///< 1.3 * resMII <= recMII
};

const char *loopConstraintName(LoopConstraint C);

struct LoopProfile {
  std::string Name;
  uint64_t TripCount = 1;
  double Weight = 1.0;
  /// Invocations per program run, realizing the loop's weight as a
  /// share of the program's execution-time budget.
  double Invocations = 1.0;

  int64_t RecMII = 0;
  int64_t ResMII = 1;
  int64_t IIHom = 1;             ///< reference homogeneous II
  Rational ItLengthRefNs;        ///< reference iteration drain time
  Rational TexecRefNs;           ///< one invocation, reference machine
  ActivityCounts PerIter;        ///< per iteration
  int64_t SumLifetimesRef = 0;   ///< all clusters, reference cycles
  std::vector<unsigned> OpCounts; ///< per FUKind
  unsigned NumOps = 0;
  /// Weakly-connected DDG components, for the estimator's packing
  /// check (read from the reference schedule's
  /// LoopScheduleResult::Components).
  std::vector<LoopComponent> Components;
  /// Loop::structuralFingerprint of the profiled loop, which the
  /// Profiler hashes once for its own schedule lookup; the measurement
  /// stage keys every schedule lookup of this loop from it instead of
  /// re-hashing the loop.
  uint64_t LoopFP = 0;

  LoopConstraint classification() const {
    if (RecMII < ResMII)
      return LoopConstraint::Resource;
    if (10 * RecMII < 13 * ResMII)
      return LoopConstraint::Borderline;
    return LoopConstraint::Recurrence;
  }

  /// Reference execution time of all invocations (ns).
  double totalRefNs() const { return Invocations * TexecRefNs.toDouble(); }

  /// Structural identity of everything the Section 3.2 timing estimator
  /// reads (name, weight and invocation count excluded): two loops with
  /// equal fingerprints receive bit-identical timing estimates on equal
  /// machines, which is what lets a shared EvalCache hit across
  /// programs containing structurally identical loops. The Profiler
  /// precomputes it into StructuralFP (the hash sits on the cache-hit
  /// hot path); hand-built profiles are hashed on demand. Mutating a
  /// profile after it was fingerprinted requires resetting
  /// StructuralFP to 0.
  uint64_t timingFingerprint() const {
    return StructuralFP ? StructuralFP : computeTimingFingerprint();
  }
  uint64_t computeTimingFingerprint() const;

  uint64_t StructuralFP = 0; ///< cached timingFingerprint (0 = unset)
};

struct ProgramProfile {
  std::string Name;
  std::vector<LoopProfile> Loops;
  double TexecRefNs = 0;  ///< whole program, reference machine
  ActivityCounts Totals;  ///< whole program

  /// Execution-time share per LoopConstraint class (Table 2 row).
  std::vector<double> shareByConstraint() const;

  /// Identity of every selection-relevant field (loop structure plus
  /// weights, invocations, activity and reference totals; Name
  /// excluded). Used by the Session layer to memoize whole selections.
  uint64_t fingerprint() const;
};

} // namespace hcvliw

#endif // HCVLIW_PROFILING_PROFILEDATA_H
