//===- tests/SuiteResultCheck.h - Bitwise suite-result checks -*- C++ -*-=====//
//
// The one comparator the determinism tests share (thread counts, program
// lanes, tracing, arenas, fault containment, warm vs cold cache). Every
// deterministic field of a ProgramRunResult is compared: the profile with
// every loop and component, both selected designs, both measurements with
// their FailureDetails and every Loops[] entry. Doubles compare by bit
// pattern, not by ==, so -0.0 vs 0.0 and differing NaN payloads count as
// differences.
//
// Two things are left out by contract:
//   - SuiteFailure::StageWallMs, which is wall time;
//   - the effort counters of ConfigRunResult (placements, ejections,
//     budget, IT steps and the degradation ledger), unless the caller
//     passes EffortCounters::Compare. They describe how a result was
//     computed, not the result itself: a warm sweep that threw and was
//     replayed cold ledgers a ColdReplay that the clean run lacks.
//
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_TESTS_SUITERESULTCHECK_H
#define HCVLIW_TESTS_SUITERESULTCHECK_H

#include "runtime/SuiteRunner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace hcvliw {

enum class EffortCounters { Skip, Compare };

namespace suitecheck {

inline uint64_t bitsOf(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

inline void same(double A, double B, const std::string &What) {
  EXPECT_EQ(bitsOf(A), bitsOf(B)) << What << ": " << A << " vs " << B;
}

inline void same(const Rational &A, const Rational &B,
                 const std::string &What) {
  EXPECT_EQ(A.num(), B.num()) << What;
  EXPECT_EQ(A.den(), B.den()) << What;
}

template <typename T>
std::enable_if_t<std::is_integral_v<T> || std::is_enum_v<T>>
same(T A, T B, const std::string &What) {
  EXPECT_EQ(A, B) << What;
}

inline void same(const std::string &A, const std::string &B,
                 const std::string &What) {
  EXPECT_EQ(A, B) << What;
}

inline void same(const std::vector<unsigned> &A,
                 const std::vector<unsigned> &B, const std::string &What) {
  EXPECT_EQ(A, B) << What;
}

/// Compares field F of A and B, labelled "<What>.F".
#define HCVLIW_SAME(F) same(A.F, B.F, What + "." #F)

inline void same(const ActivityCounts &A, const ActivityCounts &B,
                 const std::string &What) {
  HCVLIW_SAME(WeightedIns);
  HCVLIW_SAME(Comms);
  HCVLIW_SAME(MemAccesses);
}

inline void same(const ComponentProfile &A, const ComponentProfile &B,
                 const std::string &What) {
  HCVLIW_SAME(RecMII);
  HCVLIW_SAME(FUCounts);
}

inline void same(const LoopProfile &A, const LoopProfile &B,
                 const std::string &What) {
  HCVLIW_SAME(Name);
  HCVLIW_SAME(TripCount);
  HCVLIW_SAME(Weight);
  HCVLIW_SAME(Invocations);
  HCVLIW_SAME(RecMII);
  HCVLIW_SAME(ResMII);
  HCVLIW_SAME(IIHom);
  HCVLIW_SAME(ItLengthRefNs);
  HCVLIW_SAME(TexecRefNs);
  HCVLIW_SAME(PerIter);
  HCVLIW_SAME(SumLifetimesRef);
  HCVLIW_SAME(OpCounts);
  HCVLIW_SAME(NumOps);
  HCVLIW_SAME(StructuralFP);
  ASSERT_EQ(A.Components.size(), B.Components.size()) << What;
  for (size_t I = 0; I < A.Components.size(); ++I)
    same(A.Components[I], B.Components[I],
         What + ".Components[" + std::to_string(I) + "]");
}

inline void same(const ProgramProfile &A, const ProgramProfile &B,
                 const std::string &What) {
  HCVLIW_SAME(Name);
  HCVLIW_SAME(TexecRefNs);
  HCVLIW_SAME(Totals);
  ASSERT_EQ(A.Loops.size(), B.Loops.size()) << What;
  for (size_t I = 0; I < A.Loops.size(); ++I)
    same(A.Loops[I], B.Loops[I], What + ".Loops[" + std::to_string(I) + "]");
}

inline void same(const DomainOperatingPoint &A, const DomainOperatingPoint &B,
                 const std::string &What) {
  HCVLIW_SAME(PeriodNs);
  HCVLIW_SAME(Vdd);
  HCVLIW_SAME(Vth);
}

inline void same(const DomainScaling &A, const DomainScaling &B,
                 const std::string &What) {
  HCVLIW_SAME(Delta);
  HCVLIW_SAME(Sigma);
}

inline void same(const SelectedDesign &A, const SelectedDesign &B,
                 const std::string &What) {
  HCVLIW_SAME(Valid);
  HCVLIW_SAME(EstTexecNs);
  HCVLIW_SAME(EstEnergy);
  HCVLIW_SAME(EstED2);
  ASSERT_EQ(A.Config.Clusters.size(), B.Config.Clusters.size()) << What;
  for (size_t I = 0; I < A.Config.Clusters.size(); ++I)
    same(A.Config.Clusters[I], B.Config.Clusters[I],
         What + ".Config.Clusters[" + std::to_string(I) + "]");
  HCVLIW_SAME(Config.Icn);
  HCVLIW_SAME(Config.Cache);
  ASSERT_EQ(A.Scaling.Clusters.size(), B.Scaling.Clusters.size()) << What;
  for (size_t I = 0; I < A.Scaling.Clusters.size(); ++I)
    same(A.Scaling.Clusters[I], B.Scaling.Clusters[I],
         What + ".Scaling.Clusters[" + std::to_string(I) + "]");
  HCVLIW_SAME(Scaling.Icn);
  HCVLIW_SAME(Scaling.Cache);
}

inline void same(const ConfigRunResult &A, const ConfigRunResult &B,
                 const std::string &What, EffortCounters Effort) {
  HCVLIW_SAME(Ok);
  HCVLIW_SAME(TexecNs);
  HCVLIW_SAME(Energy);
  HCVLIW_SAME(ED2);
  HCVLIW_SAME(Failures);
  ASSERT_EQ(A.FailureDetails.size(), B.FailureDetails.size()) << What;
  for (size_t I = 0; I < A.FailureDetails.size(); ++I) {
    const std::string At = What + ".FailureDetails[" + std::to_string(I) + "]";
    same(A.FailureDetails[I].Loop, B.FailureDetails[I].Loop, At + ".Loop");
    same(A.FailureDetails[I].Detail, B.FailureDetails[I].Detail,
         At + ".Detail");
  }
  ASSERT_EQ(A.Loops.size(), B.Loops.size()) << What;
  for (size_t I = 0; I < A.Loops.size(); ++I) {
    const LoopRunStat &X = A.Loops[I], &Y = B.Loops[I];
    const std::string At = What + ".Loops[" + std::to_string(I) + "]";
    same(X.Name, Y.Name, At + ".Name");
    same(X.ITNs, Y.ITNs, At + ".ITNs");
    same(X.TexecNs, Y.TexecNs, At + ".TexecNs");
    same(X.Comms, Y.Comms, At + ".Comms");
    same(X.Degraded, Y.Degraded, At + ".Degraded");
  }
  if (Effort == EffortCounters::Skip)
    return;
  HCVLIW_SAME(SchedPlacements);
  HCVLIW_SAME(SchedEjections);
  HCVLIW_SAME(SchedBudgetUsed);
  HCVLIW_SAME(SchedITSteps);
  HCVLIW_SAME(DegradedLoops);
  HCVLIW_SAME(ColdReplays);
  HCVLIW_SAME(FlatPartitions);
  HCVLIW_SAME(FallbackRational);
}

#undef HCVLIW_SAME

} // namespace suitecheck

/// Every deterministic field of one program's result, bitwise.
inline void expectSameProgram(const ProgramRunResult &A,
                              const ProgramRunResult &B,
                              EffortCounters Effort = EffortCounters::Skip) {
  using suitecheck::same;
  const std::string &What = A.Name;
  same(A.Name, B.Name, What + ".Name");
  same(A.ED2Ratio, B.ED2Ratio, What + ".ED2Ratio");
  same(A.Profile, B.Profile, What + ".Profile");
  same(A.HetDesign, B.HetDesign, What + ".HetDesign");
  same(A.HomDesign, B.HomDesign, What + ".HomDesign");
  same(A.HetMeasured, B.HetMeasured, What + ".HetMeasured", Effort);
  same(A.HomMeasured, B.HomMeasured, What + ".HomMeasured", Effort);
}

/// Two suite runs: the same programs succeeded with bitwise-identical
/// results, and the same programs failed at the same stage for the same
/// reason.
inline void expectSameSuite(const SuiteResult &A, const SuiteResult &B,
                            EffortCounters Effort = EffortCounters::Skip) {
  using suitecheck::same;
  ASSERT_EQ(A.Names, B.Names);
  ASSERT_EQ(A.ED2Ratios.size(), B.ED2Ratios.size());
  for (size_t I = 0; I < A.ED2Ratios.size(); ++I)
    same(A.ED2Ratios[I], B.ED2Ratios[I], A.Names[I] + " ED2Ratios");
  ASSERT_EQ(A.Details.size(), B.Details.size());
  for (size_t I = 0; I < A.Details.size(); ++I)
    expectSameProgram(A.Details[I], B.Details[I], Effort);
  ASSERT_EQ(A.Failures.size(), B.Failures.size());
  for (size_t I = 0; I < A.Failures.size(); ++I) {
    const SuiteFailure &X = A.Failures[I], &Y = B.Failures[I];
    same(X.Program, Y.Program, "Failures[" + std::to_string(I) + "].Program");
    same(X.Stage, Y.Stage, X.Program + " failure stage");
    same(X.Reason, Y.Reason, X.Program + " failure reason");
  }
}

} // namespace hcvliw

#endif // HCVLIW_TESTS_SUITERESULTCHECK_H
