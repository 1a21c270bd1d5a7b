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
//     computed, not the result itself: a result served from a cache
//     snapshot, for one, reports the effort of the run that saved it.
//
// digestProgram hashes the same field walk (effort counters included),
// so a recorded digest pins a program's result as golden data.
//
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_TESTS_SUITERESULTCHECK_H
#define HCVLIW_TESTS_SUITERESULTCHECK_H

#include "runtime/SuiteRunner.h"
#include "support/HashUtil.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace hcvliw {

enum class EffortCounters { Skip, Compare };

namespace suitecheck {

/// The leaf visitor of expectSameProgram: each field pair must be equal,
/// doubles by bit pattern.
struct Compare {
  static uint64_t bitsOf(double V) {
    uint64_t B;
    std::memcpy(&B, &V, sizeof(B));
    return B;
  }

  void leaf(double A, double B, const std::string &What) {
    EXPECT_EQ(bitsOf(A), bitsOf(B)) << What << ": " << A << " vs " << B;
  }

  void leaf(const Rational &A, const Rational &B, const std::string &What) {
    EXPECT_EQ(A.num(), B.num()) << What;
    EXPECT_EQ(A.den(), B.den()) << What;
  }

  template <typename T>
  std::enable_if_t<std::is_integral_v<T> || std::is_enum_v<T>>
  leaf(T A, T B, const std::string &What) {
    EXPECT_EQ(A, B) << What;
  }

  void leaf(const std::string &A, const std::string &B,
            const std::string &What) {
    EXPECT_EQ(A, B) << What;
  }

  void leaf(const std::vector<unsigned> &A, const std::vector<unsigned> &B,
            const std::string &What) {
    EXPECT_EQ(A, B) << What;
  }

  template <size_t N>
  void leaf(const std::array<unsigned, N> &A,
            const std::array<unsigned, N> &B, const std::string &What) {
    EXPECT_EQ(A, B) << What;
  }

  /// Two sequence lengths; their elements are walked only when equal.
  bool sameSize(size_t A, size_t B, const std::string &What) {
    [&] { ASSERT_EQ(A, B) << What; }();
    return A == B;
  }
};

/// The leaf visitor of digestProgram: hashes the first value of each
/// pair (walks pass the same result twice), doubles by bit pattern.
struct Digest {
  FnvHasher H;

  void leaf(double A, double, const std::string &) { H.mixDouble(A); }

  void leaf(const Rational &A, const Rational &, const std::string &) {
    H.mixRational(A);
  }

  template <typename T>
  std::enable_if_t<std::is_integral_v<T> || std::is_enum_v<T>>
  leaf(T A, T, const std::string &) {
    H.mix(static_cast<uint64_t>(A));
  }

  void leaf(const std::string &A, const std::string &, const std::string &) {
    H.mix(A.size());
    for (char C : A)
      H.mix(static_cast<unsigned char>(C));
  }

  void leaf(const std::vector<unsigned> &A, const std::vector<unsigned> &,
            const std::string &) {
    H.mixVector(A);
  }

  /// Hashed as the vector it once was, so recorded digests hold.
  template <size_t N>
  void leaf(const std::array<unsigned, N> &A, const std::array<unsigned, N> &,
            const std::string &) {
    H.mix(N);
    for (unsigned X : A)
      H.mix(X);
  }

  bool sameSize(size_t A, size_t, const std::string &) {
    H.mix(A);
    return true;
  }
};

template <typename Visitor, typename T>
void walk(Visitor &V, const T &A, const T &B, const std::string &What) {
  V.leaf(A, B, What);
}

/// Walks field F of A and B, labelled "<What>.F".
#define HCVLIW_SAME(F) walk(V, A.F, B.F, What + "." #F)

template <typename Visitor>
void walk(Visitor &V, const ActivityCounts &A, const ActivityCounts &B,
          const std::string &What) {
  HCVLIW_SAME(WeightedIns);
  HCVLIW_SAME(Comms);
  HCVLIW_SAME(MemAccesses);
}

template <typename Visitor>
void walk(Visitor &V, const LoopComponent &A, const LoopComponent &B,
          const std::string &What) {
  HCVLIW_SAME(RecMII);
  HCVLIW_SAME(FUCounts);
}

template <typename Visitor>
void walk(Visitor &V, const LoopProfile &A, const LoopProfile &B,
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
  if (!V.sameSize(A.Components.size(), B.Components.size(), What))
    return;
  for (size_t I = 0; I < A.Components.size(); ++I)
    walk(V, A.Components[I], B.Components[I],
         What + ".Components[" + std::to_string(I) + "]");
}

template <typename Visitor>
void walk(Visitor &V, const ProgramProfile &A, const ProgramProfile &B,
          const std::string &What) {
  HCVLIW_SAME(Name);
  HCVLIW_SAME(TexecRefNs);
  HCVLIW_SAME(Totals);
  if (!V.sameSize(A.Loops.size(), B.Loops.size(), What))
    return;
  for (size_t I = 0; I < A.Loops.size(); ++I)
    walk(V, A.Loops[I], B.Loops[I],
         What + ".Loops[" + std::to_string(I) + "]");
}

template <typename Visitor>
void walk(Visitor &V, const DomainOperatingPoint &A,
          const DomainOperatingPoint &B, const std::string &What) {
  HCVLIW_SAME(PeriodNs);
  HCVLIW_SAME(Vdd);
  HCVLIW_SAME(Vth);
}

template <typename Visitor>
void walk(Visitor &V, const DomainScaling &A, const DomainScaling &B,
          const std::string &What) {
  HCVLIW_SAME(Delta);
  HCVLIW_SAME(Sigma);
}

template <typename Visitor>
void walk(Visitor &V, const SelectedDesign &A, const SelectedDesign &B,
          const std::string &What) {
  HCVLIW_SAME(Valid);
  HCVLIW_SAME(EstTexecNs);
  HCVLIW_SAME(EstEnergy);
  HCVLIW_SAME(EstED2);
  if (!V.sameSize(A.Config.Clusters.size(), B.Config.Clusters.size(), What))
    return;
  for (size_t I = 0; I < A.Config.Clusters.size(); ++I)
    walk(V, A.Config.Clusters[I], B.Config.Clusters[I],
         What + ".Config.Clusters[" + std::to_string(I) + "]");
  HCVLIW_SAME(Config.Icn);
  HCVLIW_SAME(Config.Cache);
  if (!V.sameSize(A.Scaling.Clusters.size(), B.Scaling.Clusters.size(), What))
    return;
  for (size_t I = 0; I < A.Scaling.Clusters.size(); ++I)
    walk(V, A.Scaling.Clusters[I], B.Scaling.Clusters[I],
         What + ".Scaling.Clusters[" + std::to_string(I) + "]");
  HCVLIW_SAME(Scaling.Icn);
  HCVLIW_SAME(Scaling.Cache);
}

template <typename Visitor>
void walk(Visitor &V, const ConfigRunResult &A, const ConfigRunResult &B,
          const std::string &What, EffortCounters Effort) {
  HCVLIW_SAME(Ok);
  HCVLIW_SAME(TexecNs);
  HCVLIW_SAME(Energy);
  HCVLIW_SAME(ED2);
  HCVLIW_SAME(Failures);
  if (!V.sameSize(A.FailureDetails.size(), B.FailureDetails.size(), What))
    return;
  for (size_t I = 0; I < A.FailureDetails.size(); ++I) {
    const std::string At = What + ".FailureDetails[" + std::to_string(I) + "]";
    walk(V, A.FailureDetails[I].Loop, B.FailureDetails[I].Loop, At + ".Loop");
    walk(V, A.FailureDetails[I].Detail, B.FailureDetails[I].Detail,
         At + ".Detail");
  }
  if (!V.sameSize(A.Loops.size(), B.Loops.size(), What))
    return;
  for (size_t I = 0; I < A.Loops.size(); ++I) {
    const LoopRunStat &X = A.Loops[I], &Y = B.Loops[I];
    const std::string At = What + ".Loops[" + std::to_string(I) + "]";
    walk(V, X.Name, Y.Name, At + ".Name");
    walk(V, X.ITNs, Y.ITNs, At + ".ITNs");
    walk(V, X.TexecNs, Y.TexecNs, At + ".TexecNs");
    walk(V, X.Comms, Y.Comms, At + ".Comms");
    walk(V, X.Degraded, Y.Degraded, At + ".Degraded");
  }
  if (Effort == EffortCounters::Skip)
    return;
  HCVLIW_SAME(SchedPlacements);
  HCVLIW_SAME(SchedEjections);
  HCVLIW_SAME(SchedBudgetUsed);
  HCVLIW_SAME(SchedITSteps);
  HCVLIW_SAME(DegradedLoops);
  HCVLIW_SAME(FlatPartitions);
  HCVLIW_SAME(FallbackRational);
}

#undef HCVLIW_SAME

template <typename Visitor>
void walk(Visitor &V, const ProgramRunResult &A, const ProgramRunResult &B,
          EffortCounters Effort) {
  const std::string &What = A.Name;
  walk(V, A.Name, B.Name, What + ".Name");
  walk(V, A.ED2Ratio, B.ED2Ratio, What + ".ED2Ratio");
  walk(V, A.Profile, B.Profile, What + ".Profile");
  walk(V, A.HetDesign, B.HetDesign, What + ".HetDesign");
  walk(V, A.HomDesign, B.HomDesign, What + ".HomDesign");
  walk(V, A.HetMeasured, B.HetMeasured, What + ".HetMeasured", Effort);
  walk(V, A.HomMeasured, B.HomMeasured, What + ".HomMeasured", Effort);
}

} // namespace suitecheck

/// Every deterministic field of one program's result, bitwise.
inline void expectSameProgram(const ProgramRunResult &A,
                              const ProgramRunResult &B,
                              EffortCounters Effort = EffortCounters::Skip) {
  suitecheck::Compare C;
  suitecheck::walk(C, A, B, Effort);
}

/// An FNV-1a digest of exactly the fields expectSameProgram compares,
/// effort counters included: equal results digest equal, so a golden
/// digest stands in for a run of a reference implementation.
inline uint64_t digestProgram(const ProgramRunResult &R) {
  suitecheck::Digest D;
  suitecheck::walk(D, R, R, EffortCounters::Compare);
  return D.H.digest();
}

/// digestProgram of every SPECfp program under default PipelineOptions.
/// Re-recorded when the degradation ledger lost its cold-replay count
/// (the field walk changed, no result did), by building this helper
/// against the library before that change; any change to a result
/// field (or to the effort spent on it) moves the digest. Update
/// deliberately, with the reason.
inline uint64_t goldenSpecFPDigest(const std::string &Program) {
  static const std::map<std::string, uint64_t> Golden = {
      {"168.wupwise", 0xb661bf97a9b9df97ull},
      {"171.swim", 0x1d9926fb0d34a800ull},
      {"172.mgrid", 0xcb4c455b075620a9ull},
      {"173.applu", 0x9f6d3b0b0db20a1full},
      {"178.galgel", 0xcb7c304ddc434cf6ull},
      {"187.facerec", 0x6b1ace901c356619ull},
      {"189.lucas", 0x3c8fe38de5829f2aull},
      {"191.fma3d", 0xf0b5f42b2f46740cull},
      {"200.sixtrack", 0x90e7c00c3e3f5eb5ull},
      {"301.apsi", 0xddb465f3a698e12eull}};
  auto It = Golden.find(Program);
  return It == Golden.end() ? 0 : It->second;
}

/// \p R (a default-options SPECfp result) equals its golden result.
inline void expectGoldenSpecFP(const ProgramRunResult &R) {
  uint64_t Digest = digestProgram(R);
  EXPECT_EQ(Digest, goldenSpecFPDigest(R.Name))
      << R.Name << " digests to 0x" << std::hex << Digest;
}

/// Two suite runs: the same programs succeeded with bitwise-identical
/// results, and the same programs failed at the same stage for the same
/// reason.
inline void expectSameSuite(const SuiteResult &A, const SuiteResult &B,
                            EffortCounters Effort = EffortCounters::Skip) {
  suitecheck::Compare C;
  ASSERT_EQ(A.Names, B.Names);
  ASSERT_EQ(A.ED2Ratios.size(), B.ED2Ratios.size());
  for (size_t I = 0; I < A.ED2Ratios.size(); ++I)
    C.leaf(A.ED2Ratios[I], B.ED2Ratios[I], A.Names[I] + " ED2Ratios");
  ASSERT_EQ(A.Details.size(), B.Details.size());
  for (size_t I = 0; I < A.Details.size(); ++I)
    expectSameProgram(A.Details[I], B.Details[I], Effort);
  ASSERT_EQ(A.Failures.size(), B.Failures.size());
  for (size_t I = 0; I < A.Failures.size(); ++I) {
    const SuiteFailure &X = A.Failures[I], &Y = B.Failures[I];
    C.leaf(X.Program, Y.Program, "Failures[" + std::to_string(I) + "].Program");
    C.leaf(X.Stage, Y.Stage, X.Program + " failure stage");
    C.leaf(X.Reason, Y.Reason, X.Program + " failure reason");
  }
}

} // namespace hcvliw

#endif // HCVLIW_TESTS_SUITERESULTCHECK_H
