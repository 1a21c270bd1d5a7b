//===- tests/runtime/ProfileSessionTest.cpp - Session-backed profiling ------===//
//
// Pipeline step 1 schedules through ScheduleMeasurer and the session
// caches. The contracts: every SPECfp profile is bit-identical to a
// cache-less Profiler's, cold, on a repeated pass served entirely from
// the schedule cache, and in a fresh session warmed from a saved
// snapshot; the cache-less profiles match golden fingerprints recorded
// while the Profiler still built its own LoopScheduler; the profiling
// policy ignores the measurement knobs of the session it is bound to;
// the per-loop cache counters in the metrics registry agree with the
// ScheduleCache's own totals; and the registry's scheduler and
// partitioner effort counters equal the effort stored in the cache.
//
//===----------------------------------------------------------------------===//

#include "profiling/Profiler.h"
#include "runtime/Session.h"
#include "runtime/SuiteRunner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace hcvliw;

namespace {

/// Field-for-field equality of two profiles. EXPECT_EQ on doubles is
/// bitwise-exact equality — that is the contract.
void expectSameProfile(const ProgramProfile &A, const ProgramProfile &B) {
  EXPECT_EQ(A.fingerprint(), B.fingerprint()) << A.Name;
  EXPECT_EQ(A.Name, B.Name);
  EXPECT_EQ(A.TexecRefNs, B.TexecRefNs);
  EXPECT_EQ(A.Totals.WeightedIns, B.Totals.WeightedIns);
  EXPECT_EQ(A.Totals.Comms, B.Totals.Comms);
  EXPECT_EQ(A.Totals.MemAccesses, B.Totals.MemAccesses);
  ASSERT_EQ(A.Loops.size(), B.Loops.size());
  for (size_t I = 0; I < A.Loops.size(); ++I) {
    const LoopProfile &X = A.Loops[I], &Y = B.Loops[I];
    EXPECT_EQ(X.Name, Y.Name);
    EXPECT_EQ(X.TripCount, Y.TripCount);
    EXPECT_EQ(X.Weight, Y.Weight);
    EXPECT_EQ(X.Invocations, Y.Invocations);
    EXPECT_EQ(X.RecMII, Y.RecMII);
    EXPECT_EQ(X.ResMII, Y.ResMII);
    EXPECT_EQ(X.IIHom, Y.IIHom);
    EXPECT_EQ(X.ItLengthRefNs, Y.ItLengthRefNs);
    EXPECT_EQ(X.TexecRefNs, Y.TexecRefNs);
    EXPECT_EQ(X.PerIter.WeightedIns, Y.PerIter.WeightedIns);
    EXPECT_EQ(X.PerIter.Comms, Y.PerIter.Comms);
    EXPECT_EQ(X.PerIter.MemAccesses, Y.PerIter.MemAccesses);
    EXPECT_EQ(X.SumLifetimesRef, Y.SumLifetimesRef);
    EXPECT_EQ(X.OpCounts, Y.OpCounts);
    EXPECT_EQ(X.NumOps, Y.NumOps);
    ASSERT_EQ(X.Components.size(), Y.Components.size());
    for (size_t C = 0; C < X.Components.size(); ++C) {
      EXPECT_EQ(X.Components[C].FUCounts, Y.Components[C].FUCounts);
      EXPECT_EQ(X.Components[C].RecMII, Y.Components[C].RecMII);
    }
    EXPECT_EQ(X.StructuralFP, Y.StructuralFP);
  }
}

/// The cache-less reference profiles of the whole suite.
const std::map<std::string, ProgramProfile> &referenceProfiles() {
  static const std::map<std::string, ProgramProfile> Refs = [] {
    std::map<std::string, ProgramProfile> Profiles;
    const MachineDescription M = MachineDescription::paperDefault();
    Profiler Prof(M);
    for (const BenchmarkProgram &P : buildSpecFPSuite()) {
      auto Profile = Prof.profileProgram(P.Name, P.Loops);
      EXPECT_TRUE(Profile.has_value()) << P.Name;
      if (Profile)
        Profiles.emplace(P.Name, std::move(*Profile));
    }
    return Profiles;
  }();
  return Refs;
}

/// Runs every SPECfp program through \p S's pipeline and checks each
/// profile against the cache-less reference.
void expectSessionProfilesMatch(Session &S) {
  const auto &Refs = referenceProfiles();
  ASSERT_EQ(Refs.size(), specFPProgramNames().size());
  for (const BenchmarkProgram &P : buildSpecFPSuite()) {
    auto R = S.pipeline().runProgram(P);
    ASSERT_TRUE(R.has_value()) << P.Name;
    expectSameProfile(R->Profile, Refs.at(P.Name));
  }
}

} // namespace

TEST(ProfileSession, FingerprintsMatchGoldenDigests) {
  const std::map<std::string, uint64_t> Golden = {
      {"168.wupwise", 0x4cab66c6bb10f432ull},
      {"171.swim", 0xb6d0334f7565d62full},
      {"172.mgrid", 0xe4e0317b20e56fdeull},
      {"173.applu", 0x168f39696c428ef8ull},
      {"178.galgel", 0x55d1301e5e8bdd6eull},
      {"187.facerec", 0x30269083b7d9bc5bull},
      {"189.lucas", 0x91062333c106749cull},
      {"191.fma3d", 0xaeb132116f572490ull},
      {"200.sixtrack", 0xf5f488c3d4a1038full},
      {"301.apsi", 0xfee7093171bfcaebull},
  };
  ASSERT_EQ(referenceProfiles().size(), Golden.size());
  for (const auto &[Name, Profile] : referenceProfiles())
    EXPECT_EQ(Profile.fingerprint(), Golden.at(Name)) << Name;
}

TEST(ProfileSession, ColdRepeatedAndSnapshotWarmedProfilesAreIdentical) {
  Session S{PipelineOptions(), 1};
  expectSessionProfilesMatch(S); // cold
  uint64_t Misses = S.scheduleCache().misses();
  uint64_t Hits = S.scheduleCache().hits();

  // A second pass is served entirely from the schedule cache — the
  // profile stage included.
  expectSessionProfilesMatch(S);
  EXPECT_EQ(S.scheduleCache().misses(), Misses);
  EXPECT_GT(S.scheduleCache().hits(), Hits);

  std::string Path = ::testing::TempDir() + "profile_session.cache";
  std::string Err;
  ASSERT_TRUE(S.saveCacheTo(Path, &Err)) << Err;
  Session Warm{PipelineOptions(), 1};
  ASSERT_TRUE(Warm.loadCacheFrom(Path, &Err)) << Err;
  std::remove(Path.c_str());
  EXPECT_EQ(Warm.cachePersistLoadStats().CorruptFrames, 0u);
  expectSessionProfilesMatch(Warm);
  EXPECT_EQ(Warm.scheduleCache().misses(), 0u);
  EXPECT_GT(Warm.cachePersistHits(), 0u);
}

TEST(ProfileSession, PolicyIgnoresMeasurementKnobs) {
  // Knobs under which runProgram may fail at measurement: the Profiler
  // is built directly on the session's resources instead.
  PipelineOptions Knobs;
  Knobs.Part.PrePlaceRecurrences = false;
  Knobs.LoopEffortDeadline = 1;
  Knobs.MaxITSteps = 0;
  Session S{Knobs, 1};
  Profiler Prof(S.machine(), Knobs.ProgramBudgetNs, &S.scheduleCache(),
                &S.scheduleScratchPool(), &S.tracer(), &S.metrics());
  for (const BenchmarkProgram &P : buildSpecFPSuite()) {
    std::string Err;
    auto Profile = Prof.profileProgram(P.Name, P.Loops, &Err);
    ASSERT_TRUE(Profile.has_value()) << P.Name << ": " << Err;
    expectSameProfile(*Profile, referenceProfiles().at(P.Name));
  }
}

TEST(ProfileSession, MetricsCountersMatchScheduleCacheTotals) {
  // On a healthy run every ScheduleCache lookup goes through
  // ScheduleMeasurer::scheduleLoop, which counts it in the registry.
  Session S{PipelineOptions(), 2};
  SuiteResult R = SuiteRunner(S).run(buildSpecFPSuite());
  ASSERT_TRUE(R.Failures.empty());
  obs::MetricsSnapshot Snap = S.metricsSnapshot();
  ASSERT_GT(S.scheduleCache().hits(), 0u);
  EXPECT_EQ(static_cast<double>(Snap.Counters["cache.schedule.hits"]),
            Snap.Gauges["cache.schedule.hit_total"]);
  EXPECT_EQ(static_cast<double>(Snap.Counters["cache.schedule.misses"]),
            Snap.Gauges["cache.schedule.miss_total"]);

  // The registry is the one work ledger. At one thread every key is
  // computed exactly once, so each effort counter equals that field
  // summed over the cache's entries.
  Session One{PipelineOptions(), 1};
  ASSERT_TRUE(SuiteRunner(One).run(buildSpecFPSuite()).Failures.empty());
  std::map<std::string, uint64_t> Ledger;
  One.scheduleCache().exportEntries(
      [&Ledger](uint64_t, const LoopScheduleResult &LR) {
        Ledger["sched.placements"] += LR.Placements;
        Ledger["sched.ejections"] += LR.Ejections;
        Ledger["sched.budget_used"] += LR.BudgetUsed;
        Ledger["sched.it_steps"] += LR.ITSteps;
        Ledger["part.levels"] += LR.PartStats.Levels;
        Ledger["part.matched_pairs"] += LR.PartStats.MatchedPairs;
        Ledger["part.refine_moves"] += LR.PartStats.RefineMoves;
        Ledger["part.fm_moves"] += LR.PartStats.FMMoves;
        Ledger["part.score_evals"] += LR.PartStats.ScoreEvals;
        Ledger["part.bound_rejects"] += LR.PartStats.BoundRejects;
        Ledger["part.capacity_rejects"] += LR.PartStats.CapacityRejects;
        Ledger["part.coarsen_memo_hits"] += LR.PartStats.CoarsenMemoHits;
      });
  ASSERT_GT(Ledger["sched.placements"], 0u);
  obs::MetricsSnapshot OneSnap = One.metricsSnapshot();
  for (const auto &[Name, Total] : Ledger) {
    ASSERT_EQ(OneSnap.Counters.count(Name), 1u) << Name;
    EXPECT_EQ(OneSnap.Counters.at(Name), Total) << Name;
  }
}
