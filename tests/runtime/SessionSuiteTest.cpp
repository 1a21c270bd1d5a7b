//===- tests/runtime/SessionSuiteTest.cpp - Session / SuiteRunner -----------===//
//
// The Session/SuiteRunner API contracts: full-suite results equal
// their golden digests and are bit-identical for any thread count;
// failed programs surface as structured
// records instead of being dropped; the session-shared EvalCache hits
// across the het and hom selections and across programs sharing loop
// structure; progress callbacks stream once per program.
//
//===----------------------------------------------------------------------===//

#include "SuiteResultCheck.h"
#include "runtime/SuiteRunner.h"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>

using namespace hcvliw;

namespace {

// --- Determinism -----------------------------------------------------------

TEST(SuiteRunner, FullSuiteBitIdenticalAcrossThreadCounts) {
  PipelineOptions Opts;
  SuiteResult Serial;
  {
    Session S(Opts, 1);
    Serial = SuiteRunner(S).runSpecFP();
  }
  ASSERT_EQ(Serial.Names.size(), 10u);
  EXPECT_TRUE(Serial.Failures.empty());
  for (unsigned Threads : {2u, 4u}) {
    Session S(Opts, Threads);
    SuiteResult Par = SuiteRunner(S).runSpecFP();
    expectSameSuite(Serial, Par);
  }
}

TEST(SuiteResultCheck, FlagsDeepFieldDifferences) {
  // The shared comparator must see the fields the old per-test copies
  // skipped. EXPECT_NONFATAL_FAILURE cannot capture locals, hence the
  // statics.
  static SuiteResult A, B;
  {
    Session S{PipelineOptions(), 1};
    A = SuiteRunner(S).run({buildSpecFPProgram("171.swim")});
  }
  ASSERT_EQ(A.Details.size(), 1u);
  ASSERT_FALSE(A.Details[0].Profile.Loops.empty());
  ASSERT_FALSE(A.Details[0].HetMeasured.Loops.empty());

  B = A;
  B.Details[0].Profile.Loops[0].PerIter.Comms += 1;
  EXPECT_NONFATAL_FAILURE(expectSameSuite(A, B),
                          "Profile.Loops[0].PerIter.Comms");
  B = A;
  B.Details[0].HomDesign.Scaling.Icn.Sigma *= -1;
  EXPECT_NONFATAL_FAILURE(expectSameSuite(A, B),
                          "HomDesign.Scaling.Icn.Sigma");
  B = A;
  B.Details[0].HetMeasured.Loops[0].Degraded ^= true;
  EXPECT_NONFATAL_FAILURE(expectSameSuite(A, B),
                          "HetMeasured.Loops[0].Degraded");

  // Effort counters only when asked for.
  B = A;
  B.Details[0].HomMeasured.SchedPlacements += 1;
  expectSameSuite(A, B);
  EXPECT_NONFATAL_FAILURE(expectSameSuite(A, B, EffortCounters::Compare),
                          "HomMeasured.SchedPlacements");
}

// --- Structured failures ---------------------------------------------------

TEST(SuiteRunner, BrokenProgramIsReportedNotSkipped) {
  // A deliberately broken program: zero total loop weight makes the
  // profiler refuse it. It must appear in Failures with stage and
  // reason, and the healthy program must still run.
  std::vector<BenchmarkProgram> Programs;
  Programs.push_back(buildSpecFPProgram("171.swim"));
  BenchmarkProgram Broken = buildSpecFPProgram("187.facerec");
  Broken.Name = "999.broken";
  for (Loop &L : Broken.Loops)
    L.Weight = 0.0;
  Programs.push_back(std::move(Broken));

  Session S{PipelineOptions(), 2};
  SuiteResult R = SuiteRunner(S).run(Programs);
  ASSERT_EQ(R.Names.size(), 1u);
  EXPECT_EQ(R.Names[0], "171.swim");
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Program, "999.broken");
  EXPECT_EQ(R.Failures[0].Stage, PipelineStage::Profiling);
  EXPECT_FALSE(R.Failures[0].Reason.empty());
  EXPECT_EQ(R.numPrograms(), 2u);
}

TEST(SuiteRunner, SelectionStageFailureIsAttributed) {
  // An empty cluster-voltage grid makes every heterogeneous candidate
  // infeasible: the failure must be attributed to the selection stage.
  PipelineOptions Opts;
  Opts.Space.ClusterVddGrid.clear();
  Session S(Opts, 1);
  SuiteResult R =
      SuiteRunner(S).run({buildSpecFPProgram("171.swim")});
  EXPECT_TRUE(R.Names.empty());
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Stage, PipelineStage::Selection);
  EXPECT_NE(R.Failures[0].Reason.find("heterogeneous"), std::string::npos);
}

// --- Shared cache ----------------------------------------------------------

TEST(Session, EvalCacheHitsAcrossProgramsSharingLoopStructure) {
  // 187.facerec's stream and first recurrence loop are structurally
  // identical to loops of 168.wupwise (same generator parameters), so
  // after wupwise runs, facerec's selection must only miss on the
  // shapes of its one structurally new loop (4 distinct slow/fast
  // ratios in the paper grid).
  Session S{PipelineOptions(), 1};
  PipelineError Err;
  auto R1 = S.pipeline().runProgram(buildSpecFPProgram("168.wupwise"), &Err);
  ASSERT_TRUE(R1.has_value()) << Err.Reason;
  uint64_t Misses1 = S.evalCache().misses();
  uint64_t Hits1 = S.evalCache().hits();
  ASSERT_GT(Misses1, 0u);

  auto R2 = S.pipeline().runProgram(buildSpecFPProgram("187.facerec"), &Err);
  ASSERT_TRUE(R2.has_value()) << Err.Reason;
  uint64_t NewMisses = S.evalCache().misses() - Misses1;
  EXPECT_EQ(NewMisses, 4u) << "only face_rec2's 4 frequency shapes are new";
  EXPECT_GT(S.evalCache().hits(), Hits1);
}

TEST(Session, CrossProgramHitsOnTheFullSuite) {
  // Acceptance gate: running the ten-program SPECfp suite through one
  // session must produce strictly fewer timing-cache misses than the
  // sum of isolated per-program runs — the difference is exactly the
  // cross-program sharing.
  uint64_t IsolatedMisses = 0;
  for (const auto &Prog : buildSpecFPSuite()) {
    Session S{PipelineOptions(), 1};
    PipelineError Err;
    ASSERT_TRUE(S.pipeline().runProgram(Prog, &Err).has_value())
        << Prog.Name << ": " << Err.Reason;
    IsolatedMisses += S.evalCache().misses();
  }

  Session Shared{PipelineOptions(), 1};
  SuiteResult R = SuiteRunner(Shared).runSpecFP();
  ASSERT_EQ(R.Names.size(), 10u);
  EXPECT_LT(Shared.evalCache().misses(), IsolatedMisses);
  EXPECT_GT(Shared.evalCache().hits(), 0u);
}

TEST(Session, SelectionMemoHitsAcrossTheTwoSelectionsOnRepeat) {
  // runProgram wires both the heterogeneous and the homogeneous
  // selection through the session cache's selection memo: re-running a
  // program must hit both (and reproduce the results bit-identically).
  Session S{PipelineOptions(), 1};
  auto R1 = S.pipeline().runProgram(buildSpecFPProgram("200.sixtrack"));
  ASSERT_TRUE(R1.has_value());
  EXPECT_EQ(S.pipeline().options().Buses, 1u);
  EXPECT_EQ(S.evalCache().selectionHits(), 0u);
  EXPECT_EQ(S.evalCache().selectionMisses(), 2u); // het + hom stored

  uint64_t TimingMisses = S.evalCache().misses();
  auto R2 = S.pipeline().runProgram(buildSpecFPProgram("200.sixtrack"));
  ASSERT_TRUE(R2.has_value());
  EXPECT_EQ(S.evalCache().selectionHits(), 2u); // het + hom reused
  EXPECT_EQ(S.evalCache().misses(), TimingMisses); // no re-evaluation
  EXPECT_EQ(R1->HetDesign.EstED2, R2->HetDesign.EstED2);
  EXPECT_EQ(R1->HomDesign.EstED2, R2->HomDesign.EstED2);
  EXPECT_EQ(R1->ED2Ratio, R2->ED2Ratio);
}

TEST(Session, SuiteMatchesGoldenDigests) {
  // Every program's full result — profile, both designs, both
  // measurements with their effort counters — equals its recorded
  // golden result, with the suite fanned out over a 4-thread session.
  Session S{PipelineOptions(), 4};
  SuiteResult R = SuiteRunner(S).runSpecFP();
  ASSERT_EQ(R.Details.size(), 10u);
  for (const ProgramRunResult &P : R.Details)
    expectGoldenSpecFP(P);
}

// --- Progress streaming ----------------------------------------------------

TEST(SuiteRunner, ProgressCallbackStreamsOncePerProgram) {
  Session S{PipelineOptions(), 4};
  std::mutex M;
  std::set<std::string> Seen;
  std::set<size_t> CompletedValues;
  size_t Calls = 0;
  SuiteOptions SO;
  SO.OnProgramDone = [&](const SuiteProgress &P) {
    std::lock_guard<std::mutex> Lock(M);
    ++Calls;
    EXPECT_EQ(P.Total, 10u);
    EXPECT_TRUE(P.Ok);
    EXPECT_GT(P.ED2Ratio, 0.0);
    Seen.insert(P.Program);
    CompletedValues.insert(P.Completed);
  };
  SuiteResult R = SuiteRunner(S).runSpecFP(SO);
  EXPECT_EQ(Calls, 10u);
  EXPECT_EQ(Seen.size(), 10u);  // every program exactly once
  EXPECT_EQ(CompletedValues.size(), 10u); // 1..10, each seen once
  EXPECT_EQ(*CompletedValues.begin(), 1u);
  EXPECT_EQ(*CompletedValues.rbegin(), 10u);
}

TEST(SuiteRunner, FailureSurfacesInProgressCallback) {
  BenchmarkProgram Broken;
  Broken.Name = "000.empty";
  Session S{PipelineOptions(), 1};
  SuiteOptions SO;
  bool SawFailure = false;
  SO.OnProgramDone = [&](const SuiteProgress &P) {
    EXPECT_FALSE(P.Ok);
    ASSERT_NE(P.Failure, nullptr);
    EXPECT_EQ(P.Failure->Stage, PipelineStage::Profiling);
    SawFailure = true;
  };
  SuiteResult R = SuiteRunner(S).run({Broken}, SO);
  EXPECT_TRUE(SawFailure);
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Reason, "program has no loops");
}

} // namespace
