//===- tests/fault/FaultSuiteTest.cpp - Containment + degradation ladder ----===//
//
// The PR 9 runtime contracts, end to end:
//
//   *Containment.* An injected worker-job throw surfaces as a
//   structured SuiteFailure naming the site — never a crash, never a
//   dropped program — and every *other* program's result stays
//   bit-identical to a clean run. The same plan and seed produce the
//   same failure records at Threads 1, 2 and 4 (armed runs bypass the
//   ScheduleCache, so occurrence counters advance identically).
//
//   *The degradation ladder.* Each rung is reachable by injection and
//   counted in the ConfigRunResult ledger: partitioner throws retry on
//   the flat rung; measure.loop degrades (and exhausted effort
//   deadlines with DegradeToEstimate) land on the analytic-estimate
//   rung instead of failing the program. A throw out of the scheduling
//   sweep itself has no rung: it is the program's structured failure.
//
//===----------------------------------------------------------------------===//

#include "SuiteResultCheck.h"
#include "runtime/SuiteRunner.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

std::vector<BenchmarkProgram> smallSuite() {
  std::vector<BenchmarkProgram> Programs;
  for (const char *Name : {"168.wupwise", "171.swim", "172.mgrid"})
    Programs.push_back(buildSpecFPProgram(Name));
  return Programs;
}

fault::FaultPlan plan(const std::string &Text) {
  std::string Err;
  auto P = fault::FaultPlan::parse(Text, &Err);
  EXPECT_TRUE(P.has_value()) << Err;
  return *P;
}

// --- containment -----------------------------------------------------------

TEST(FaultContainment, InjectedThrowBecomesAStructuredFailure) {
  std::vector<BenchmarkProgram> Programs = smallSuite();

  SuiteResult Clean;
  {
    Session S{PipelineOptions(), 1};
    Clean = SuiteRunner(S).run(Programs);
  }
  ASSERT_EQ(Clean.Names.size(), 3u);
  ASSERT_TRUE(Clean.Failures.empty());

  Session S{PipelineOptions(), 2};
  S.faultInjector().arm(
      plan("seed 7\non pool.job ctx 171.swim occurrence 1 throw\n"));
  SuiteResult R = SuiteRunner(S).run(Programs);

  // The poisoned program is reported, not dropped and not a crash.
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Program, "171.swim");
  EXPECT_EQ(R.Failures[0].Stage, PipelineStage::Profiling);
  EXPECT_NE(R.Failures[0].Reason.find("pool.job"), std::string::npos)
      << R.Failures[0].Reason;
  EXPECT_EQ(S.faultInjector().injectedThrows(), 1u);

  // The healthy programs are bit-identical to the clean run.
  ASSERT_EQ(R.Details.size(), 2u);
  for (const ProgramRunResult &D : R.Details) {
    ASSERT_NE(D.Name, "171.swim");
    for (const ProgramRunResult &C : Clean.Details)
      if (C.Name == D.Name)
        expectSameProgram(C, D);
  }
  EXPECT_EQ(R.numPrograms(), 3u);
}

TEST(FaultContainment, SamePlanSameFailuresAtEveryThreadCount) {
  std::vector<BenchmarkProgram> Programs = smallSuite();
  const std::string Plan = "seed 3\n"
                           "on pool.job ctx 172.mgrid occurrence 1 badalloc\n"
                           "on measure.config ctx 168.wupwise occurrence 2 throw\n";

  SuiteResult Ref;
  {
    Session S{PipelineOptions(), 1};
    S.faultInjector().arm(plan(Plan));
    Ref = SuiteRunner(S).run(Programs);
  }
  ASSERT_EQ(Ref.Failures.size(), 2u);

  for (unsigned Threads : {2u, 4u}) {
    Session S{PipelineOptions(), Threads};
    S.faultInjector().arm(plan(Plan));
    SCOPED_TRACE(Threads);
    expectSameSuite(Ref, SuiteRunner(S).run(Programs));
  }
}

// --- the degradation ladder ------------------------------------------------

// Nothing absorbs a throw out of the Figure 5 sweep: a throw at
// sched.place in one loop of 171.swim (the "171.swim/<loop>" context is
// the measurement stage's; the profile stage schedules under
// "profile:171.swim/<loop>") is that program's structured failure at
// once, and the other programs match the clean run.
TEST(FaultLadder, SweepThrowBecomesAStructuredFailure) {
  std::vector<BenchmarkProgram> Programs = smallSuite();
  SuiteResult Clean;
  {
    Session S{PipelineOptions(), 1};
    Clean = SuiteRunner(S).run(Programs);
  }

  Session S{PipelineOptions(), 2};
  S.faultInjector().arm(plan("on sched.place ctx 171.swim/" +
                             Programs[1].Loops[0].Name +
                             " occurrence 1 throw\n"));
  SuiteResult R = SuiteRunner(S).run(Programs);

  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Program, "171.swim");
  EXPECT_EQ(R.Failures[0].Stage, PipelineStage::Measurement);
  EXPECT_NE(R.Failures[0].Reason.find("sched.place"), std::string::npos)
      << R.Failures[0].Reason;
  EXPECT_EQ(S.faultInjector().injectedThrows(), 1u);
  ASSERT_EQ(R.Details.size(), 2u);
  for (const ProgramRunResult &D : R.Details)
    for (const ProgramRunResult &C : Clean.Details)
      if (C.Name == D.Name)
        expectSameProgram(C, D);
}

// The profile stage schedules under the session's injector too, in a
// context of its own: a sched.place throw aimed at a profile schedule
// fails 171.swim at the profiling stage, and nothing else.
TEST(FaultLadder, ProfileScheduleThrowFailsTheProfilingStage) {
  std::vector<BenchmarkProgram> Programs = smallSuite();
  SuiteResult Clean;
  {
    Session S{PipelineOptions(), 1};
    Clean = SuiteRunner(S).run(Programs);
  }

  Session S{PipelineOptions(), 2};
  S.faultInjector().arm(plan("on sched.place ctx profile:171.swim/" +
                             Programs[1].Loops[0].Name +
                             " occurrence 1 throw\n"));
  SuiteResult R = SuiteRunner(S).run(Programs);

  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Program, "171.swim");
  EXPECT_EQ(R.Failures[0].Stage, PipelineStage::Profiling);
  EXPECT_NE(R.Failures[0].Reason.find("sched.place"), std::string::npos)
      << R.Failures[0].Reason;
  EXPECT_EQ(S.faultInjector().injectedThrows(), 1u);
  ASSERT_EQ(R.Details.size(), 2u);
  for (const ProgramRunResult &D : R.Details)
    for (const ProgramRunResult &C : Clean.Details)
      if (C.Name == D.Name)
        expectSameProgram(C, D);
}

TEST(FaultLadder, PartitionerDegradesToTheFlatRung) {
  Session S{PipelineOptions(), 1};
  S.faultInjector().arm(plan("on part.coarsen every 1 degrade\n"));
  auto R = S.pipeline().runProgram(buildSpecFPProgram("172.mgrid"));
  ASSERT_TRUE(R.has_value()); // the flat rung still partitions validly
  EXPECT_GT(R->HetMeasured.FlatPartitions + R->HomMeasured.FlatPartitions,
            0u);
  EXPECT_GT(R->ED2Ratio, 0.0);
}

TEST(FaultLadder, MeasureLoopDegradesToTheAnalyticEstimate) {
  Session S{PipelineOptions(), 1};
  S.faultInjector().arm(plan("on measure.loop every 1 degrade\n"));
  auto R = S.pipeline().runProgram(buildSpecFPProgram("168.wupwise"));
  ASSERT_TRUE(R.has_value());
  // Every loop of both measurements landed on the analytic rung.
  EXPECT_EQ(R->HetMeasured.DegradedLoops, R->HetMeasured.Loops.size());
  EXPECT_EQ(R->HomMeasured.DegradedLoops, R->HomMeasured.Loops.size());
  for (const LoopRunStat &L : R->HetMeasured.Loops)
    EXPECT_TRUE(L.Degraded) << L.Name;
  EXPECT_TRUE(R->HetMeasured.Ok); // degraded, not failed
  EXPECT_GT(R->ED2Ratio, 0.0);
}

TEST(FaultLadder, EffortDeadlineDegradesOnlyWithTheFallbackEnabled) {
  // 191.fma3d's borderline and wide-recurrence loops burn placement
  // budget across several IT steps (most SpecFP loops schedule at
  // their first IT, where the between-steps deadline check never
  // runs), so a 1-unit deadline exhausts exactly those loops.
  BenchmarkProgram Prog = buildSpecFPProgram("191.fma3d");

  // Without the fallback the exhausted loops count as measurement
  // failures, carried in the ledger with the deadline as the reason.
  PipelineOptions Strict;
  Strict.LoopEffortDeadline = 1;
  unsigned StrictFailures = 0;
  {
    Session S(Strict, 1);
    auto R = S.pipeline().runProgram(Prog);
    ASSERT_TRUE(R.has_value()); // partial failure is not a program failure
    StrictFailures = R->HetMeasured.Failures;
    EXPECT_GT(StrictFailures, 0u);
    ASSERT_FALSE(R->HetMeasured.FailureDetails.empty());
    EXPECT_NE(R->HetMeasured.FailureDetails[0].Detail.find(
                  "effort deadline exhausted"),
              std::string::npos)
        << R->HetMeasured.FailureDetails[0].Detail;
    EXPECT_EQ(R->HetMeasured.DegradedLoops, 0u);
  }

  // With the analytic-estimate rung enabled, the same deadline turns
  // every one of those failures into a flagged degraded loop.
  PipelineOptions Degrading = Strict;
  Degrading.DegradeToEstimate = true;
  {
    Session S(Degrading, 1);
    auto R = S.pipeline().runProgram(Prog);
    ASSERT_TRUE(R.has_value());
    EXPECT_EQ(R->HetMeasured.Failures, 0u);
    EXPECT_EQ(R->HetMeasured.DegradedLoops, StrictFailures);
    EXPECT_EQ(R->HetMeasured.Loops.size(), Prog.Loops.size());
    EXPECT_GT(R->ED2Ratio, 0.0);
  }
}

TEST(FaultLadder, DeadlineExhaustingEveryLoopFailsTheMeasurementStage) {
  // All-wide-recurrence program: every loop needs IT growth, so a
  // 1-unit deadline fails them all and the measurement stage reports a
  // structured error instead of blending a partial result.
  BenchmarkProgram Prog;
  Prog.Name = "900.recwall";
  Prog.Loops.push_back(makeWideRecurrenceLoop("rw_rec1", 8, 2, 2, 96, 0.5));
  Prog.Loops.push_back(makeWideRecurrenceLoop("rw_rec2", 10, 2, 2, 96, 0.5));

  PipelineOptions Strict;
  Strict.LoopEffortDeadline = 1;
  Session S(Strict, 1);
  PipelineError Err;
  auto R = S.pipeline().runProgram(Prog, &Err);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(Err.Stage, PipelineStage::Measurement);
  EXPECT_NE(Err.Reason.find("unschedulable"), std::string::npos)
      << Err.Reason;

  // The degradation rung recovers the same program.
  PipelineOptions Degrading = Strict;
  Degrading.DegradeToEstimate = true;
  Session S2(Degrading, 1);
  auto R2 = S2.pipeline().runProgram(Prog);
  ASSERT_TRUE(R2.has_value());
  EXPECT_EQ(R2->HetMeasured.DegradedLoops, 2u);
}

// --- idle identity ----------------------------------------------------------

TEST(FaultIdle, ArmedPlanMatchingNothingChangesNothing) {
  BenchmarkProgram Prog = buildSpecFPProgram("172.mgrid");

  Session Clean{PipelineOptions(), 1};
  auto Ref = Clean.pipeline().runProgram(Prog);
  ASSERT_TRUE(Ref.has_value());

  // Armed, every site pays the full match() path; no rule ever fires
  // (the context matches no real program). Results must not move.
  Session S{PipelineOptions(), 1};
  S.faultInjector().arm(plan("on pool.job ctx no.such.program occurrence 1 throw\n"));
  auto R = S.pipeline().runProgram(Prog);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(S.faultInjector().totalInjected(), 0u);
  expectSameProgram(*Ref, *R);
}

} // namespace
