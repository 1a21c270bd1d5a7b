//===- tests/runtime/ArenaSuiteTest.cpp - Arenas are inert under threads ----===//
//
// The per-worker ScheduleScratch arenas (Session::scheduleScratchPool)
// must be invisible in results: a full SPECfp suite run — which routes
// every per-loop schedule through a thread-keyed arena — is
// bit-identical for Threads in {1, 2, 4}, and arenas reused across
// programs reproduce the golden digests. Also pins that the arenas were
// actually exercised (the pool saw at least one thread) and that the
// measurement layer's per-IT failure detail reaches SuiteFailure
// records.
//
//===----------------------------------------------------------------------===//

#include "SuiteResultCheck.h"
#include "runtime/SuiteRunner.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

TEST(ArenaSuite, SuiteBitIdenticalForThreadCountsWithArenas) {
  PipelineOptions Opts;
  SuiteResult Serial;
  {
    Session S(Opts, 1);
    Serial = SuiteRunner(S).runSpecFP();
    // The suite really scheduled through the session arenas.
    EXPECT_GE(S.scheduleScratchPool().threadsSeen(), 1u);
  }
  ASSERT_EQ(Serial.Names.size(), 10u);
  EXPECT_TRUE(Serial.Failures.empty());
  for (unsigned Threads : {2u, 4u}) {
    Session S(Opts, Threads);
    SuiteResult Par = SuiteRunner(S).runSpecFP();
    expectSameSuite(Serial, Par, EffortCounters::Compare);
    EXPECT_GE(S.scheduleScratchPool().threadsSeen(), 1u);
    EXPECT_LE(S.scheduleScratchPool().threadsSeen(),
              static_cast<size_t>(Threads));
  }
}

TEST(ArenaSuite, ReusedArenasMatchGoldenDigests) {
  // One session's per-worker arenas serve program after program and
  // measurement after measurement; every result still equals its
  // golden digest.
  Session S(PipelineOptions(), 2);
  for (const char *Name : {"171.swim", "178.galgel", "200.sixtrack"}) {
    auto R = S.pipeline().runProgram(buildSpecFPProgram(Name));
    ASSERT_TRUE(R.has_value()) << Name;
    expectGoldenSpecFP(*R);
  }
  EXPECT_GE(S.scheduleScratchPool().threadsSeen(), 1u);
}

TEST(ArenaSuite, MeasurementFailureCarriesPerITDetail) {
  // A loop the measurement stage cannot schedule within one IT step:
  // the SuiteFailure reason must name the loop and the per-IT stage
  // failures, not just a count.
  PipelineOptions Opts;
  Opts.MaxITSteps = 0;
  Opts.MenuSize = 2; // coarse menu: recurrences regularly miss step 0
  Session S(Opts, 2);
  SuiteResult R = SuiteRunner(S).runSpecFP();
  // Not every program fails under this regime; whichever does must
  // carry the aggregated detail.
  for (const SuiteFailure &F : R.Failures) {
    if (F.Stage != PipelineStage::Measurement)
      continue;
    EXPECT_NE(F.Reason.find("IT+"), std::string::npos) << F.Reason;
    EXPECT_NE(F.Reason.find("unschedulable"), std::string::npos) << F.Reason;
  }
}

} // namespace
