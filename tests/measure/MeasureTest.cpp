//===- tests/measure/MeasureTest.cpp - ScheduleMeasurer / ScheduleCache -----===//
//
// The extracted measurement stage: HeterogeneousPipeline step 4 through
// ScheduleMeasurer is bit-identical to measuring directly; the
// session ScheduleCache serves bit-identical schedules (across repeated
// measurements, across the step-4/frontier consumers and across
// structurally identical programs); a loop failing to schedule
// mid-suite surfaces as a structured Measurement-stage failure instead
// of being dropped; and a schedule the simulator oracle rejects counts
// as a failed loop in every build type.
//
//===----------------------------------------------------------------------===//

#include "configsel/Scaling.h"
#include "ir/LoopBuilder.h"
#include "profiling/Profiler.h"
#include "runtime/FrontierMeasurer.h"
#include "runtime/SuiteRunner.h"
#include "support/StrUtil.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <mutex>

using namespace hcvliw;

namespace {

/// Field-for-field equality of two measurements. EXPECT_EQ on doubles
/// is bitwise-exact equality — that is the contract. The ScheduleCache
/// hit/miss counters are diagnostics, not results, and are excluded.
void expectBitIdentical(const ConfigRunResult &A, const ConfigRunResult &B) {
  EXPECT_EQ(A.Ok, B.Ok);
  EXPECT_EQ(A.TexecNs, B.TexecNs);
  EXPECT_EQ(A.Energy, B.Energy);
  EXPECT_EQ(A.ED2, B.ED2);
  EXPECT_EQ(A.Failures, B.Failures);
  ASSERT_EQ(A.Loops.size(), B.Loops.size());
  for (size_t I = 0; I < A.Loops.size(); ++I) {
    EXPECT_EQ(A.Loops[I].Name, B.Loops[I].Name);
    EXPECT_EQ(A.Loops[I].ITNs, B.Loops[I].ITNs);
    EXPECT_EQ(A.Loops[I].TexecNs, B.Loops[I].TexecNs);
    EXPECT_EQ(A.Loops[I].Comms, B.Loops[I].Comms);
  }
}

/// A single-loop program that profiles fine under the default IT
/// budget but cannot be scheduled when the budget is zero: twelve
/// "diamonds", each a value pinned early (its store lands right after
/// it and stores never move) and re-read at the end of a 4-deep FDiv
/// chain. Both demands shrink with IT growth but are immovable at the
/// minimal IT: the pinned lifetimes span a fixed ~72 cycles regardless
/// of placement (stage-compaction salvage cannot shorten them), and 48
/// FDivs saturate the scarce divide bandwidth. Unlike a wide stream
/// loop — whose step-0 overflow compaction now rescues — this stays
/// unschedulable at IT+0.
BenchmarkProgram pressureProgram() {
  LoopBuilder B("pressure_acc", 64, 1.0);
  unsigned Out = B.array("OUT");
  Operand K = B.liveIn("k", 1.0078125);
  unsigned Slot = 0;
  for (unsigned D = 0; D < 12; ++D) {
    unsigned X = B.op(Opcode::FAdd, formatString("x.%u", D), K, K);
    B.store(Out, Operand::def(X), Slot++, /*Scale=*/4);
    unsigned Prev = X;
    for (unsigned I = 0; I < 4; ++I)
      Prev = B.op(Opcode::FDiv, formatString("d.%u.%u", D, I),
                  Operand::def(Prev), K);
    unsigned End = B.op(Opcode::FAdd, formatString("e.%u", D),
                        Operand::def(Prev), Operand::def(X));
    B.store(Out, Operand::def(End), Slot++, /*Scale=*/4);
  }
  BenchmarkProgram P;
  P.Name = "900.pressure";
  P.Loops.push_back(B.take());
  return P;
}

// --- The extracted stage ---------------------------------------------------

TEST(ScheduleMeasurer, PipelineStep4IsAThinFacade) {
  // measureConfig (the pipeline's step 4) must equal a directly
  // constructed ScheduleMeasurer run under measureOptionsFor(Opts),
  // for both the heterogeneous and the homogeneous measurement.
  PipelineOptions Opts;
  HeterogeneousPipeline Pipe(Opts);
  BenchmarkProgram Prog = buildSpecFPProgram("171.swim");
  auto R = Pipe.runProgram(Prog);
  ASSERT_TRUE(R.has_value());

  EnergyModel Energy(Opts.Breakdown, R->Profile.Totals,
                     R->Profile.TexecRefNs, Pipe.machine().numClusters());
  ScheduleMeasurer M(Pipe.machine(),
                     HeterogeneousPipeline::measureOptionsFor(Opts));
  ConfigRunResult Het =
      M.measure(R->Profile, Prog.Loops, R->HetDesign.Config,
                R->HetDesign.Scaling, Energy, /*ED2Objective=*/true);
  ConfigRunResult Hom =
      M.measure(R->Profile, Prog.Loops, R->HomDesign.Config,
                R->HomDesign.Scaling, Energy, /*ED2Objective=*/false);
  expectBitIdentical(R->HetMeasured, Het);
  expectBitIdentical(R->HomMeasured, Hom);
}

TEST(ScheduleMeasurer, SessionPipelineMatchesStandaloneMeasurement) {
  // The session pipeline measures through the session ScheduleCache;
  // the standalone one schedules directly. Results must agree exactly.
  PipelineOptions Opts;
  HeterogeneousPipeline Standalone(Opts);
  Session S(Opts, 2);
  for (const char *Name : {"171.swim", "200.sixtrack", "187.facerec"}) {
    auto A = Standalone.runProgram(buildSpecFPProgram(Name));
    auto B = S.pipeline().runProgram(buildSpecFPProgram(Name));
    ASSERT_TRUE(A.has_value() && B.has_value()) << Name;
    expectBitIdentical(A->HetMeasured, B->HetMeasured);
    expectBitIdentical(A->HomMeasured, B->HomMeasured);
  }
  EXPECT_GT(S.scheduleCache().size(), 0u);
}

// --- ScheduleCache ---------------------------------------------------------

TEST(ScheduleCache, RepeatedMeasurementHitsAndIsBitIdentical) {
  PipelineOptions Opts;
  HeterogeneousPipeline Pipe(Opts);
  BenchmarkProgram Prog = buildSpecFPProgram("200.sixtrack");
  auto R = Pipe.runProgram(Prog);
  ASSERT_TRUE(R.has_value());
  EnergyModel Energy(Opts.Breakdown, R->Profile.Totals,
                     R->Profile.TexecRefNs, Pipe.machine().numClusters());

  ScheduleCache Cache;
  ScheduleMeasurer Cached(Pipe.machine(),
                          HeterogeneousPipeline::measureOptionsFor(Opts),
                          &Cache);
  ConfigRunResult First =
      Cached.measure(R->Profile, Prog.Loops, R->HetDesign.Config,
                     R->HetDesign.Scaling, Energy, true);
  EXPECT_EQ(First.ScheduleHits, 0u);
  EXPECT_EQ(First.ScheduleMisses, Prog.Loops.size());
  EXPECT_EQ(Cache.size(), Prog.Loops.size());

  ConfigRunResult Second =
      Cached.measure(R->Profile, Prog.Loops, R->HetDesign.Config,
                     R->HetDesign.Scaling, Energy, true);
  EXPECT_EQ(Second.ScheduleHits, Prog.Loops.size());
  EXPECT_EQ(Second.ScheduleMisses, 0u);
  expectBitIdentical(First, Second);

  // And cached == computed-from-scratch.
  ScheduleMeasurer Direct(Pipe.machine(),
                          HeterogeneousPipeline::measureOptionsFor(Opts));
  expectBitIdentical(Direct.measure(R->Profile, Prog.Loops,
                                    R->HetDesign.Config,
                                    R->HetDesign.Scaling, Energy, true),
                     Second);
}

TEST(ScheduleCache, HomogeneousKeyIgnoresVoltages) {
  // The baseline objective never reads voltages: two configs equal in
  // periods but different in Vdd must share hom-baseline schedules.
  PipelineOptions Opts;
  HeterogeneousPipeline Pipe(Opts);
  BenchmarkProgram Prog = buildSpecFPProgram("171.swim");
  auto R = Pipe.runProgram(Prog);
  ASSERT_TRUE(R.has_value());
  EnergyModel Energy(Opts.Breakdown, R->Profile.Totals,
                     R->Profile.TexecRefNs, Pipe.machine().numClusters());

  ScheduleCache Cache;
  ScheduleMeasurer M(Pipe.machine(),
                     HeterogeneousPipeline::measureOptionsFor(Opts),
                     &Cache);
  ConfigRunResult A = M.measure(R->Profile, Prog.Loops,
                                R->HomDesign.Config, R->HomDesign.Scaling,
                                Energy, /*ED2Objective=*/false);
  HeteroConfig Bumped = R->HomDesign.Config;
  for (auto &C : Bumped.Clusters)
    C.Vdd += 0.05;
  ConfigRunResult B =
      M.measure(R->Profile, Prog.Loops, Bumped, R->HomDesign.Scaling,
                Energy, /*ED2Objective=*/false);
  EXPECT_EQ(B.ScheduleHits, Prog.Loops.size());
  EXPECT_EQ(B.ScheduleMisses, 0u);
  expectBitIdentical(A, B);
}

TEST(ScheduleCache, HitsAcrossStructurallyIdenticalPrograms) {
  // A renamed clone of a program selects the same designs (the
  // selection memo keys exclude the name) and then measures entirely
  // from the schedule cache.
  Session S{PipelineOptions(), 1};
  BenchmarkProgram Orig = buildSpecFPProgram("171.swim");
  auto R1 = S.pipeline().runProgram(Orig);
  ASSERT_TRUE(R1.has_value());
  uint64_t Hits1 = S.scheduleCache().hits();
  uint64_t Misses1 = S.scheduleCache().misses();

  BenchmarkProgram Clone = Orig;
  Clone.Name = "999.swim_clone";
  auto R2 = S.pipeline().runProgram(Clone);
  ASSERT_TRUE(R2.has_value());
  EXPECT_EQ(S.scheduleCache().misses(), Misses1) << "clone recomputed";
  EXPECT_EQ(S.scheduleCache().hits() - Hits1, 2 * Orig.Loops.size());
  EXPECT_EQ(R1->HetMeasured.ED2, R2->HetMeasured.ED2);
  EXPECT_EQ(R1->HomMeasured.ED2, R2->HomMeasured.ED2);
  EXPECT_EQ(R1->ED2Ratio, R2->ED2Ratio);
}

TEST(ScheduleCache, FrontierMeasurementReusesStep4Schedules) {
  // The estimated ED2 argmin is always on the frontier, so measuring
  // the frontier after runProgram must hit the schedules step 4 just
  // filled (at least that one point's loops).
  Session S{PipelineOptions(), 1};
  BenchmarkProgram Prog = buildSpecFPProgram("200.sixtrack");
  auto R = S.pipeline().runProgram(Prog);
  ASSERT_TRUE(R.has_value());

  MeasuredFrontier F =
      FrontierMeasurer(S).measure(Prog.Name, Prog.Loops, R->Profile);
  ASSERT_FALSE(F.Points.empty());
  EXPECT_GE(F.ScheduleHits, Prog.Loops.size());
}

// --- Structured measurement failures (SuiteFailure / PipelineError) --------

TEST(Pipeline, MeasurementFailureFillsPipelineError) {
  PipelineOptions Opts;
  Opts.MaxITSteps = 0; // no IT growth: the pressure loop cannot fit
  Session S(Opts, 1);
  PipelineError Err;
  auto R = S.pipeline().runProgram(pressureProgram(), &Err);
  EXPECT_FALSE(R.has_value());
  EXPECT_EQ(Err.Stage, PipelineStage::Measurement);
  EXPECT_NE(Err.Reason.find("unschedulable"), std::string::npos)
      << Err.Reason;
}

TEST(SuiteRunner, MeasurementFailurePropagatesMidSuite) {
  // A loop failing ScheduleValidator-level measurement mid-suite must
  // surface as a structured Measurement-stage SuiteFailure — in the
  // result and in the progress stream — while the healthy programs
  // before and after it still run.
  std::vector<BenchmarkProgram> Programs;
  Programs.push_back(buildSpecFPProgram("171.swim"));
  Programs.push_back(pressureProgram());
  Programs.push_back(buildSpecFPProgram("172.mgrid"));

  PipelineOptions Opts;
  Opts.MaxITSteps = 0;
  Session S(Opts, 2);
  SuiteOptions SO;
  std::mutex M;
  bool StreamedFailure = false;
  SO.OnProgramDone = [&](const SuiteProgress &P) {
    std::lock_guard<std::mutex> Lock(M);
    if (P.Program != "900.pressure")
      return;
    EXPECT_FALSE(P.Ok);
    ASSERT_NE(P.Failure, nullptr);
    EXPECT_EQ(P.Failure->Stage, PipelineStage::Measurement);
    StreamedFailure = true;
  };
  SuiteResult R = SuiteRunner(S).run(Programs, SO);

  ASSERT_EQ(R.Names.size(), 2u);
  EXPECT_EQ(R.Names[0], "171.swim");
  EXPECT_EQ(R.Names[1], "172.mgrid");
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Program, "900.pressure");
  EXPECT_EQ(R.Failures[0].Stage, PipelineStage::Measurement);
  EXPECT_NE(R.Failures[0].Reason.find("unschedulable"), std::string::npos);
  EXPECT_TRUE(StreamedFailure);
  EXPECT_EQ(R.numPrograms(), 3u);
}

// --- The simulator oracle --------------------------------------------------

TEST(ScheduleMeasurer, SimulatorDivergenceIsALoopFailure) {
  // The 1024-op unrolled body (try 0) schedules on the reference
  // configuration and passes validateSchedule, yet its schedule
  // diverges from sequential execution within 8 simulated iterations
  // (perfbench/README.md, "Findings"). The oracle must report that in
  // Release too: one failed loop carrying the simulator's verdict.
  MachineDescription M = MachineDescription::paperDefault();
  for (auto &Cl : M.Clusters)
    Cl.Registers = bigLoopRegisters(1024);
  std::vector<Loop> Loops = {makeUnrolledKernelLoop("unrolled_1024", 1024)};
  auto Profile = Profiler(M).profileProgram("unrolled", Loops);
  ASSERT_TRUE(Profile.has_value());
  EnergyModel Energy(EnergyBreakdown(), Profile->Totals, Profile->TexecRefNs,
                     M.numClusters());
  HeteroConfig Ref = HeteroConfig::reference(M);
  HeteroScaling Scaling =
      scalingForConfig(Ref, M, TechnologyModel::paperDefault());

  ScheduleCache Cache;
  MeasureOptions Checked;
  Checked.SimCheckIterations = 8;
  ScheduleMeasurer Oracle(M, Checked, &Cache);
  for (int Pass = 0; Pass < 2; ++Pass) {
    // Pass 1 is a cache hit: the verdict must not depend on warmth.
    ConfigRunResult R = Oracle.measure(*Profile, Loops, Ref, Scaling, Energy,
                                       /*ED2Objective=*/false);
    EXPECT_EQ(R.ScheduleHits, static_cast<uint64_t>(Pass));
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Failures, 1u);
    EXPECT_TRUE(R.Loops.empty());
    ASSERT_EQ(R.FailureDetails.size(), 1u);
    EXPECT_EQ(R.FailureDetails[0].Loop, "unrolled_1024");
    EXPECT_NE(R.FailureDetails[0].Detail.find("simulated schedule diverges"),
              std::string::npos)
        << R.FailureDetails[0].Detail;
  }

  // The same cached schedule measures cleanly without the oracle: the
  // failure above is the oracle's verdict, not the scheduler's.
  ConfigRunResult Unchecked =
      ScheduleMeasurer(M, MeasureOptions(), &Cache)
          .measure(*Profile, Loops, Ref, Scaling, Energy, false);
  EXPECT_EQ(Unchecked.ScheduleHits, 1u);
  EXPECT_TRUE(Unchecked.Ok);
  EXPECT_EQ(Unchecked.Failures, 0u);
}

} // namespace
