//===- tests/measure/MeasureTest.cpp - ScheduleMeasurer / ScheduleCache -----===//
//
// The extracted measurement stage: HeterogeneousPipeline step 4 through
// ScheduleMeasurer is bit-identical to measuring directly, and the
// session's measurements equal their golden digests; the session
// ScheduleCache serves bit-identical schedules (across repeated
// measurements, across the step-4/frontier consumers and across
// structurally identical programs); a profile's loop fingerprints are
// the loops' own; a profile of another program or of another loop list
// of its length, a cached schedule of another op count, and an
// ED2-objective key without energy or scaling, are refused; a loop
// failing to schedule mid-suite surfaces as a structured
// Measurement-stage failure instead of being dropped; and a schedule
// the simulator oracle rejects counts as a failed loop in every build
// type.
//
//===----------------------------------------------------------------------===//

#include "SuiteResultCheck.h"
#include "configsel/Scaling.h"
#include "ir/LoopBuilder.h"
#include "ir/LoopDSL.h"
#include "profiling/Profiler.h"
#include "runtime/FrontierMeasurer.h"
#include "runtime/SuiteRunner.h"
#include "support/StrUtil.h"
#include "vliwsim/PipelinedSimulator.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <stdexcept>

using namespace hcvliw;

namespace {

/// Field-for-field equality of two measurements. EXPECT_EQ on doubles
/// is bitwise-exact equality — that is the contract. (The ScheduleCache
/// hit/miss counts are not part of the result; see ScheduleLookups.)
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
  // constructed, cache-less ScheduleMeasurer run under
  // measureOptionsFor(Opts), for both the heterogeneous and the
  // homogeneous measurement.
  PipelineOptions Opts;
  Session S(Opts, 1);
  const HeterogeneousPipeline &Pipe = S.pipeline();
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

TEST(ScheduleMeasurer, SessionMeasurementsMatchGoldenDigests) {
  // The pipeline measures through the session ScheduleCache; every
  // measurement (effort counters included) equals the golden result.
  Session S(PipelineOptions(), 2);
  for (const char *Name : {"171.swim", "200.sixtrack", "187.facerec"}) {
    auto R = S.pipeline().runProgram(buildSpecFPProgram(Name));
    ASSERT_TRUE(R.has_value()) << Name;
    expectGoldenSpecFP(*R);
  }
  EXPECT_GT(S.scheduleCache().size(), 0u);
}

TEST(ScheduleMeasurer, ProfileFingerprintKeysAsTheLoopDoes) {
  // measure() keys each loop's lookup from the profile's LoopFP, the
  // fingerprint the Profiler hashed: it is the loop's own, so a repeat
  // measurement hits every entry the pipeline stored and measures
  // bit-identically.
  PipelineOptions Opts;
  Session S(Opts, 1);
  BenchmarkProgram Prog = buildSpecFPProgram("200.sixtrack");
  auto R = S.pipeline().runProgram(Prog);
  ASSERT_TRUE(R.has_value());
  for (size_t I = 0; I < Prog.Loops.size(); ++I)
    EXPECT_EQ(R->Profile.Loops[I].LoopFP,
              Prog.Loops[I].structuralFingerprint())
        << Prog.Loops[I].Name;

  EnergyModel Energy(Opts.Breakdown, R->Profile.Totals,
                     R->Profile.TexecRefNs, S.machine().numClusters());
  ScheduleMeasurer M(S.machine(),
                     HeterogeneousPipeline::measureOptionsFor(Opts),
                     &S.scheduleCache());
  ScheduleLookups Het, Hom;
  expectBitIdentical(R->HetMeasured,
                     M.measure(R->Profile, Prog.Loops, R->HetDesign.Config,
                               R->HetDesign.Scaling, Energy, true, &Het));
  expectBitIdentical(R->HomMeasured,
                     M.measure(R->Profile, Prog.Loops, R->HomDesign.Config,
                               R->HomDesign.Scaling, Energy, false, &Hom));
  EXPECT_EQ(Het.Misses + Hom.Misses, 0u);
  EXPECT_EQ(Het.Hits + Hom.Hits, 2 * Prog.Loops.size());
}

TEST(ScheduleMeasurer, ED2KeyNeedsEnergyAndScaling) {
  // The ED2 objective's key hashes the energy model and the scaling;
  // without them it is refused in every build type, while the
  // baseline objective reads neither.
  MachineDescription M = MachineDescription::paperDefault();
  Loop L = buildSpecFPProgram("171.swim").Loops.front();
  HeteroConfig Ref = HeteroConfig::reference(M);
  ScheduleMeasurer Measurer(M, MeasureOptions());
  const uint64_t FP = L.structuralFingerprint();
  EXPECT_THROW(Measurer.loopScheduleKey(FP, Ref, nullptr, nullptr,
                                        /*ED2Objective=*/true),
               std::invalid_argument);
  EXPECT_NO_THROW(Measurer.loopScheduleKey(FP, Ref, nullptr, nullptr,
                                           /*ED2Objective=*/false));
}

// --- ScheduleCache ---------------------------------------------------------

TEST(ScheduleCache, RepeatedMeasurementHitsAndIsBitIdentical) {
  PipelineOptions Opts;
  Session S(Opts, 1);
  const HeterogeneousPipeline &Pipe = S.pipeline();
  BenchmarkProgram Prog = buildSpecFPProgram("200.sixtrack");
  auto R = Pipe.runProgram(Prog);
  ASSERT_TRUE(R.has_value());
  EnergyModel Energy(Opts.Breakdown, R->Profile.Totals,
                     R->Profile.TexecRefNs, Pipe.machine().numClusters());

  ScheduleCache Cache;
  ScheduleMeasurer Cached(Pipe.machine(),
                          HeterogeneousPipeline::measureOptionsFor(Opts),
                          &Cache);
  ScheduleLookups Lookups;
  ConfigRunResult First =
      Cached.measure(R->Profile, Prog.Loops, R->HetDesign.Config,
                     R->HetDesign.Scaling, Energy, true, &Lookups);
  EXPECT_EQ(Lookups.Hits, 0u);
  EXPECT_EQ(Lookups.Misses, Prog.Loops.size());
  EXPECT_EQ(Cache.size(), Prog.Loops.size());

  ConfigRunResult Second =
      Cached.measure(R->Profile, Prog.Loops, R->HetDesign.Config,
                     R->HetDesign.Scaling, Energy, true, &Lookups);
  EXPECT_EQ(Lookups.Hits, Prog.Loops.size());
  EXPECT_EQ(Lookups.Misses, 0u);
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
  Session S(Opts, 1);
  const HeterogeneousPipeline &Pipe = S.pipeline();
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
  ScheduleLookups Lookups;
  ConfigRunResult B =
      M.measure(R->Profile, Prog.Loops, Bumped, R->HomDesign.Scaling,
                Energy, /*ED2Objective=*/false, &Lookups);
  EXPECT_EQ(Lookups.Hits, Prog.Loops.size());
  EXPECT_EQ(Lookups.Misses, 0u);
  expectBitIdentical(A, B);
}

TEST(ScheduleCache, HitsAcrossStructurallyIdenticalPrograms) {
  // A renamed clone of a program profiles from the schedule cache,
  // selects the same designs (the selection memo keys exclude the
  // name) and then measures entirely from the schedule cache.
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
  EXPECT_EQ(S.scheduleCache().hits() - Hits1, 3 * Orig.Loops.size());
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

TEST(ScheduleMeasurer, RejectsAProfileOfAnotherProgram) {
  // measure() reads the profile by loop index; a profile of a program
  // with another loop count is refused in every build type instead of
  // read out of bounds — directly and through the frontier measurer,
  // which takes the two as separate arguments.
  Session S{PipelineOptions(), 1};
  auto R = S.pipeline().runProgram(buildSpecFPProgram("171.swim"));
  ASSERT_TRUE(R.has_value());
  BenchmarkProgram Other = buildSpecFPProgram("168.wupwise");
  ASSERT_NE(Other.Loops.size(), R->Profile.Loops.size());
  EnergyModel Energy(PipelineOptions().Breakdown, R->Profile.Totals,
                     R->Profile.TexecRefNs, S.machine().numClusters());
  ScheduleMeasurer M(S.machine(), MeasureOptions(), &S.scheduleCache());
  EXPECT_THROW(M.measure(R->Profile, Other.Loops, R->HomDesign.Config,
                         R->HomDesign.Scaling, Energy,
                         /*ED2Objective=*/false),
               std::invalid_argument);
  EXPECT_THROW(FrontierMeasurer(S).measure(Other.Name, Other.Loops,
                                           R->Profile),
               std::invalid_argument);
}

TEST(ScheduleMeasurer, RejectsALoopListOfTheSameLengthThatDoesNotMatch) {
  // measure() keys each lookup by the profile's LoopFP, so a loop list
  // of the profile's length that is not the profiled one (here the
  // same loops, rotated by one) is refused by its op counts instead of
  // indexed by schedules of other loops. And a cached schedule whose
  // op count is not its loop's (another loop's entry under this
  // loop's key) is refused rather than read out of bounds.
  Session S{PipelineOptions(), 1};
  BenchmarkProgram Prog = buildSpecFPProgram("171.swim");
  auto R = S.pipeline().runProgram(Prog);
  ASSERT_TRUE(R.has_value());
  std::vector<Loop> Rotated = Prog.Loops;
  std::rotate(Rotated.begin(), Rotated.begin() + 1, Rotated.end());
  ASSERT_EQ(Rotated.size(), R->Profile.Loops.size());
  ASSERT_NE(Rotated.front().size(), Prog.Loops.front().size());
  EnergyModel Energy(PipelineOptions().Breakdown, R->Profile.Totals,
                     R->Profile.TexecRefNs, S.machine().numClusters());
  ScheduleMeasurer M(S.machine(), MeasureOptions(), &S.scheduleCache());
  EXPECT_THROW(M.measure(R->Profile, Rotated, R->HomDesign.Config,
                         R->HomDesign.Scaling, Energy,
                         /*ED2Objective=*/false),
               std::invalid_argument);
  EXPECT_THROW(FrontierMeasurer(S).measure(Prog.Name, Rotated, R->Profile),
               std::invalid_argument);
  // Uncached too, where no schedule of another loop could be read.
  EXPECT_THROW(ScheduleMeasurer(S.machine(), MeasureOptions())
                   .measure(R->Profile, Rotated, R->HomDesign.Config,
                            R->HomDesign.Scaling, Energy,
                            /*ED2Objective=*/false),
               std::invalid_argument);

  // The first loop's key, holding the second loop's schedule.
  const Loop &L = Prog.Loops.front();
  ScheduleCache Cache;
  ScheduleMeasurer Planted(S.machine(), MeasureOptions(), &Cache);
  ConfigRunResult Tally;
  ScheduleLookups Lookups;
  SharedSchedule Other = Planted.scheduleLoop(
      Prog.Loops[1], R->HomDesign.Config, nullptr, nullptr, false, Prog.Name,
      Tally, Lookups, Prog.Loops[1].structuralFingerprint());
  ASSERT_TRUE(Other->Success);
  ASSERT_NE(Other->Assignment.size(), L.size());
  Cache.store(Planted.loopScheduleKey(L.structuralFingerprint(),
                                      R->HomDesign.Config, nullptr, nullptr,
                                      false),
              Other);
  EXPECT_THROW(Planted.measure(R->Profile, Prog.Loops, R->HomDesign.Config,
                               R->HomDesign.Scaling, Energy,
                               /*ED2Objective=*/false),
               std::invalid_argument);
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

TEST(ScheduleMeasurer, PlantedTimingViolationIsALoopFailure) {
  // A valid schedule with one consumer moved a cycle earlier — before
  // its operand arrives — planted in the ScheduleCache under the loop's
  // key. The oracle re-checks cache hits, so it must report that in
  // Release too: one failed loop carrying the simulator's verdict, on
  // the first measurement that meets the entry and on a repeat.
  Loop L = parseSingleLoop(R"(
loop planted trip=16
  arrays A O
  x = load A
  y = fmul x x
  z = fadd y x
  store O z
endloop
)");
  MachineDescription M = MachineDescription::paperDefault();
  std::vector<Loop> Loops = {L};
  auto Profile = Profiler(M).profileProgram("planted", Loops);
  ASSERT_TRUE(Profile.has_value());
  EnergyModel Energy(EnergyBreakdown(), Profile->Totals, Profile->TexecRefNs,
                     M.numClusters());
  HeteroConfig Ref = HeteroConfig::reference(M);
  HeteroScaling Scaling =
      scalingForConfig(Ref, M, TechnologyModel::paperDefault());

  LoopScheduleResult LR = LoopScheduler(M, Ref).schedule(L);
  ASSERT_TRUE(LR.Success) << LR.Failure;
  ASSERT_EQ(checkFunctionalEquivalence(L, LR.PG, LR.Sched, M, 8), "");
  // The first node whose one-slot-earlier issue breaks an in-edge.
  bool Planted = false;
  for (unsigned N = 0; N < LR.PG.size() && !Planted; ++N) {
    if (LR.Sched.Nodes[N].Slot == 0)
      continue;
    Schedule Bad = LR.Sched;
    --Bad.Nodes[N].Slot;
    if (!runPipelined(L, LR.PG, Bad, M, 8).Ok) {
      LR.Sched = std::move(Bad);
      Planted = true;
    }
  }
  ASSERT_TRUE(Planted);

  ScheduleCache Cache;
  MeasureOptions Checked;
  Checked.SimCheckIterations = 8;
  ScheduleMeasurer Oracle(M, Checked, &Cache);
  Cache.store(Oracle.loopScheduleKey(L.structuralFingerprint(), Ref,
                                     &Scaling, &Energy, false),
              std::make_shared<const LoopScheduleResult>(LR));
  for (int Pass = 0; Pass < 2; ++Pass) {
    ScheduleLookups Lookups;
    ConfigRunResult R = Oracle.measure(*Profile, Loops, Ref, Scaling, Energy,
                                       /*ED2Objective=*/false, &Lookups);
    EXPECT_EQ(Lookups.Hits, 1u);
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Failures, 1u);
    EXPECT_TRUE(R.Loops.empty());
    ASSERT_EQ(R.FailureDetails.size(), 1u);
    EXPECT_EQ(R.FailureDetails[0].Loop, "planted");
    EXPECT_NE(R.FailureDetails[0].Detail.find("simulated schedule diverges"),
              std::string::npos)
        << R.FailureDetails[0].Detail;
  }

  // The same cached schedule measures without the oracle: the failure
  // above is the oracle's verdict, not the scheduler's.
  ScheduleLookups Lookups;
  ConfigRunResult Unchecked =
      ScheduleMeasurer(M, MeasureOptions(), &Cache)
          .measure(*Profile, Loops, Ref, Scaling, Energy, false, &Lookups);
  EXPECT_EQ(Lookups.Hits, 1u);
  EXPECT_TRUE(Unchecked.Ok);
  EXPECT_EQ(Unchecked.Failures, 0u);
}

} // namespace
