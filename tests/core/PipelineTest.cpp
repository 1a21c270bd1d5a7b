//===- tests/core/PipelineTest.cpp - End-to-end paper reproduction ----------===//
//
// The headline assertions: on every benchmark the measured ED2 of the
// selected heterogeneous design is at most that of the optimum
// homogeneous design (within noise), the per-program ordering follows
// the paper's Figure 6 (sixtrack best, facerec next, wupwise/applu
// smallest), and every measured schedule is functionally exact.
//
//===----------------------------------------------------------------------===//

#include "runtime/SuiteRunner.h"

#include <gtest/gtest.h>

#include <map>

using namespace hcvliw;

namespace {

// One shared run of the whole suite (the pipeline is deterministic),
// through the Session/SuiteRunner API: programs fan out across the
// session pool and selections share the session EvalCache. Results are
// bit-identical for any thread count and equal their golden digests
// (SessionSuiteTest pins both).
const std::map<std::string, ProgramRunResult> &suiteResults() {
  static const std::map<std::string, ProgramRunResult> Results = [] {
    std::map<std::string, ProgramRunResult> R;
    PipelineOptions Opts;
    Opts.SimCheckIterations = 48; // functional checks on every schedule
    Session S(Opts, 4);
    SuiteResult Suite = SuiteRunner(S).runSpecFP();
    for (ProgramRunResult &Res : Suite.Details) {
      std::string Name = Res.Name;
      R.emplace(std::move(Name), std::move(Res));
    }
    return R;
  }();
  return Results;
}

TEST(Pipeline, AllProgramsRun) {
  EXPECT_EQ(suiteResults().size(), 10u);
  for (const auto &[Name, R] : suiteResults()) {
    EXPECT_EQ(R.HetMeasured.Failures, 0u) << Name;
    EXPECT_EQ(R.HomMeasured.Failures, 0u) << Name;
    EXPECT_GT(R.HetMeasured.TexecNs, 0) << Name;
    EXPECT_GT(R.HetMeasured.Energy, 0) << Name;
  }
}

TEST(Pipeline, HeterogeneityNeverLoses) {
  for (const auto &[Name, R] : suiteResults())
    EXPECT_LE(R.ED2Ratio, 1.005) << Name;
}

TEST(Pipeline, MeanBenefitMatchesPaperBand) {
  double Sum = 0;
  for (const auto &[Name, R] : suiteResults())
    Sum += R.ED2Ratio;
  double Mean = Sum / static_cast<double>(suiteResults().size());
  // Paper: ~15% mean ED2 benefit. Accept 8-20%.
  EXPECT_LT(Mean, 0.92);
  EXPECT_GT(Mean, 0.80);
}

TEST(Pipeline, SixtrackIsTheBestCase) {
  const auto &R = suiteResults();
  double Six = R.at("200.sixtrack").ED2Ratio;
  EXPECT_LT(Six, 0.72); // paper: ~35% reduction
  for (const auto &[Name, Res] : R)
    EXPECT_LE(Six, Res.ED2Ratio + 1e-9) << Name;
}

TEST(Pipeline, FacerecStrongRecurrenceWin) {
  EXPECT_LT(suiteResults().at("187.facerec").ED2Ratio, 0.82);
}

TEST(Pipeline, WupwiseAndApplusAreSmallest) {
  const auto &R = suiteResults();
  // Paper: smallest benefits (~5%) for wupwise and applu.
  EXPECT_GT(R.at("168.wupwise").ED2Ratio, 0.90);
  EXPECT_GT(R.at("173.applu").ED2Ratio, 0.90);
}

TEST(Pipeline, RecurrenceProgramsBeatResourcePrograms) {
  const auto &R = suiteResults();
  double RecMean = (R.at("200.sixtrack").ED2Ratio +
                    R.at("187.facerec").ED2Ratio +
                    R.at("191.fma3d").ED2Ratio) /
                   3.0;
  double ResMean =
      (R.at("171.swim").ED2Ratio + R.at("172.mgrid").ED2Ratio) / 2.0;
  EXPECT_LT(RecMean, ResMean);
}

TEST(Pipeline, ResourceProgramsTradeTimeForEnergy) {
  // The paper: swim/mgrid pick a lower frequency; execution time rises
  // ~5% while energy drops ~15%.
  const auto &R = suiteResults().at("171.swim");
  EXPECT_GE(R.HetMeasured.TexecNs, R.HomMeasured.TexecNs * 0.999);
  EXPECT_LT(R.HetMeasured.Energy, R.HomMeasured.Energy);
}

TEST(Pipeline, RecurrenceProgramsKeepOrGainSpeed) {
  const auto &R = suiteResults().at("200.sixtrack");
  EXPECT_LE(R.HetMeasured.TexecNs, R.HomMeasured.TexecNs * 1.01);
}

TEST(Pipeline, SelectedConfigsRespectVoltageRanges) {
  for (const auto &[Name, R] : suiteResults()) {
    for (const auto &Cl : R.HetDesign.Config.Clusters) {
      EXPECT_GE(Cl.Vdd, 0.70 - 1e-9) << Name;
      EXPECT_LE(Cl.Vdd, 1.20 + 1e-9) << Name;
    }
    EXPECT_GE(R.HetDesign.Config.Icn.Vdd, 0.80 - 1e-9) << Name;
    EXPECT_LE(R.HetDesign.Config.Icn.Vdd, 1.10 + 1e-9) << Name;
    EXPECT_GE(R.HetDesign.Config.Cache.Vdd, 1.00 - 1e-9) << Name;
    EXPECT_LE(R.HetDesign.Config.Cache.Vdd, 1.40 + 1e-9) << Name;
    // Fast clusters first; slow never faster than fast.
    const auto &Cls = R.HetDesign.Config.Clusters;
    for (size_t I = 1; I < Cls.size(); ++I)
      EXPECT_GE(Cls[I].PeriodNs, Cls.front().PeriodNs) << Name;
  }
}

TEST(Pipeline, TwoBusesSimilarBenefits) {
  PipelineOptions Opts;
  Opts.Buses = 2;
  Session S(Opts, 1);
  auto R1 = suiteResults().at("200.sixtrack");
  auto Prog = buildSpecFPProgram("200.sixtrack");
  auto R2 = S.pipeline().runProgram(Prog);
  ASSERT_TRUE(R2.has_value());
  EXPECT_NEAR(R2->ED2Ratio, R1.ED2Ratio, 0.05);
}

TEST(Pipeline, RestrictedMenuDegradesGracefully) {
  PipelineOptions Opts;
  Opts.MenuSize = 4;
  Session S(Opts, 1);
  double Sum = 0;
  unsigned N = 0;
  for (const auto &Name :
       {"200.sixtrack", "187.facerec", "171.swim", "168.wupwise"}) {
    auto R = S.pipeline().runProgram(buildSpecFPProgram(Name));
    ASSERT_TRUE(R.has_value()) << Name;
    EXPECT_LE(R->ED2Ratio, 1.05) << Name;
    Sum += R->ED2Ratio;
    ++N;
  }
  // Mean over these four still clearly below 1.
  EXPECT_LT(Sum / N, 0.95);
}

TEST(Pipeline, EstimatorTracksMeasurement) {
  // The Section 3 models drive the selection; they should predict the
  // measured heterogeneous ED2 within a factor of 2 everywhere.
  for (const auto &[Name, R] : suiteResults()) {
    double Ratio = R.HetDesign.EstED2 / R.HetMeasured.ED2;
    EXPECT_GT(Ratio, 0.5) << Name;
    EXPECT_LT(Ratio, 2.0) << Name;
  }
}

} // namespace
