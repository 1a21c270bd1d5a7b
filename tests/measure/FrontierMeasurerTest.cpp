//===- tests/measure/FrontierMeasurerTest.cpp - Measured frontier -----------===//
//
// The FrontierMeasurer contracts: the measured frontier is
// bit-identical for Threads in {1, 2, 4} (the acceptance gate); the
// re-ranking by measured ED2 and the two argmins are internally
// consistent; the SuiteRunner's --measure-frontier mode fills one
// measured frontier per successful program; the CSV/JSON
// serialization carries every point; and every program's measured
// frontier, under two menu and bus settings, matches a golden digest.
//
//===----------------------------------------------------------------------===//

#include "profiling/Profiler.h"
#include "runtime/FrontierMeasurer.h"
#include "runtime/SuiteRunner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

using namespace hcvliw;

namespace {

/// Field-for-field equality of two measured frontiers. EXPECT_EQ on
/// doubles is bitwise-exact equality — that is the contract. The
/// ScheduleHits/Misses diagnostics are scheduling-dependent (concurrent
/// points may duplicate a compute instead of hitting) and are excluded.
void expectBitIdentical(const MeasuredFrontier &A, const MeasuredFrontier &B) {
  EXPECT_EQ(A.Program, B.Program);
  ASSERT_EQ(A.Points.size(), B.Points.size());
  for (size_t I = 0; I < A.Points.size(); ++I) {
    const FrontierPointMeasurement &X = A.Points[I], &Y = B.Points[I];
    EXPECT_EQ(X.Candidate, Y.Candidate);
    EXPECT_EQ(X.FastFactor.str(), Y.FastFactor.str());
    EXPECT_EQ(X.SlowRatio.str(), Y.SlowRatio.str());
    EXPECT_EQ(X.Design.EstTexecNs, Y.Design.EstTexecNs);
    EXPECT_EQ(X.Design.EstEnergy, Y.Design.EstEnergy);
    EXPECT_EQ(X.Design.EstED2, Y.Design.EstED2);
    EXPECT_EQ(X.Measured.Ok, Y.Measured.Ok);
    EXPECT_EQ(X.Measured.TexecNs, Y.Measured.TexecNs);
    EXPECT_EQ(X.Measured.Energy, Y.Measured.Energy);
    EXPECT_EQ(X.Measured.ED2, Y.Measured.ED2);
    EXPECT_EQ(X.Measured.Failures, Y.Measured.Failures);
    EXPECT_EQ(X.TexecError, Y.TexecError);
    EXPECT_EQ(X.EnergyError, Y.EnergyError);
    EXPECT_EQ(X.ED2Error, Y.ED2Error);
  }
  EXPECT_EQ(A.RankByMeasuredED2, B.RankByMeasuredED2);
  EXPECT_EQ(A.EstArgmin, B.EstArgmin);
  EXPECT_EQ(A.MeasArgmin, B.MeasArgmin);
  EXPECT_EQ(A.ArgminAgrees, B.ArgminAgrees);
}

/// Profiles \p Program on the session's resources, then measures its
/// frontier.
MeasuredFrontier measureWithThreads(const char *Program, unsigned Threads) {
  Session S{PipelineOptions(), Threads};
  BenchmarkProgram Prog = buildSpecFPProgram(Program);
  Profiler Prof(S.machine(), &S.scheduleCache(), &S.scheduleScratchPool(),
                &S.tracer(), &S.metrics());
  std::string Err;
  auto Profile = Prof.profileProgram(Prog.Name, Prog.Loops, &Err);
  EXPECT_TRUE(Profile.has_value()) << Err;
  return FrontierMeasurer(S).measure(Prog.Name, Prog.Loops, *Profile);
}

// --- Determinism (the acceptance gate) -------------------------------------

TEST(FrontierMeasurer, BitIdenticalAcrossThreadCounts) {
  for (const char *Program : {"200.sixtrack", "171.swim"}) {
    MeasuredFrontier Serial = measureWithThreads(Program, 1);
    ASSERT_FALSE(Serial.Points.empty()) << Program;
    for (unsigned Threads : {2u, 4u})
      expectBitIdentical(Serial, measureWithThreads(Program, Threads));
  }
}

// --- Re-ranking and argmin contracts ---------------------------------------

TEST(FrontierMeasurer, RankAndArgminAreConsistent) {
  MeasuredFrontier F = measureWithThreads("200.sixtrack", 2);
  ASSERT_FALSE(F.Points.empty());

  // On the paper grid every frontier point is schedulable.
  for (const FrontierPointMeasurement &P : F.Points) {
    EXPECT_TRUE(P.Measured.Ok);
    EXPECT_GT(P.Measured.TexecNs, 0.0);
    EXPECT_GT(P.Measured.Energy, 0.0);
    EXPECT_EQ(P.ED2Error, P.Measured.ED2 / P.Design.EstED2 - 1.0);
  }
  ASSERT_EQ(F.RankByMeasuredED2.size(), F.Points.size());

  // The rank is ascending in measured ED2, ties by point index.
  for (size_t I = 1; I < F.RankByMeasuredED2.size(); ++I) {
    double Prev = F.Points[F.RankByMeasuredED2[I - 1]].Measured.ED2;
    double Cur = F.Points[F.RankByMeasuredED2[I]].Measured.ED2;
    EXPECT_LE(Prev, Cur);
    if (Prev == Cur) {
      EXPECT_LT(F.RankByMeasuredED2[I - 1], F.RankByMeasuredED2[I]);
    }
  }

  // The argmins really minimize their metric over the points.
  for (const FrontierPointMeasurement &P : F.Points) {
    EXPECT_LE(F.Points[F.EstArgmin].Design.EstED2, P.Design.EstED2);
    EXPECT_LE(F.Points[F.MeasArgmin].Measured.ED2, P.Measured.ED2);
  }
  EXPECT_EQ(F.MeasArgmin, F.RankByMeasuredED2.front());
  EXPECT_EQ(F.ArgminAgrees, F.EstArgmin == F.MeasArgmin);

  // The estimated argmin is the design runProgram selects: its
  // estimate must match the pipeline's selection.
  Session S{PipelineOptions(), 1};
  auto R = S.pipeline().runProgram(buildSpecFPProgram("200.sixtrack"));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(F.Points[F.EstArgmin].Design.EstED2, R->HetDesign.EstED2);
  EXPECT_EQ(F.Points[F.EstArgmin].Measured.ED2, R->HetMeasured.ED2);
}

TEST(FrontierMeasurer, EstimateErrorsStayInTheModelBand) {
  // The Section 3 models should predict every frontier point's
  // measured ED2 within a factor of 2 (the pipeline pins the same band
  // for the selected design; the frontier generalizes it).
  for (const char *Program : {"200.sixtrack", "187.facerec", "171.swim"}) {
    MeasuredFrontier F = measureWithThreads(Program, 2);
    for (const FrontierPointMeasurement &P : F.Points) {
      EXPECT_GT(P.Measured.ED2 / P.Design.EstED2, 0.5) << Program;
      EXPECT_LT(P.Measured.ED2 / P.Design.EstED2, 2.0) << Program;
    }
  }
}

// --- SuiteRunner integration -----------------------------------------------

TEST(SuiteRunner, MeasureFrontierFillsOneFrontierPerProgram) {
  std::vector<BenchmarkProgram> Programs = {
      buildSpecFPProgram("171.swim"), buildSpecFPProgram("200.sixtrack")};
  Session S{PipelineOptions(), 2};
  SuiteOptions SO;
  SO.MeasureFrontier = true;
  SuiteResult R = SuiteRunner(S).run(Programs, SO);
  ASSERT_EQ(R.Names.size(), 2u);
  ASSERT_EQ(R.Frontiers.size(), 2u);
  for (size_t I = 0; I < R.Names.size(); ++I) {
    EXPECT_EQ(R.Frontiers[I].Program, R.Names[I]);
    EXPECT_FALSE(R.Frontiers[I].Points.empty());
  }

  // Without the flag the vector stays empty.
  SuiteResult Plain = SuiteRunner(S).run(Programs);
  EXPECT_TRUE(Plain.Frontiers.empty());
}

TEST(SuiteRunner, MeasuredFrontiersBitIdenticalAcrossThreadCounts) {
  std::vector<BenchmarkProgram> Programs = {
      buildSpecFPProgram("187.facerec"), buildSpecFPProgram("172.mgrid")};
  SuiteOptions SO;
  SO.MeasureFrontier = true;

  Session S1{PipelineOptions(), 1};
  SuiteResult Serial = SuiteRunner(S1).run(Programs, SO);
  ASSERT_EQ(Serial.Frontiers.size(), 2u);
  for (unsigned Threads : {2u, 4u}) {
    Session S{PipelineOptions(), Threads};
    SuiteResult Par = SuiteRunner(S).run(Programs, SO);
    ASSERT_EQ(Par.Frontiers.size(), Serial.Frontiers.size());
    for (size_t I = 0; I < Serial.Frontiers.size(); ++I)
      expectBitIdentical(Serial.Frontiers[I], Par.Frontiers[I]);
  }
}

// --- Golden values ---------------------------------------------------------

/// Byte-wise FNV-1a over one measured frontier: every point's
/// candidate, the bits of its estimated and measured Texec, energy and
/// ED2, then the measured rank and both argmins.
uint64_t digestFrontier(const MeasuredFrontier &F) {
  uint64_t H = 1469598103934665603ull;
  auto u64 = [&](uint64_t V) {
    for (unsigned B = 0; B < 8; ++B) {
      H ^= static_cast<unsigned char>(V >> (8 * B));
      H *= 1099511628211ull;
    }
  };
  auto bits = [&](double D) {
    uint64_t B;
    std::memcpy(&B, &D, sizeof B);
    u64(B);
  };
  u64(F.Points.size());
  for (const FrontierPointMeasurement &P : F.Points) {
    u64(P.Candidate);
    bits(P.Design.EstTexecNs);
    bits(P.Design.EstEnergy);
    bits(P.Design.EstED2);
    u64(P.Measured.Ok);
    bits(P.Measured.TexecNs);
    bits(P.Measured.Energy);
    bits(P.Measured.ED2);
  }
  u64(F.RankByMeasuredED2.size());
  for (size_t R : F.RankByMeasuredED2)
    u64(R);
  u64(F.EstArgmin);
  u64(F.MeasArgmin);
  return H;
}

/// digestFrontier of each SPECfp program, in suite order, with the
/// continuous menu at one bus and with a 16-frequency ladder at two.
constexpr uint64_t GoldenFrontiers[2][10] = {
    {0x2716493dc2c58e6dull, 0x86ec7984463345f9ull, 0x075c44d2076c80e5full,
     0x5952b68eeb68e708ull, 0xf4ece1027c59b6ffull, 0xc77ac530607dbfd8ull,
     0xe32522acf5a1d607ull, 0x90b4c3cccba8a301ull, 0xec4d66dc753e8763ull,
     0x3fabab6cfc35492full}, // continuous menu, 1 bus
    {0x61c728df37021456ull, 0x0068eb08a0cc1c91ull, 0x037e843ba5735043ull,
     0xf805c822e3cd23ecull, 0x5319ac833a452c0dull, 0x6b9e4efcf43999fbull,
     0x6e864d2d9cdb49ecull, 0x6e48ede79e19baa2ull, 0xe017d6e7b6d2f818ull,
     0xca64a1b9706ce20aull}, // relativeLadder(16), 2 buses
};

TEST(MeasuredFrontier, MatchesGoldenDigests) {
  std::vector<BenchmarkProgram> Programs = buildSpecFPSuite();
  ASSERT_EQ(Programs.size(), 10u);
  SuiteOptions SO;
  SO.MeasureFrontier = true;
  for (unsigned Setting = 0; Setting < 2; ++Setting) {
    PipelineOptions Opts;
    if (Setting == 1) {
      Opts.MenuSize = 16;
      Opts.Buses = 2;
    }
    Session S{Opts, 2};
    SuiteResult R = SuiteRunner(S).run(Programs, SO);
    ASSERT_EQ(R.Frontiers.size(), Programs.size()) << "setting " << Setting;
    for (size_t I = 0; I < R.Frontiers.size(); ++I) {
      uint64_t Digest = digestFrontier(R.Frontiers[I]);
      EXPECT_EQ(Digest, GoldenFrontiers[Setting][I])
          << R.Frontiers[I].Program << " setting " << Setting << ": 0x"
          << std::hex << Digest;
    }
  }
}

// --- Serialization ---------------------------------------------------------

TEST(MeasuredFrontier, UnmeasurablePointsSerializeWithoutAnArgmin) {
  // When no point is measurable the re-ranking is empty and no point
  // may be flagged (or serialized) as the measured argmin.
  MeasuredFrontier F;
  F.Program = "000.unmeasurable";
  F.Points.emplace_back(); // Measured.Ok defaults to false
  std::string Csv = F.csv();
  EXPECT_NE(Csv.find(",-1,1,0\n"), std::string::npos)
      << "rank -1, est_argmin 1, meas_argmin 0 expected:\n"
      << Csv;
  EXPECT_NE(F.json().find("\"meas_argmin\": null"), std::string::npos);
}

TEST(MeasuredFrontier, CsvCarriesEveryPoint) {
  MeasuredFrontier F = measureWithThreads("171.swim", 1);
  std::string Csv = F.csv();
  size_t Lines = std::count(Csv.begin(), Csv.end(), '\n');
  EXPECT_EQ(Lines, F.Points.size() + 1); // header + one row per point
  EXPECT_EQ(Csv.compare(0, 8, "program,"), 0);
  EXPECT_NE(Csv.find("171.swim"), std::string::npos);

  std::string Json = F.json();
  EXPECT_NE(Json.find("\"argmin_agrees\""), std::string::npos);
  EXPECT_NE(Json.find("\"rank_by_measured_ed2\""), std::string::npos);

  // The aggregate writer stacks rows under one header.
  std::string Path = testing::TempDir() + "frontier_measured_test.csv";
  ASSERT_TRUE(writeFrontierCsv({F, F}, Path));
  std::FILE *In = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(In, nullptr);
  std::string Data;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), In)) > 0)
    Data.append(Buf, N);
  std::fclose(In);
  std::remove(Path.c_str());
  EXPECT_EQ(static_cast<size_t>(
                std::count(Data.begin(), Data.end(), '\n')),
            2 * F.Points.size() + 1);
}

} // namespace
