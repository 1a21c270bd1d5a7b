//===- tests/fault/JournalResumeTest.cpp - Checkpoint / resume contracts ----===//
//
// The SuiteJournal durability contracts: every field of a journaled
// record round-trips bitwise (hex-float doubles, num/den Rationals); a
// torn trailing record — the shape a kill mid-append leaves — is
// dropped while everything before it loads; the fingerprint binds a
// journal to its (options, program list) identity and a resume under
// different options is refused; and the headline contract, a run
// journaled, killed and resumed merges to a SuiteResult bit-identical
// to the uninterrupted run.
//
//===----------------------------------------------------------------------===//

#include "runtime/SuiteJournal.h"
#include "runtime/SuiteRunner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace hcvliw;

namespace {

std::vector<BenchmarkProgram> smallSuite() {
  std::vector<BenchmarkProgram> Programs;
  for (const char *Name : {"168.wupwise", "171.swim", "172.mgrid"})
    Programs.push_back(buildSpecFPProgram(Name));
  return Programs;
}

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + Name;
  std::remove(Path.c_str());
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void spit(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
}

/// Bitwise equality of the deterministic fields of two suite results
/// (the same contract SessionSuiteTest pins for thread counts).
void expectBitIdentical(const SuiteResult &A, const SuiteResult &B) {
  ASSERT_EQ(A.Names, B.Names);
  ASSERT_EQ(A.ED2Ratios.size(), B.ED2Ratios.size());
  for (size_t I = 0; I < A.ED2Ratios.size(); ++I)
    EXPECT_EQ(A.ED2Ratios[I], B.ED2Ratios[I]) << A.Names[I];
  ASSERT_EQ(A.Failures.size(), B.Failures.size());
  for (size_t I = 0; I < A.Failures.size(); ++I) {
    EXPECT_EQ(A.Failures[I].Program, B.Failures[I].Program);
    EXPECT_EQ(A.Failures[I].Stage, B.Failures[I].Stage);
    EXPECT_EQ(A.Failures[I].Reason, B.Failures[I].Reason);
  }
  ASSERT_EQ(A.Details.size(), B.Details.size());
  for (size_t I = 0; I < A.Details.size(); ++I) {
    const ProgramRunResult &X = A.Details[I], &Y = B.Details[I];
    EXPECT_EQ(X.Name, Y.Name);
    EXPECT_EQ(X.ED2Ratio, Y.ED2Ratio) << X.Name;
    EXPECT_EQ(X.HetDesign.EstED2, Y.HetDesign.EstED2) << X.Name;
    EXPECT_EQ(X.HomDesign.EstED2, Y.HomDesign.EstED2) << X.Name;
    EXPECT_EQ(X.HetMeasured.TexecNs, Y.HetMeasured.TexecNs) << X.Name;
    EXPECT_EQ(X.HetMeasured.Energy, Y.HetMeasured.Energy) << X.Name;
    EXPECT_EQ(X.HetMeasured.ED2, Y.HetMeasured.ED2) << X.Name;
    EXPECT_EQ(X.HomMeasured.ED2, Y.HomMeasured.ED2) << X.Name;
    ASSERT_EQ(X.HetMeasured.Loops.size(), Y.HetMeasured.Loops.size());
    for (size_t L = 0; L < X.HetMeasured.Loops.size(); ++L) {
      EXPECT_EQ(X.HetMeasured.Loops[L].Name, Y.HetMeasured.Loops[L].Name);
      EXPECT_EQ(X.HetMeasured.Loops[L].ITNs, Y.HetMeasured.Loops[L].ITNs);
      EXPECT_EQ(X.HetMeasured.Loops[L].TexecNs,
                Y.HetMeasured.Loops[L].TexecNs);
    }
  }
}

// --- fingerprint -----------------------------------------------------------

TEST(SuiteJournalFingerprint, PureAndSensitive) {
  std::vector<BenchmarkProgram> Programs = smallSuite();
  PipelineOptions Opts;
  uint64_t A = suiteJournalFingerprint(Opts, Programs);
  EXPECT_EQ(A, suiteJournalFingerprint(Opts, Programs)); // pure

  // Any option the per-program computation reads moves it.
  PipelineOptions Tweaked = Opts;
  Tweaked.LoopEffortDeadline = 100000;
  EXPECT_NE(A, suiteJournalFingerprint(Tweaked, Programs));
  PipelineOptions Degrading = Opts;
  Degrading.DegradeToEstimate = true;
  EXPECT_NE(A, suiteJournalFingerprint(Degrading, Programs));

  // So does the program list — names and loop structure both.
  std::vector<BenchmarkProgram> Fewer(Programs.begin(), Programs.end() - 1);
  EXPECT_NE(A, suiteJournalFingerprint(Opts, Fewer));
  std::vector<BenchmarkProgram> Renamed = Programs;
  Renamed[0].Name = "999.other";
  EXPECT_NE(A, suiteJournalFingerprint(Opts, Renamed));
}

// --- record round-trip -----------------------------------------------------

TEST(SuiteJournal, RecordsRoundTripBitwise) {
  BenchmarkProgram Prog = buildSpecFPProgram("171.swim");
  Session S{PipelineOptions(), 1};
  auto R = S.pipeline().runProgram(Prog);
  ASSERT_TRUE(R.has_value());

  std::string Path = tempPath("journal_roundtrip.txt");
  {
    SuiteJournalWriter W;
    std::string Err;
    ASSERT_TRUE(W.open(Path, 0x1234, &Err)) << Err;
    W.append(*R);
    W.appendFailure("999.broken", PipelineStage::Selection,
                    "reason with spaces\nand a newline", 12.5);
  }

  std::string Err;
  auto J = SuiteJournal::load(Path, 0x1234, &Err);
  ASSERT_TRUE(J.has_value()) << Err;
  EXPECT_EQ(J->Fingerprint, 0x1234u);
  EXPECT_EQ(J->numRecords(), 2u);

  ASSERT_EQ(J->Results.count("171.swim"), 1u);
  const ProgramRunResult &L = J->Results.at("171.swim");
  EXPECT_EQ(L.ED2Ratio, R->ED2Ratio);
  EXPECT_EQ(L.HetDesign.EstTexecNs, R->HetDesign.EstTexecNs);
  EXPECT_EQ(L.HetDesign.EstED2, R->HetDesign.EstED2);
  EXPECT_EQ(L.HomDesign.EstED2, R->HomDesign.EstED2);
  ASSERT_EQ(L.HetDesign.Config.Clusters.size(),
            R->HetDesign.Config.Clusters.size());
  for (size_t C = 0; C < L.HetDesign.Config.Clusters.size(); ++C) {
    EXPECT_EQ(L.HetDesign.Config.Clusters[C].PeriodNs,
              R->HetDesign.Config.Clusters[C].PeriodNs); // exact Rational
    EXPECT_EQ(L.HetDesign.Config.Clusters[C].Vdd,
              R->HetDesign.Config.Clusters[C].Vdd); // exact double
  }
  EXPECT_EQ(L.HetMeasured.TexecNs, R->HetMeasured.TexecNs);
  EXPECT_EQ(L.HetMeasured.Energy, R->HetMeasured.Energy);
  EXPECT_EQ(L.HetMeasured.ED2, R->HetMeasured.ED2);
  EXPECT_EQ(L.HetMeasured.ScheduleMisses, R->HetMeasured.ScheduleMisses);
  EXPECT_EQ(L.HetMeasured.SchedPlacements, R->HetMeasured.SchedPlacements);
  EXPECT_EQ(L.HetMeasured.DegradedLoops, R->HetMeasured.DegradedLoops);
  ASSERT_EQ(L.HetMeasured.Loops.size(), R->HetMeasured.Loops.size());
  for (size_t I = 0; I < L.HetMeasured.Loops.size(); ++I) {
    EXPECT_EQ(L.HetMeasured.Loops[I].Name, R->HetMeasured.Loops[I].Name);
    EXPECT_EQ(L.HetMeasured.Loops[I].ITNs, R->HetMeasured.Loops[I].ITNs);
    EXPECT_EQ(L.HetMeasured.Loops[I].TexecNs,
              R->HetMeasured.Loops[I].TexecNs);
  }
  // Profile doubles (weights, reference rationals) round-trip too.
  ASSERT_EQ(L.Profile.Loops.size(), R->Profile.Loops.size());
  for (size_t I = 0; I < L.Profile.Loops.size(); ++I) {
    EXPECT_EQ(L.Profile.Loops[I].Weight, R->Profile.Loops[I].Weight);
    EXPECT_EQ(L.Profile.Loops[I].ItLengthRefNs,
              R->Profile.Loops[I].ItLengthRefNs);
  }

  ASSERT_EQ(J->Failures.count("999.broken"), 1u);
  const JournaledFailure &F = J->Failures.at("999.broken");
  EXPECT_EQ(F.Stage, PipelineStage::Selection);
  EXPECT_EQ(F.Reason, "reason with spaces\nand a newline"); // escaping
  EXPECT_EQ(F.StageWallMs, 12.5);

  std::remove(Path.c_str());
}

TEST(SuiteJournal, DuplicateRecordLaterWins) {
  Session S{PipelineOptions(), 1};
  auto R = S.pipeline().runProgram(buildSpecFPProgram("172.mgrid"));
  ASSERT_TRUE(R.has_value());

  std::string Path = tempPath("journal_dup.txt");
  {
    SuiteJournalWriter W;
    ASSERT_TRUE(W.open(Path, 1));
    W.append(*R);
    ProgramRunResult Amended = *R;
    Amended.ED2Ratio = 42.0;
    W.append(Amended);
  }
  auto J = SuiteJournal::load(Path, 1);
  ASSERT_TRUE(J.has_value());
  EXPECT_EQ(J->numRecords(), 1u);
  EXPECT_EQ(J->Results.at("172.mgrid").ED2Ratio, 42.0);
  std::remove(Path.c_str());
}

// --- torn records ----------------------------------------------------------

TEST(SuiteJournal, TornTrailingRecordIsDropped) {
  Session S{PipelineOptions(), 1};
  auto R1 = S.pipeline().runProgram(buildSpecFPProgram("168.wupwise"));
  auto R2 = S.pipeline().runProgram(buildSpecFPProgram("171.swim"));
  ASSERT_TRUE(R1.has_value() && R2.has_value());

  std::string Path = tempPath("journal_torn.txt");
  {
    SuiteJournalWriter W;
    ASSERT_TRUE(W.open(Path, 9));
    W.append(*R1);
    W.append(*R2);
  }
  std::string Bytes = slurp(Path);

  // Cut mid-way through the second record: the kill-mid-append shape.
  size_t Second = Bytes.find("begin ok 171.swim");
  ASSERT_NE(Second, std::string::npos);
  spit(Path, Bytes.substr(0, Second + 40));

  std::string Err;
  auto J = SuiteJournal::load(Path, 9, &Err);
  ASSERT_TRUE(J.has_value()) << Err;
  EXPECT_EQ(J->numRecords(), 1u); // the torn record is gone...
  EXPECT_EQ(J->Results.count("168.wupwise"), 1u); // ...the intact one loads
  std::remove(Path.c_str());
}

TEST(SuiteJournal, ReopenTruncatesTornTailBeforeAppending) {
  // A retry that appends after a torn tail must not hide its records
  // behind the tear: open() truncates to the intact prefix first, so
  // everything it appends is visible to every future load. (Before the
  // CleanBytes fix, appends landed after the torn bytes and were
  // silently dropped by the next load — fatal for a resumed crash.)
  Session S{PipelineOptions(), 1};
  auto R1 = S.pipeline().runProgram(buildSpecFPProgram("168.wupwise"));
  auto R2 = S.pipeline().runProgram(buildSpecFPProgram("171.swim"));
  ASSERT_TRUE(R1.has_value() && R2.has_value());

  std::string Path = tempPath("journal_reopen.txt");
  {
    SuiteJournalWriter W;
    ASSERT_TRUE(W.open(Path, 7));
    W.append(*R1);
  }
  // Simulate a kill mid-append of a second record: intact first record
  // plus a torn fragment.
  spit(Path, slurp(Path) + "begin ok 171.swim\ntorn-frag");

  {
    SuiteJournalWriter W;
    std::string Err;
    ASSERT_TRUE(W.open(Path, 7, &Err)) << Err; // truncates the tear
    W.append(*R2);
  }
  std::string Err;
  auto J = SuiteJournal::load(Path, 7, &Err);
  ASSERT_TRUE(J.has_value()) << Err;
  EXPECT_EQ(J->numRecords(), 2u); // both records visible
  EXPECT_EQ(J->Results.count("168.wupwise"), 1u);
  EXPECT_EQ(J->Results.count("171.swim"), 1u);
  std::remove(Path.c_str());
}

TEST(SuiteJournal, MismatchedFingerprintRefusesToLoad) {
  std::string Path = tempPath("journal_fp.txt");
  {
    SuiteJournalWriter W;
    ASSERT_TRUE(W.open(Path, 0xaaaa));
  }
  std::string Err;
  EXPECT_FALSE(SuiteJournal::load(Path, 0xbbbb, &Err).has_value());
  EXPECT_NE(Err.find("fingerprint"), std::string::npos) << Err;
  // ExpectFingerprint 0 accepts any journal (inspection mode).
  EXPECT_TRUE(SuiteJournal::load(Path, 0).has_value());
  std::remove(Path.c_str());
}

// --- checkpoint / kill / resume --------------------------------------------

TEST(SuiteResume, KilledRunResumesBitIdentically) {
  std::vector<BenchmarkProgram> Programs = smallSuite();
  // A fourth, broken program pins failure records through the journal.
  BenchmarkProgram Broken;
  Broken.Name = "999.broken";
  Programs.push_back(Broken);

  SuiteResult Uninterrupted;
  {
    Session S{PipelineOptions(), 2};
    Uninterrupted = SuiteRunner(S).run(Programs);
  }
  ASSERT_EQ(Uninterrupted.Names.size(), 3u);
  ASSERT_EQ(Uninterrupted.Failures.size(), 1u);

  // Run once with a journal attached; every record lands in the file.
  std::string Path = tempPath("journal_resume.txt");
  {
    Session S{PipelineOptions(), 2};
    SuiteOptions SO;
    SO.JournalPath = Path;
    SuiteResult Full = SuiteRunner(S).run(Programs, SO);
    expectBitIdentical(Uninterrupted, Full);
  }

  // Simulate the kill: keep the header and the first record only.
  std::string Bytes = slurp(Path);
  size_t FirstBegin = Bytes.find("begin ");
  ASSERT_NE(FirstBegin, std::string::npos);
  size_t SecondBegin = Bytes.find("begin ", FirstBegin + 1);
  ASSERT_NE(SecondBegin, std::string::npos);
  spit(Path, Bytes.substr(0, SecondBegin));

  uint64_t Fp = suiteJournalFingerprint(PipelineOptions(), Programs);
  std::string Err;
  auto Partial = SuiteJournal::load(Path, Fp, &Err);
  ASSERT_TRUE(Partial.has_value()) << Err;
  ASSERT_EQ(Partial->numRecords(), 1u);

  // Resume: journaled work is spliced, the rest re-runs, and the
  // journal file ends up complete again.
  size_t Streamed = 0;
  {
    Session S{PipelineOptions(), 2};
    SuiteOptions SO;
    SO.JournalPath = Path;
    SO.ResumeFrom = &*Partial;
    SO.OnProgramDone = [&](const SuiteProgress &P) {
      ++Streamed;
      EXPECT_EQ(P.Total, 4u);
    };
    SuiteResult Resumed = SuiteRunner(S).run(Programs, SO);
    expectBitIdentical(Uninterrupted, Resumed);
  }
  EXPECT_EQ(Streamed, 4u); // prefilled programs stream too
  auto Final = SuiteJournal::load(Path, Fp);
  ASSERT_TRUE(Final.has_value());
  EXPECT_EQ(Final->numRecords(), 4u);
  std::remove(Path.c_str());
}

TEST(SuiteResume, ResumeUnderDifferentOptionsThrows) {
  std::vector<BenchmarkProgram> Programs = smallSuite();
  std::string Path = tempPath("journal_wrongopts.txt");
  {
    Session S{PipelineOptions(), 1};
    SuiteOptions SO;
    SO.JournalPath = Path;
    SuiteRunner(S).run(Programs, SO);
  }
  auto J = SuiteJournal::load(Path); // inspection mode: loads fine
  ASSERT_TRUE(J.has_value());

  PipelineOptions Other;
  Other.DegradeToEstimate = true; // a fingerprinted option
  Session S(Other, 1);
  SuiteOptions SO;
  SO.ResumeFrom = &*J;
  EXPECT_THROW(SuiteRunner(S).run(Programs, SO), std::runtime_error);
  std::remove(Path.c_str());
}

TEST(SuiteResume, JournalingUnderMeasureFrontierFailsFast) {
  // The frontier sweep is not journalable (results are not per-program
  // pure in the journal's schema). Combining it with checkpointing used
  // to be silently ignored — a user who asked for crash tolerance got
  // none. The contract is now fail-fast: Journal and Resume both throw
  // under MeasureFrontier.
  std::vector<BenchmarkProgram> One;
  One.push_back(buildSpecFPProgram("171.swim"));
  std::string Path = tempPath("journal_frontier.txt");
  Session S{PipelineOptions(), 1};
  {
    SuiteOptions SO;
    SO.MeasureFrontier = true;
    SO.JournalPath = Path;
    EXPECT_THROW(SuiteRunner(S).run(One, SO), std::runtime_error);
  }
  std::ifstream Probe(Path);
  EXPECT_FALSE(Probe.good()); // refused before any journal IO
  {
    SuiteJournal J;
    SuiteOptions SO;
    SO.MeasureFrontier = true;
    SO.ResumeFrom = &J;
    EXPECT_THROW(SuiteRunner(S).run(One, SO), std::runtime_error);
  }
  // Plain frontier runs are unaffected.
  SuiteOptions SO;
  SO.MeasureFrontier = true;
  SuiteResult R = SuiteRunner(S).run(One, SO);
  EXPECT_EQ(R.Names.size(), 1u);
  std::remove(Path.c_str());
}

} // namespace
