//===- tests/runtime/CachePersistTest.cpp - Persistent cache tier -----------===//
//
// The on-disk cache tier's safety contracts (runtime/CachePersist):
// a snapshot round-trips — the warm session serves persist hits and
// produces results bit-identical to cold; snapshots are byte-
// deterministic (equal cache contents, equal files); the corruption
// matrix — truncation mid-frame, bit-flip in a record body, bit-flip
// in the header, key-schema version skew, binding mismatch, empty
// file, unknown record kind — quarantines or refuses with exact
// counts and never changes a result; and the "cache.load" fault site
// drives the quarantine path from a plan.
//
//===----------------------------------------------------------------------===//

#include "runtime/CachePersist.h"
#include "runtime/ResultSerde.h"
#include "runtime/Session.h"
#include "runtime/SuiteRunner.h"
#include "support/RecordIO.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace hcvliw;

namespace {

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

/// Zeroes \p C's scheduler-effort / cache-effectiveness counters. They
/// reflect the session that computed the record (a snapshot-warmed run
/// hits where the cold run missed), so the determinism contract carves
/// them out (see tests/fault/JournalResumeTest expectBitIdentical);
/// per-loop semantic outcomes (Loops[].ITNs, TexecNs, Degraded) stay
/// compared.
void clearEffortCounters(ConfigRunResult &C) {
  C.ScheduleHits = C.ScheduleMisses = 0;
  C.SchedPlacements = C.SchedEjections = 0;
  C.SchedBudgetUsed = C.SchedITSteps = 0;
  C.DegradedLoops = C.ColdReplays = 0;
  C.FlatPartitions = C.FallbackRational = 0;
}

/// Serializes every deterministic field of \p R through the journal's
/// serde layer (doubles as hex-floats, Rationals as num/den), so equal
/// keys mean bit-identical results. SuiteFailure::StageWallMs and the
/// effort counters are excluded by contract.
std::string suiteResultKey(const SuiteResult &R) {
  std::string Key;
  for (size_t I = 0; I < R.Names.size(); ++I) {
    recio::Sink S;
    ProgramRunResult D = R.Details[I];
    clearEffortCounters(D.HetMeasured);
    clearEffortCounters(D.HomMeasured);
    serde::putResult(S, D);
    Key += "ok " + R.Names[I] + " " + S.line() + "\n";
  }
  for (const SuiteFailure &F : R.Failures) {
    recio::Sink S;
    serde::putFailure(S, F.Stage, F.Reason, /*StageWallMs=*/0.0);
    Key += "fail " + F.Program + " " + S.line() + "\n";
  }
  return Key;
}

// --- binding fingerprint ---------------------------------------------------

TEST(CacheBinding, PureAndStructural) {
  Session A{PipelineOptions(), 1};
  Session B{PipelineOptions(), 1};
  EXPECT_EQ(A.cacheBinding(), B.cacheBinding()); // pure

  PipelineOptions Wider;
  Wider.NumClusters = 8;
  Session C{Wider, 1};
  EXPECT_NE(A.cacheBinding(), C.cacheBinding()); // machine structure

  PipelineOptions MoreBuses;
  MoreBuses.Buses = 3;
  Session D{MoreBuses, 1};
  EXPECT_NE(A.cacheBinding(), D.cacheBinding());
}

// --- shared fixture: one cold run + snapshot, computed once ----------------

class CachePersistFixture : public ::testing::Test {
protected:
  static std::vector<BenchmarkProgram> Programs;
  static std::string ColdKey;   ///< suiteResultKey of the cold run
  static std::string SnapBytes; ///< the snapshot the cold run saved
  static CacheSaveStats Saved;

  static void SetUpTestSuite() {
    for (const char *Name : {"171.swim", "172.mgrid"})
      Programs.push_back(buildSpecFPProgram(Name));
    Session Cold{PipelineOptions(), 1};
    SuiteResult R = SuiteRunner(Cold).run(Programs);
    ASSERT_EQ(R.Names.size(), 2u);
    ColdKey = suiteResultKey(R);
    std::string Path = tempPath("cachepersist_fixture.cache");
    std::string Err;
    ASSERT_TRUE(Cold.saveCacheTo(Path, &Err)) << Err;
    Saved = Cold.cachePersistSaveStats();
    ASSERT_GT(Saved.saved(), 0u);
    SnapBytes = slurp(Path);
    std::remove(Path.c_str());

    // Byte determinism: saving the same cache contents again produces
    // the identical file.
    std::string Again = tempPath("cachepersist_fixture2.cache");
    ASSERT_TRUE(Cold.saveCacheTo(Again, &Err)) << Err;
    ASSERT_EQ(SnapBytes, slurp(Again));
    std::remove(Again.c_str());
  }

  /// Writes \p Bytes to a temp snapshot and loads it into a fresh
  /// session; returns load success, filling the session's stats.
  static bool loadInto(Session &S, const std::string &Bytes,
                       const std::string &Name, std::string *Err = nullptr) {
    std::string Path = tempPath(Name);
    spit(Path, Bytes);
    bool Ok = S.loadCacheFrom(Path, Err);
    std::remove(Path.c_str());
    return Ok;
  }
};

std::vector<BenchmarkProgram> CachePersistFixture::Programs;
std::string CachePersistFixture::ColdKey;
std::string CachePersistFixture::SnapBytes;
CacheSaveStats CachePersistFixture::Saved;

TEST_F(CachePersistFixture, RoundTripWarmsAndPreservesResults) {
  Session Warm{PipelineOptions(), 1};
  std::string Err;
  ASSERT_TRUE(loadInto(Warm, SnapBytes, "cp_roundtrip.cache", &Err)) << Err;
  EXPECT_EQ(Warm.cachePersistLoadStats().loaded(), Saved.saved());
  EXPECT_EQ(Warm.cachePersistLoadStats().CorruptFrames, 0u);

  SuiteResult R = SuiteRunner(Warm).run(Programs);
  EXPECT_EQ(suiteResultKey(R), ColdKey); // warm == cold, bitwise
  EXPECT_GT(Warm.cachePersistHits(), 0u);

  // The warm session's caches hold the same entries; its snapshot is
  // byte-identical to the cold one.
  std::string Resave = tempPath("cp_resave.cache");
  ASSERT_TRUE(Warm.saveCacheTo(Resave, &Err)) << Err;
  EXPECT_EQ(slurp(Resave), SnapBytes);
  std::remove(Resave.c_str());
}

// --- corruption matrix ------------------------------------------------------

TEST_F(CachePersistFixture, TruncationMidFrameQuarantinesOneFrame) {
  size_t LastRec = SnapBytes.rfind("\nrec ");
  ASSERT_NE(LastRec, std::string::npos);
  // Cut into the middle of the last record line: the torn-tail shape.
  std::string Torn = SnapBytes.substr(0, LastRec + 15);

  Session S{PipelineOptions(), 1};
  std::string Err;
  ASSERT_TRUE(loadInto(S, Torn, "cp_torn.cache", &Err)) << Err;
  EXPECT_EQ(S.cachePersistLoadStats().CorruptFrames, 1u);
  EXPECT_EQ(S.cachePersistLoadStats().loaded(), Saved.saved() - 1);
}

TEST_F(CachePersistFixture, BitFlipInBodyQuarantinesThatFrameOnly) {
  size_t FirstRec = SnapBytes.find("\nrec ");
  ASSERT_NE(FirstRec, std::string::npos);
  size_t LineEnd = SnapBytes.find('\n', FirstRec + 1);
  ASSERT_NE(LineEnd, std::string::npos);
  std::string Flipped = SnapBytes;
  char &C = Flipped[LineEnd - 1]; // last body byte: CRC must catch it
  C = (C == 'a') ? 'b' : 'a';

  Session S{PipelineOptions(), 1};
  std::string Err;
  ASSERT_TRUE(loadInto(S, Flipped, "cp_flip.cache", &Err)) << Err;
  EXPECT_EQ(S.cachePersistLoadStats().CorruptFrames, 1u);
  EXPECT_EQ(S.cachePersistLoadStats().loaded(), Saved.saved() - 1);

  // The quarantine never changes a result: the partially warmed run is
  // still bit-identical to cold.
  SuiteResult R = SuiteRunner(S).run(Programs);
  EXPECT_EQ(suiteResultKey(R), ColdKey);
}

TEST_F(CachePersistFixture, BitFlipInHeaderRefuses) {
  std::string Flipped = SnapBytes;
  ASSERT_GT(Flipped.size(), 3u);
  Flipped[2] = (Flipped[2] == 'a') ? 'b' : 'a'; // inside the magic line

  Session S{PipelineOptions(), 1};
  std::string Err;
  EXPECT_FALSE(loadInto(S, Flipped, "cp_badmagic.cache", &Err));
  EXPECT_NE(Err.find("magic"), std::string::npos) << Err;
  EXPECT_EQ(S.cachePersistLoadStats().loaded(), 0u); // imported nothing
}

TEST_F(CachePersistFixture, VersionSkewRefuses) {
  std::string Skewed = SnapBytes;
  size_t Pos = Skewed.find("schema 1 ");
  ASSERT_NE(Pos, std::string::npos);
  Skewed.replace(Pos, 9, "schema 999 ");

  Session S{PipelineOptions(), 1};
  std::string Err;
  EXPECT_FALSE(loadInto(S, Skewed, "cp_skew.cache", &Err));
  EXPECT_NE(Err.find("schema"), std::string::npos) << Err;
  EXPECT_EQ(S.cachePersistLoadStats().loaded(), 0u);
}

TEST_F(CachePersistFixture, BindingMismatchRefuses) {
  size_t Pos = SnapBytes.find("binding ");
  ASSERT_NE(Pos, std::string::npos);
  std::string Other = SnapBytes;
  char &C = Other[Pos + 8]; // first hex digit of the binding
  C = (C == '0') ? '1' : '0';

  Session S{PipelineOptions(), 1};
  std::string Err;
  EXPECT_FALSE(loadInto(S, Other, "cp_binding.cache", &Err));
  EXPECT_NE(Err.find("binding"), std::string::npos) << Err;
  EXPECT_EQ(S.cachePersistLoadStats().loaded(), 0u);
}

TEST_F(CachePersistFixture, EmptyFileRefuses) {
  Session S{PipelineOptions(), 1};
  std::string Err;
  EXPECT_FALSE(loadInto(S, "", "cp_empty.cache", &Err));
  EXPECT_NE(Err.find("empty"), std::string::npos) << Err;
}

TEST_F(CachePersistFixture, UnknownRecordKindIsQuarantined) {
  // A well-formed frame (CRC matches) of a kind this build does not
  // know: quarantine, never guess.
  std::string Body = "42 13";
  char Frame[64];
  std::snprintf(Frame, sizeof Frame, "rec zzz %08x %s\n",
                recio::crc32(Body), Body.c_str());
  std::string WithAlien = SnapBytes + Frame;

  Session S{PipelineOptions(), 1};
  std::string Err;
  ASSERT_TRUE(loadInto(S, WithAlien, "cp_alien.cache", &Err)) << Err;
  EXPECT_EQ(S.cachePersistLoadStats().CorruptFrames, 1u);
  EXPECT_EQ(S.cachePersistLoadStats().loaded(), Saved.saved());
}

TEST_F(CachePersistFixture, FaultPlanDrivesQuarantinePath) {
  // Every third frame "corrupts" via the cache.load degrade site — the
  // chaos suite's way to exercise quarantine without crafted bytes.
  Session S{PipelineOptions(), 1};
  auto Plan = fault::FaultPlan::parse("on cache.load every 3 degrade");
  ASSERT_TRUE(Plan.has_value());
  S.faultInjector().arm(*Plan);

  std::string Err;
  ASSERT_TRUE(loadInto(S, SnapBytes, "cp_fault.cache", &Err)) << Err;
  S.faultInjector().disarm();

  uint64_t Expect = Saved.saved() / 3;
  EXPECT_EQ(S.cachePersistLoadStats().CorruptFrames, Expect);
  EXPECT_EQ(S.cachePersistLoadStats().loaded(), Saved.saved() - Expect);
  EXPECT_EQ(S.faultInjector().injectedDegrades(), Expect);
}

} // namespace
