//===- tests/runtime/CachePersistTest.cpp - Persistent cache tier -----------===//
//
// The on-disk cache tier's safety contracts (runtime/CachePersist):
// a snapshot round-trips — the warm session serves persist hits and
// produces results bit-identical to cold; snapshots are byte-
// deterministic (equal cache contents, equal files); the corruption
// matrix — truncation mid-frame, bit-flip in a record body, bit-flip
// in the header, key-schema version skew (schema-2 and schema-3
// snapshots included), binding mismatch, empty file, unknown record kind, a
// CRC-valid rational with a zero or INT64_MIN denominator —
// quarantines or refuses with exact counts and never changes a result;
// duplicate frames are not counted as loaded; a CRC-valid schedule
// whose narrowed fields overflow, or whose shape breaks what every
// scheduling result has, is quarantined; the "cache.load" fault site
// drives the quarantine path from a plan; and seeded mutations of
// record bodies, re-framed under a valid CRC, reach the body decoder
// and are either quarantined or imported as entries that save and
// load back cleanly.
//
//===----------------------------------------------------------------------===//

#include "SuiteResultCheck.h"
#include "runtime/CachePersist.h"
#include "runtime/Session.h"
#include "runtime/SuiteRunner.h"
#include "support/RNG.h"
#include "support/RecordIO.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
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
  static SuiteResult ColdResult; ///< the cold run
  static std::string SnapBytes; ///< the snapshot the cold run saved
  static CacheSaveStats Saved;

  static void SetUpTestSuite() {
    if (!SnapBytes.empty())
      return; // computed once, for derived suites too
    for (const char *Name : {"171.swim", "172.mgrid"})
      Programs.push_back(buildSpecFPProgram(Name));
    Session Cold{PipelineOptions(), 1};
    SuiteResult R = SuiteRunner(Cold).run(Programs);
    ASSERT_EQ(R.Names.size(), 2u);
    ColdResult = R;
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
SuiteResult CachePersistFixture::ColdResult;
std::string CachePersistFixture::SnapBytes;
CacheSaveStats CachePersistFixture::Saved;

TEST_F(CachePersistFixture, RoundTripWarmsAndPreservesResults) {
  Session Warm{PipelineOptions(), 1};
  std::string Err;
  ASSERT_TRUE(loadInto(Warm, SnapBytes, "cp_roundtrip.cache", &Err)) << Err;
  EXPECT_EQ(Warm.cachePersistLoadStats().loaded(), Saved.saved());
  EXPECT_EQ(Warm.cachePersistLoadStats().CorruptFrames, 0u);

  SuiteResult R = SuiteRunner(Warm).run(Programs);
  expectSameSuite(ColdResult, R); // warm == cold, bitwise
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
  expectSameSuite(ColdResult, R);
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
  const std::string Current =
      "schema " + std::to_string(CacheKeySchemaVersion) + " ";
  size_t Pos = Skewed.find(Current);
  ASSERT_NE(Pos, std::string::npos);
  Skewed.replace(Pos, Current.size(), "schema 999 ");

  Session S{PipelineOptions(), 1};
  std::string Err;
  EXPECT_FALSE(loadInto(S, Skewed, "cp_skew.cache", &Err));
  EXPECT_NE(Err.find("schema"), std::string::npos) << Err;
  EXPECT_EQ(S.cachePersistLoadStats().loaded(), 0u);
}

TEST_F(CachePersistFixture, SchemaTwoSnapshotRefuses) {
  // Schema 3 added the loop components to every schedule record, so a
  // schema-2 snapshot has none; schema 4 dropped the constant effort
  // limits from loopScheduleKey, so no schema-3 key can be hit. Both
  // are refused whole.
  ASSERT_EQ(CacheKeySchemaVersion, 4u);
  for (unsigned Old : {2u, 3u}) {
    std::string Bytes = SnapBytes;
    size_t Pos = Bytes.find("schema 4 ");
    ASSERT_NE(Pos, std::string::npos);
    Bytes.replace(Pos, 9, "schema " + std::to_string(Old) + " ");

    Session S{PipelineOptions(), 1};
    std::string Err;
    EXPECT_FALSE(loadInto(S, Bytes, "cp_schema_old.cache", &Err));
    EXPECT_NE(Err.find("key schema v" + std::to_string(Old) +
                       " does not match this build's v4; refusing to load"),
              std::string::npos)
        << Err;
    EXPECT_EQ(S.cachePersistLoadStats().loaded(), 0u);
  }
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

TEST_F(CachePersistFixture, HostileRationalIsQuarantined) {
  // A frame whose CRC matches but whose rational no writer emits (a
  // zero or INT64_MIN denominator): quarantine it, never import it or
  // abort on it. The feasible timing entry it replaces is recomputed.
  size_t Pos = 0, End = 0;
  std::vector<std::string> Tok;
  while ((Pos = SnapBytes.find("\nrec eval ", Pos)) != std::string::npos) {
    ++Pos;
    End = SnapBytes.find('\n', Pos);
    std::istringstream SS(SnapBytes.substr(Pos, End - Pos));
    Tok.assign(std::istream_iterator<std::string>(SS), {});
    // rec eval <crc> LoopFP NumFast RNum RDen FNum FDen Feasible N D ...
    if (Tok.size() > 11 && Tok[9] == "1")
      break;
  }
  ASSERT_NE(Pos, std::string::npos) << "no feasible timing record";

  for (const char *Den : {"0", "-9223372036854775808"}) {
    Tok[10] = "5";
    Tok[11] = Den;
    std::string Body;
    for (size_t I = 3; I < Tok.size(); ++I)
      Body += (I > 3 ? " " : "") + Tok[I];
    char Crc[16];
    std::snprintf(Crc, sizeof Crc, "%08x", recio::crc32(Body));
    std::string Hostile = SnapBytes;
    Hostile.replace(Pos, End - Pos,
                    "rec eval " + std::string(Crc) + " " + Body);

    Session S{PipelineOptions(), 1};
    std::string Err;
    ASSERT_TRUE(loadInto(S, Hostile, "cp_hostile.cache", &Err)) << Err;
    EXPECT_EQ(S.cachePersistLoadStats().CorruptFrames, 1u) << Den;
    EXPECT_EQ(S.cachePersistLoadStats().loaded(), Saved.saved() - 1) << Den;
    SuiteResult R = SuiteRunner(S).run(Programs);
    expectSameSuite(ColdResult, R);
  }
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

TEST(CachePersist, DuplicateFramesAreNotCountedAsLoaded) {
  // The whole suite's 200-record snapshot with one schedule frame
  // appended twice: the copies import nothing (first writer wins), so
  // the load reports 200 entries, quarantines nothing, and re-saves 200.
  Session Cold{PipelineOptions(), 1};
  SuiteRunner(Cold).run(buildSpecFPSuite());
  std::string Path = tempPath("cp_dup.cache"), Err;
  ASSERT_TRUE(Cold.saveCacheTo(Path, &Err)) << Err;
  ASSERT_EQ(Cold.cachePersistSaveStats().saved(), 200u);
  std::string Bytes = slurp(Path);
  size_t B = Bytes.find("\nrec sched ");
  ASSERT_NE(B, std::string::npos);
  std::string Line = Bytes.substr(B + 1, Bytes.find('\n', B + 1) - B);
  spit(Path, Bytes + Line + Line);

  Session Warm{PipelineOptions(), 1};
  ASSERT_TRUE(Warm.loadCacheFrom(Path, &Err)) << Err;
  EXPECT_EQ(Warm.cachePersistLoadStats().loaded(), 200u);
  EXPECT_EQ(Warm.cachePersistLoadStats().SchedLoaded,
            Cold.cachePersistSaveStats().SchedSaved);
  EXPECT_EQ(Warm.cachePersistLoadStats().CorruptFrames, 0u);
  ASSERT_TRUE(Warm.saveCacheTo(Path, &Err)) << Err;
  EXPECT_EQ(Warm.cachePersistSaveStats().saved(), 200u);
  EXPECT_EQ(slurp(Path), Bytes);
  std::remove(Path.c_str());
}

/// The decoder's shape checks, one entry at a time: a successful
/// schedule with bus copies from the fixture snapshot, saved alone
/// (after \p Mutate, and with \p EditBody applied to its record body
/// under a recomputed CRC) and loaded back.
class CacheShapeTest : public CachePersistFixture {
protected:
  static LoopScheduleResult Good;
  static uint64_t GoodKey;

  static void SetUpTestSuite() {
    CachePersistFixture::SetUpTestSuite();
    std::string Path = tempPath("cp_shape_src.cache");
    spit(Path, SnapBytes);
    Session Probe{PipelineOptions(), 1};
    ScheduleCache Sched;
    EvalCache Eval(Probe.machine(), Probe.menu());
    ASSERT_TRUE(loadCacheSnapshot(Path, Sched, Eval, Probe.cacheBinding()));
    std::remove(Path.c_str());
    bool Found = false;
    Sched.exportEntries([&](uint64_t Key, const LoopScheduleResult &R) {
      if (!Found && R.Success && R.PG.numCopies() > 0) {
        Good = R;
        GoodKey = Key;
        Found = true;
      }
    });
    ASSERT_TRUE(Found);
  }

  static CacheLoadStats
  roundTrip(const LoopScheduleResult &R,
            const std::function<std::string(std::string)> &EditBody = {}) {
    Session Probe{PipelineOptions(), 1};
    ScheduleCache Sched;
    EvalCache Eval(Probe.machine(), Probe.menu());
    Sched.importEntry(GoodKey, R);
    std::string Path = tempPath("cp_shape.cache"), Err;
    EXPECT_TRUE(writeCacheSnapshot(Path, Sched, Eval, Probe.cacheBinding(),
                                   nullptr, &Err))
        << Err;
    if (EditBody) {
      std::string Bytes = slurp(Path);
      size_t Rec = Bytes.find("rec sched ");
      size_t BodyAt = Rec + 19; // "rec sched " + 8 hex digits + ' '
      std::string Body =
          EditBody(Bytes.substr(BodyAt, Bytes.find('\n', Rec) - BodyAt));
      char Crc[16];
      std::snprintf(Crc, sizeof Crc, "%08x", recio::crc32(Body));
      spit(Path, Bytes.substr(0, Rec) + "rec sched " + Crc + " " + Body +
                     "\n");
    }
    ScheduleCache Back;
    EvalCache EvalBack(Probe.machine(), Probe.menu());
    CacheLoadStats Got;
    EXPECT_TRUE(loadCacheSnapshot(Path, Back, EvalBack, Probe.cacheBinding(),
                                  nullptr, &Got, &Err))
        << Err;
    std::remove(Path.c_str());
    return Got;
  }

  static void expectQuarantined(const LoopScheduleResult &R,
                                const std::string &What) {
    CacheLoadStats Got = roundTrip(R);
    EXPECT_EQ(Got.CorruptFrames, 1u) << What;
    EXPECT_EQ(Got.loaded(), 0u) << What;
  }

  /// \p R with its graph's nodes rewritten by \p Fn.
  static LoopScheduleResult
  withNodes(LoopScheduleResult R,
            const std::function<void(std::vector<PGNode> &)> &Fn) {
    std::vector<PGNode> Nodes;
    for (unsigned I = 0; I < R.PG.size(); ++I)
      Nodes.push_back(R.PG.node(I));
    Fn(Nodes);
    R.PG = PartitionedGraph::fromRaw(R.PG.numClusters(), std::move(Nodes),
                                     R.PG.edges());
    return R;
  }
};

LoopScheduleResult CacheShapeTest::Good;
uint64_t CacheShapeTest::GoodKey = 0;

TEST_F(CacheShapeTest, AnIntactEntryLoads) {
  CacheLoadStats Got = roundTrip(Good);
  EXPECT_EQ(Got.SchedLoaded, 1u);
  EXPECT_EQ(Got.CorruptFrames, 0u);
  EXPECT_GT(Good.Components.size(), 0u);
}

TEST_F(CacheShapeTest, NarrowedFieldsOutOfRangeQuarantine) {
  // Each field is written as a marker value, which the body edit then
  // pushes one past what its type holds.
  struct Case {
    const char *What;
    std::function<void(LoopScheduleResult &)> Mark;
    std::string Marker, Overflow;
  };
  const std::vector<Case> Cases = {
      {"unit 4294967296",
       [](LoopScheduleResult &R) { R.Sched.Nodes[0].Unit = 3000000001u; },
       "3000000001", "4294967296"},
      {"IT steps 4294967296",
       [](LoopScheduleResult &R) { R.ITSteps = 3000000002u; },
       "3000000002", "4294967296"},
      {"component op count 4294967296",
       [](LoopScheduleResult &R) { R.Components[0].FUCounts[0] = 3000000003u; },
       "3000000003", "4294967296"},
  };
  for (const Case &C : Cases) {
    LoopScheduleResult R = Good;
    C.Mark(R);
    CacheLoadStats Got = roundTrip(R, [&](std::string Body) {
      size_t At = Body.find(" " + C.Marker + " ");
      EXPECT_NE(At, std::string::npos) << C.What;
      return Body.replace(At + 1, C.Marker.size(), C.Overflow);
    });
    EXPECT_EQ(Got.CorruptFrames, 1u) << C.What;
    EXPECT_EQ(Got.loaded(), 0u) << C.What;
  }
}

TEST_F(CacheShapeTest, BrokenShapesQuarantine) {
  const unsigned NC = Good.PG.numClusters();
  ASSERT_GT(NC, 1u);
  const unsigned FirstCopy = Good.Assignment.size();
  ASSERT_LT(FirstCopy, Good.PG.size());
  using Mutation = std::function<void(LoopScheduleResult &)>;
  const std::vector<std::pair<const char *, Mutation>> Cases = {
      {"node domain past the bus",
       [&](LoopScheduleResult &R) {
         R = withNodes(R, [&](auto &N) { N[0].Domain = NC + 1; });
       }},
      {"op outside its assigned cluster",
       [&](LoopScheduleResult &R) {
         R = withNodes(R,
                       [&](auto &N) { N[0].Domain = (N[0].Domain + 1) % NC; });
       }},
      {"copy off the bus",
       [&](LoopScheduleResult &R) {
         R = withNodes(R, [&](auto &N) { N[FirstCopy].Domain = 0; });
       }},
      {"op with another op's id",
       [&](LoopScheduleResult &R) {
         R = withNodes(R, [&](auto &N) { N[0].OrigOp = 1; });
       }},
      {"assignment at the cluster count",
       [&](LoopScheduleResult &R) { R.Assignment.ClusterOf[0] = NC; }},
      {"op assigned to the bus",
       [&](LoopScheduleResult &R) {
         R.Assignment.ClusterOf[0] = NC;
         R = withNodes(R, [&](auto &N) { N[0].Domain = NC; });
       }},
      {"assignment longer than the graph",
       [&](LoopScheduleResult &R) {
         R.Assignment.ClusterOf.resize(R.PG.size() + 1, 0);
       }},
      {"one scheduled node short",
       [&](LoopScheduleResult &R) { R.Sched.Nodes.pop_back(); }},
      {"one cluster plan short",
       [&](LoopScheduleResult &R) { R.Sched.Plan.Clusters.pop_back(); }},
      {"bus period zero",
       [&](LoopScheduleResult &R) { R.Sched.Plan.Bus.PeriodNs = Rational(0); }},
      {"cluster II zero",
       [&](LoopScheduleResult &R) { R.Sched.Plan.Clusters[0].II = 0; }},
      {"unplaced node",
       [&](LoopScheduleResult &R) { R.Sched.Nodes[0].Placed = false; }},
      {"negative slot",
       [&](LoopScheduleResult &R) { R.Sched.Nodes[0].Slot = -1; }},
      {"pressure row short",
       [&](LoopScheduleResult &R) { R.Pressure.MaxLive.pop_back(); }},
      {"component recMII above the loop's",
       [&](LoopScheduleResult &R) {
         R.Components[0].RecMII = R.RecMII + 1;
       }},
      {"no component carries the loop's recMII",
       [&](LoopScheduleResult &R) {
         R.RecMII += 1;
       }},
      {"component op counts off by one",
       [&](LoopScheduleResult &R) { ++R.Components[0].FUCounts[0]; }},
      {"no components",
       [&](LoopScheduleResult &R) { R.Components.clear(); }},
      {"a consistent entry of one cluster more than the machine",
       [&](LoopScheduleResult &R) {
         // Graph, plans, pressure rows and assignment all agree on
         // NC + 1 clusters; op 0 sits in cluster NC, past the machine.
         std::vector<PGNode> Nodes;
         for (unsigned I = 0; I < R.PG.size(); ++I)
           Nodes.push_back(R.PG.node(I));
         Nodes[0].Domain = NC;
         for (unsigned I = FirstCopy; I < Nodes.size(); ++I)
           Nodes[I].Domain = NC + 1;
         R.PG = PartitionedGraph::fromRaw(NC + 1, std::move(Nodes),
                                          R.PG.edges());
         R.Assignment.ClusterOf[0] = NC;
         R.Sched.Plan.Clusters.push_back(R.Sched.Plan.Clusters.back());
         R.Pressure.MaxLive.push_back(0);
         R.Pressure.SumLifetimes.push_back(0);
       }},
  };
  for (const auto &[What, Mutate] : Cases) {
    LoopScheduleResult R = Good;
    Mutate(R);
    expectQuarantined(R, What);
  }

  // A failed run has no schedule to check, but it still carries its
  // loop's components.
  LoopScheduleResult Failed;
  Failed.Failure = "no feasible partition";
  Failed.Components = Good.Components;
  Failed.RecMII = Good.RecMII;
  EXPECT_EQ(roundTrip(Failed).SchedLoaded, 1u);
  Failed.Components[0].RecMII = -1;
  expectQuarantined(Failed, "failed run with a negative component recMII");
}

// --- hostile input -----------------------------------------------------------

/// One seeded mutation of a record body: a bit flip, a token deleted or
/// duplicated, a digit changed, a token replaced by a boundary value, or
/// a truncation. Never a '\n', which would split the frame in two.
std::string mutateBody(const std::string &Body, RNG &R) {
  std::string Out = Body;
  auto at = [&](size_t N) { return static_cast<size_t>(R.nextInt(0, N - 1)); };
  std::vector<std::string> Tok;
  for (size_t B = 0, E; B <= Out.size(); B = E + 1) {
    E = std::min(Out.find(' ', B), Out.size());
    Tok.push_back(Out.substr(B, E - B));
  }
  auto join = [&] {
    std::string J;
    for (size_t I = 0; I < Tok.size(); ++I)
      J += (I ? " " : "") + Tok[I];
    return J;
  };
  switch (R.nextInt(0, 5)) {
  case 0: { // flip one bit of one byte
    char &C = Out[at(Out.size())];
    char Flipped = static_cast<char>(C ^ (1 << R.nextInt(0, 7)));
    C = Flipped == '\n' ? '\v' : Flipped;
    return Out;
  }
  case 1: // delete a token
    Tok.erase(Tok.begin() + static_cast<std::ptrdiff_t>(at(Tok.size())));
    return join();
  case 2: { // duplicate a token
    size_t I = at(Tok.size());
    Tok.insert(Tok.begin() + static_cast<std::ptrdiff_t>(I), Tok[I]);
    return join();
  }
  case 3: { // change one digit
    std::vector<size_t> Digits;
    for (size_t I = 0; I < Out.size(); ++I)
      if (Out[I] >= '0' && Out[I] <= '9')
        Digits.push_back(I);
    if (!Digits.empty())
      Out[R.pick(Digits)] = static_cast<char>('0' + R.nextInt(0, 9));
    return Out;
  }
  case 4: { // a boundary value where a well-formed token was
    static const std::vector<std::string> Edge = {
        "0",
        "-1",
        "-9223372036854775808",
        "9223372036854775808",
        "18446744073709551616",
        "4294967296",
        std::to_string(PipelineOptions().NumClusters + 1),
        "0x1p+1024",
        "nan"};
    Tok[at(Tok.size())] = R.pick(Edge);
    return join();
  }
  default: // truncate
    return Out.substr(0, at(Out.size()));
  }
}

/// The decoder's checks, restated over what a load imported: every
/// rational normalized with a positive denominator, every enum and edge
/// endpoint in range.
void expectImportedEntriesValid(const ScheduleCache &Sched,
                                const EvalCache &Eval) {
  auto ratOk = [](const Rational &R) {
    return R.den() > 0 && R.num() != INT64_MIN;
  };
  auto planOk = [&](const DomainPlan &D) {
    return ratOk(D.FreqGHz) && ratOk(D.PeriodNs);
  };
  Sched.exportEntries([&](uint64_t Key, const LoopScheduleResult &R) {
    const MachinePlan &P = R.Sched.Plan;
    bool Ok = ratOk(P.ITNs) && planOk(P.Bus) && planOk(P.Cache) &&
              ratOk(R.MITNs);
    for (const DomainPlan &D : P.Clusters)
      Ok = Ok && planOk(D);
    for (const ITFailure &F : R.FailureLog)
      Ok = Ok && ratOk(F.ITNs);
    for (unsigned I = 0; I < R.PG.size(); ++I)
      Ok = Ok && R.PG.node(I).Op <= Opcode::Copy &&
           R.PG.node(I).Kind <= FUKind::Bus;
    for (const PGEdge &E : R.PG.edges())
      Ok = Ok && E.Src < R.PG.size() && E.Dst < R.PG.size();
    EXPECT_TRUE(Ok) << "schedule entry " << Key;
  });
  Eval.exportTimings([&](const EvalCache::TimingRecord &T) {
    EXPECT_TRUE(ratOk(T.ITNorm)) << "timing entry " << T.LoopFP;
  });
  Eval.exportSelections([&](uint64_t Key, const SelectedDesign &D) {
    bool Ok = ratOk(D.Config.Icn.PeriodNs) && ratOk(D.Config.Cache.PeriodNs);
    for (const DomainOperatingPoint &P : D.Config.Clusters)
      Ok = Ok && ratOk(P.PeriodNs);
    EXPECT_TRUE(Ok) << "selection entry " << Key;
  });
}

TEST_F(CachePersistFixture, MutatedFramesRefuseOrQuarantine) {
  // Split the fixture snapshot into its three header lines and frames.
  std::vector<std::string> Lines;
  for (size_t B = 0, E; B < SnapBytes.size(); B = E + 1) {
    E = SnapBytes.find('\n', B);
    ASSERT_NE(E, std::string::npos);
    Lines.push_back(SnapBytes.substr(B, E - B));
  }
  ASSERT_EQ(Lines.size(), 3 + Saved.saved());

  Session Probe{PipelineOptions(), 1};
  const uint64_t Binding = Probe.cacheBinding();
  const std::string Path = tempPath("cp_mutated.cache");
  const std::string Resave = tempPath("cp_mutated_resave.cache");
  RNG R(0x5eed2023);
  unsigned Quarantined = 0, Imported = 0;
  for (unsigned Iter = 0; Iter < 2000; ++Iter) {
    // Re-frame one mutated body under its own CRC, so the CRC passes
    // and the body decoder is what has to refuse it.
    size_t F = 3 + static_cast<size_t>(R.nextInt(0, Saved.saved() - 1));
    size_t KindEnd = Lines[F].find(' ', 4);
    size_t CrcEnd = Lines[F].find(' ', KindEnd + 1);
    std::string Body = mutateBody(Lines[F].substr(CrcEnd + 1), R);
    char Crc[16];
    std::snprintf(Crc, sizeof Crc, "%08x", recio::crc32(Body));
    std::string Bytes;
    for (size_t I = 0; I < Lines.size(); ++I)
      Bytes += (I == F ? Lines[F].substr(0, KindEnd + 1) + Crc + " " + Body
                       : Lines[I]) +
               "\n";
    spit(Path, Bytes);

    SCOPED_TRACE("iteration " + std::to_string(Iter) + ", frame " +
                 std::to_string(F) + ": " + Body);
    ScheduleCache Sched;
    EvalCache Eval(Probe.machine(), Probe.menu());
    CacheLoadStats Got;
    std::string Err;
    bool Ok = false;
    EXPECT_NO_THROW(Ok = loadCacheSnapshot(Path, Sched, Eval, Binding,
                                           nullptr, &Got, &Err));
    if (!Ok)
      continue; // refusing the whole file is also safe
    EXPECT_EQ(Got.loaded() + Got.CorruptFrames, Saved.saved());
    EXPECT_LE(Got.CorruptFrames, 1u);
    if (Got.CorruptFrames) {
      ++Quarantined;
      continue;
    }
    // The mutated body decoded: what it imported passed every check,
    // and it saves and loads back with no frame quarantined.
    ++Imported;
    expectImportedEntriesValid(Sched, Eval);
    CacheSaveStats Again;
    ASSERT_TRUE(writeCacheSnapshot(Resave, Sched, Eval, Binding, &Again,
                                   &Err))
        << Err;
    ScheduleCache Sched2;
    EvalCache Eval2(Probe.machine(), Probe.menu());
    CacheLoadStats Back;
    ASSERT_TRUE(loadCacheSnapshot(Resave, Sched2, Eval2, Binding, nullptr,
                                  &Back, &Err))
        << Err;
    EXPECT_EQ(Back.CorruptFrames, 0u);
    EXPECT_EQ(Back.loaded(), Again.saved());
  }
  std::remove(Path.c_str());
  std::remove(Resave.c_str());
  // Both outcomes occur, so the decoder's refusals were exercised.
  EXPECT_GT(Quarantined, 0u);
  EXPECT_GT(Imported, 0u);
}

} // namespace
