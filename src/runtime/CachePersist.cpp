//===- runtime/CachePersist.cpp - Persistent schedule/eval caches -----------===//

#include "runtime/CachePersist.h"

#include "obs/BuildInfo.h"
#include "support/HashUtil.h"
#include "support/RecordIO.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <memory>
#include <string_view>

using namespace hcvliw;
using recio::Sink;
using recio::Source;

namespace {

constexpr const char *SnapshotMagic = "hcvliw-cache-snapshot v1";

/// "rec <kind> <crc> <body>" framing. Kind tags are stable format
/// vocabulary, not C++ identifiers.
constexpr const char *KindSched = "sched";
constexpr const char *KindEval = "eval";
constexpr const char *KindSel = "sel";

//===----------------------------------------------------------------------===//
// Record-body serializers: each put has a positionally mirrored get over
// the support/RecordIO codec, so a value round-trips bit-exactly. A get
// on malformed input latches Source::bad() and returns a default-shaped
// value; callers check bad()/done() before trusting it.
//===----------------------------------------------------------------------===//

void putOpPoint(Sink &S, const DomainOperatingPoint &P) {
  S.rat(P.PeriodNs);
  S.d(P.Vdd);
  S.d(P.Vth);
}
DomainOperatingPoint getOpPoint(Source &S) {
  DomainOperatingPoint P;
  P.PeriodNs = S.rat();
  P.Vdd = S.d();
  P.Vth = S.d();
  return P;
}

void putDesign(Sink &S, const SelectedDesign &D) {
  S.b(D.Valid);
  S.d(D.EstTexecNs);
  S.d(D.EstEnergy);
  S.d(D.EstED2);
  S.u64(D.Config.Clusters.size());
  for (const DomainOperatingPoint &P : D.Config.Clusters)
    putOpPoint(S, P);
  putOpPoint(S, D.Config.Icn);
  putOpPoint(S, D.Config.Cache);
  S.u64(D.Scaling.Clusters.size());
  for (const DomainScaling &Sc : D.Scaling.Clusters) {
    S.d(Sc.Delta);
    S.d(Sc.Sigma);
  }
  S.d(D.Scaling.Icn.Delta);
  S.d(D.Scaling.Icn.Sigma);
  S.d(D.Scaling.Cache.Delta);
  S.d(D.Scaling.Cache.Sigma);
}
SelectedDesign getDesign(Source &S) {
  SelectedDesign D;
  D.Valid = S.b();
  D.EstTexecNs = S.d();
  D.EstEnergy = S.d();
  D.EstED2 = S.d();
  D.Config.Clusters.resize(S.bad() ? 0
                                   : std::min<uint64_t>(S.u64(), 1u << 20));
  for (DomainOperatingPoint &P : D.Config.Clusters)
    P = getOpPoint(S);
  D.Config.Icn = getOpPoint(S);
  D.Config.Cache = getOpPoint(S);
  D.Scaling.Clusters.resize(S.bad() ? 0
                                    : std::min<uint64_t>(S.u64(), 1u << 20));
  for (DomainScaling &Sc : D.Scaling.Clusters) {
    Sc.Delta = S.d();
    Sc.Sigma = S.d();
  }
  D.Scaling.Icn.Delta = S.d();
  D.Scaling.Icn.Sigma = S.d();
  D.Scaling.Cache.Delta = S.d();
  D.Scaling.Cache.Sigma = S.d();
  return D;
}

void putDomainPlan(Sink &S, const DomainPlan &D) {
  S.i64(D.II);
  S.rat(D.FreqGHz);
  S.rat(D.PeriodNs);
}
DomainPlan getDomainPlan(Source &S) {
  DomainPlan D;
  D.II = S.i64();
  D.FreqGHz = S.rat();
  D.PeriodNs = S.rat();
  return D;
}

/// Reads a u64 and rejects values above \p Max: enum range checks and
/// every field narrower than 64 bits (the CRC already guards against
/// corruption, this guards against skew and crafted frames).
uint64_t getBounded(Source &S, uint64_t Max) {
  uint64_t V = S.u64();
  if (V > Max) {
    S.markBad();
    return 0;
  }
  return V;
}

/// An unsigned field: any value a 32-bit unsigned holds.
unsigned getU32(Source &S) {
  return static_cast<unsigned>(getBounded(S, UINT32_MAX));
}

/// An int field that is a node id or -1 (PGNode::OrigOp / CopiedValue).
int getNodeOrNone(Source &S) {
  int64_t V = S.i64();
  if (V < -1 || V > INT32_MAX) {
    S.markBad();
    return -1;
  }
  return static_cast<int>(V);
}

void putMachinePlan(Sink &S, const MachinePlan &P) {
  S.rat(P.ITNs);
  S.u64(P.Clusters.size());
  for (const DomainPlan &D : P.Clusters)
    putDomainPlan(S, D);
  putDomainPlan(S, P.Bus);
  putDomainPlan(S, P.Cache);
}
MachinePlan getMachinePlan(Source &S) {
  MachinePlan P;
  P.ITNs = S.rat();
  P.Clusters.resize(S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 20));
  for (DomainPlan &D : P.Clusters)
    D = getDomainPlan(S);
  P.Bus = getDomainPlan(S);
  P.Cache = getDomainPlan(S);
  return P;
}

void putSchedule(Sink &S, const Schedule &Sch) {
  putMachinePlan(S, Sch.Plan);
  S.u64(Sch.Nodes.size());
  for (const ScheduledNode &N : Sch.Nodes) {
    S.b(N.Placed);
    S.i64(N.Slot);
    S.u64(N.Unit);
  }
}
Schedule getSchedule(Source &S) {
  Schedule Sch;
  Sch.Plan = getMachinePlan(S);
  Sch.Nodes.resize(S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 22));
  for (ScheduledNode &N : Sch.Nodes) {
    N.Placed = S.b();
    N.Slot = S.i64();
    N.Unit = getU32(S);
  }
  return Sch;
}

void putPartitionedGraph(Sink &S, const PartitionedGraph &PG) {
  S.u64(PG.numClusters());
  S.u64(PG.size());
  for (unsigned I = 0; I < PG.size(); ++I) {
    const PGNode &N = PG.node(I);
    S.u64(N.Domain);
    S.u64(static_cast<uint64_t>(N.Op));
    S.u64(N.LatencyCycles);
    S.u64(static_cast<uint64_t>(N.Kind));
    S.i64(N.OrigOp);
    S.i64(N.CopiedValue);
  }
  S.u64(PG.edges().size());
  for (const PGEdge &E : PG.edges()) {
    S.u64(E.Src);
    S.u64(E.Dst);
    S.u64(E.Distance);
    S.u64(E.LatencyCycles);
    S.b(E.CarriesValue);
  }
}
PartitionedGraph getPartitionedGraph(Source &S) {
  unsigned NumClusters = getU32(S);
  std::vector<PGNode> Nodes(S.bad() ? 0
                                    : std::min<uint64_t>(S.u64(), 1u << 22));
  for (PGNode &N : Nodes) {
    N.Domain = static_cast<unsigned>(getBounded(S, NumClusters)); // bus
    N.Op = static_cast<Opcode>(
        getBounded(S, static_cast<uint64_t>(Opcode::Copy)));
    N.LatencyCycles = getU32(S);
    N.Kind =
        static_cast<FUKind>(getBounded(S, static_cast<uint64_t>(FUKind::Bus)));
    N.OrigOp = getNodeOrNone(S);
    N.CopiedValue = getNodeOrNone(S);
  }
  std::vector<PGEdge> Edges(S.bad() ? 0
                                    : std::min<uint64_t>(S.u64(), 1u << 22));
  const uint64_t MaxNode = Nodes.empty() ? 0 : Nodes.size() - 1;
  for (PGEdge &E : Edges) {
    E.Src = static_cast<unsigned>(getBounded(S, MaxNode));
    E.Dst = static_cast<unsigned>(getBounded(S, MaxNode));
    E.Distance = getU32(S);
    E.LatencyCycles = getU32(S);
    E.CarriesValue = S.b();
  }
  if (S.bad())
    return PartitionedGraph();
  return PartitionedGraph::fromRaw(NumClusters, std::move(Nodes),
                                   std::move(Edges));
}

void putLoopScheduleResult(Sink &S, const LoopScheduleResult &R) {
  S.b(R.Success);
  S.str(R.Failure);
  putSchedule(S, R.Sched);
  putPartitionedGraph(S, R.PG);
  S.u64(R.Assignment.ClusterOf.size());
  for (unsigned C : R.Assignment.ClusterOf)
    S.u64(C);
  S.u64(R.Pressure.MaxLive.size());
  for (int64_t V : R.Pressure.MaxLive)
    S.i64(V);
  S.u64(R.Pressure.SumLifetimes.size());
  for (int64_t V : R.Pressure.SumLifetimes)
    S.i64(V);
  S.rat(R.MITNs);
  S.u64(R.ITSteps);
  S.u64(R.Placements);
  S.u64(R.Ejections);
  S.u64(R.BudgetUsed);
  S.u64(R.FallbackRational);
  S.u64(R.FailureLog.size());
  for (const ITFailure &F : R.FailureLog) {
    S.u64(F.Step);
    S.rat(F.ITNs);
    S.str(F.Reason);
    S.u64(F.Count);
  }
  S.u64(R.PartStats.Runs);
  S.u64(R.PartStats.CoarsenBuilds);
  S.u64(R.PartStats.CoarsenMemoHits);
  S.u64(R.PartStats.Levels);
  S.u64(R.PartStats.MatchedPairs);
  S.u64(R.PartStats.RefinePasses);
  S.u64(R.PartStats.RefineMoves);
  S.u64(R.PartStats.FMPasses);
  S.u64(R.PartStats.FMMoves);
  S.u64(R.PartStats.FlatFallbacks);
  S.d(R.PartStats.InitialScore);
  S.d(R.PartStats.FinalScore);
  S.i64(R.RecMII);
  S.i64(R.ResMII);
  S.u64(R.Components.size());
  for (const LoopComponent &C : R.Components) {
    for (unsigned K : C.FUCounts)
      S.u64(K);
    S.i64(C.RecMII);
  }
}
LoopScheduleResult getLoopScheduleResult(Source &S) {
  LoopScheduleResult R;
  R.Success = S.b();
  R.Failure = S.str();
  R.Sched = getSchedule(S);
  R.PG = getPartitionedGraph(S);
  R.Assignment.ClusterOf.resize(S.bad() ? 0
                                        : std::min<uint64_t>(S.u64(),
                                                             1u << 22));
  for (unsigned &C : R.Assignment.ClusterOf)
    C = getU32(S);
  R.Pressure.MaxLive.resize(S.bad() ? 0
                                    : std::min<uint64_t>(S.u64(), 1u << 20));
  for (int64_t &V : R.Pressure.MaxLive)
    V = S.i64();
  R.Pressure.SumLifetimes.resize(
      S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 20));
  for (int64_t &V : R.Pressure.SumLifetimes)
    V = S.i64();
  R.MITNs = S.rat();
  R.ITSteps = getU32(S);
  R.Placements = S.u64();
  R.Ejections = S.u64();
  R.BudgetUsed = S.u64();
  R.FallbackRational = getU32(S);
  R.FailureLog.resize(S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 20));
  for (ITFailure &F : R.FailureLog) {
    F.Step = getU32(S);
    F.ITNs = S.rat();
    F.Reason = S.str();
    F.Count = getU32(S);
  }
  R.PartStats.Runs = S.u64();
  R.PartStats.CoarsenBuilds = S.u64();
  R.PartStats.CoarsenMemoHits = S.u64();
  R.PartStats.Levels = S.u64();
  R.PartStats.MatchedPairs = S.u64();
  R.PartStats.RefinePasses = S.u64();
  R.PartStats.RefineMoves = S.u64();
  R.PartStats.FMPasses = S.u64();
  R.PartStats.FMMoves = S.u64();
  R.PartStats.FlatFallbacks = S.u64();
  R.PartStats.InitialScore = S.d();
  R.PartStats.FinalScore = S.d();
  R.RecMII = S.i64();
  R.ResMII = S.i64();
  // Grown one record at a time, so a crafted count allocates no more
  // than the body holds.
  const uint64_t NumComponents = getBounded(S, 1u << 22);
  for (uint64_t I = 0; I < NumComponents && !S.bad(); ++I) {
    LoopComponent &C = R.Components.emplace_back();
    for (unsigned &K : C.FUCounts)
      K = getU32(S);
    C.RecMII = S.i64();
  }
  return R;
}

/// The shape every result of LoopScheduler::schedule on a machine of
/// \p NumClusters clusters has (listed in CachePersist.h), which the
/// warm hit path indexes by without checking: Schedule::periodOf and
/// itLengthNs by node domain, measure() by cluster assignment into a
/// row per machine cluster. A decoded entry that breaks it is
/// quarantined like a corrupt frame.
bool hasResultShape(const LoopScheduleResult &R, unsigned NumClusters) {
  int64_t MaxRec = 0;
  uint64_t Ops = 0;
  for (const LoopComponent &C : R.Components) {
    if (C.RecMII < 0)
      return false;
    MaxRec = std::max(MaxRec, C.RecMII);
    for (unsigned K : C.FUCounts)
      Ops += K;
  }
  if (MaxRec != R.RecMII)
    return false;
  if (!R.Success)
    return true;

  const MachinePlan &Plan = R.Sched.Plan;
  const PartitionedGraph &PG = R.PG;
  const unsigned NC = PG.numClusters();
  auto planOk = [](const DomainPlan &D) {
    return D.II >= 1 && D.PeriodNs.isPositive();
  };
  if (NC != NumClusters || Plan.Clusters.size() != NC || !planOk(Plan.Bus) ||
      !std::all_of(Plan.Clusters.begin(), Plan.Clusters.end(), planOk))
    return false;
  if (R.Sched.Nodes.size() != PG.size() ||
      R.Assignment.ClusterOf.size() > PG.size() ||
      Ops != R.Assignment.ClusterOf.size() ||
      R.Pressure.MaxLive.size() != NC ||
      R.Pressure.SumLifetimes.size() != NC)
    return false;
  for (unsigned I = 0; I < PG.size(); ++I) {
    const ScheduledNode &SN = R.Sched.Nodes[I];
    if (!SN.Placed || SN.Slot < 0)
      return false;
    const PGNode &N = PG.node(I);
    if (I >= R.Assignment.size()) { // a copy
      if (N.OrigOp != -1 || N.Domain != PG.busDomain())
        return false;
      continue;
    }
    unsigned Cluster = R.Assignment.ClusterOf[I];
    if (Cluster >= NC || N.Domain != Cluster ||
        N.OrigOp != static_cast<int>(I))
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Snapshot framing: the header lines and one "rec" line per entry.
//===----------------------------------------------------------------------===//

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Appends the frame "rec <kind> <crc> <body>\n" to \p Out.
void putRecord(std::string &Out, const char *Kind, std::string_view Body) {
  char Crc[9];
  std::snprintf(Crc, sizeof Crc, "%08x", recio::crc32(Body));
  Out += "rec ";
  Out += Kind;
  Out += ' ';
  Out.append(Crc, 8);
  Out += ' ';
  Out += Body;
  Out += '\n';
}

/// One "eval" body: the TimingRecord, key fields first.
void putEvalBody(Sink &S, const EvalCache::TimingRecord &R) {
  S.u64(R.LoopFP);
  S.u64(R.NumFast);
  S.i64(R.RatioNum);
  S.i64(R.RatioDen);
  S.i64(R.FastNum);
  S.i64(R.FastDen);
  S.b(R.Feasible);
  S.rat(R.ITNorm);
  S.u64(R.ClusterShare.size());
  for (double V : R.ClusterShare)
    S.d(V);
}

bool parseEvalBody(std::string_view Body, EvalCache::TimingRecord &R) {
  Source S(Body);
  R.LoopFP = S.u64();
  R.NumFast = getU32(S);
  R.RatioNum = S.i64();
  R.RatioDen = S.i64();
  R.FastNum = S.i64();
  R.FastDen = S.i64();
  R.Feasible = S.b();
  R.ITNorm = S.rat();
  uint64_t N = S.u64();
  if (S.bad() || N > (1u << 20))
    return false;
  R.ClusterShare.resize(N);
  for (uint64_t I = 0; I < N; ++I)
    R.ClusterShare[I] = S.d();
  return S.done();
}

/// The header fields a load checks against the session.
struct Header {
  uint64_t Schema = 0;
  uint64_t Binding = 0;
};

/// Reads and validates the three header lines. False (with \p Err) on
/// a missing or malformed line; the caller checks the values.
bool readHeader(recio::LineReader &In, const std::string &Path, Header &H,
                std::string *Err) {
  auto fail = [&](const std::string &What) {
    if (Err)
      *Err = "cache snapshot " + Path + ": " + What;
    return false;
  };
  std::string_view Line;
  if (!In.next(Line))
    return fail("empty file");
  if (Line != SnapshotMagic)
    return fail("not a cache snapshot (bad magic/version: \"" +
                std::string(Line) + "\")");
  if (!In.next(Line))
    return fail("truncated header");
  {
    Source S(Line);
    if (S.word() != "schema")
      S.markBad();
    H.Schema = S.u64();
    if (S.word() != "binding")
      S.markBad();
    H.Binding = S.hex64();
    if (!S.done())
      return fail("malformed schema line: \"" + std::string(Line) + "\"");
  }
  if (!In.next(Line) || Line.substr(0, 6) != "build ")
    return fail("missing build line");
  // The build sha is provenance only; no check (see header comment).
  return true;
}

void writeHeader(std::string &Out, uint64_t Binding) {
  Out += SnapshotMagic;
  Out += "\nschema " + std::to_string(CacheKeySchemaVersion) + " binding " +
         hex(Binding) + "\nbuild " + obs::buildInfo().GitSha + "\n";
}

/// Splits one "rec <kind> <crc> <body>" line into views of it. False
/// when the frame is malformed or the CRC mismatches — the caller
/// quarantines it.
bool splitRecord(std::string_view Line, std::string_view &Kind,
                 std::string_view &Body) {
  if (Line.substr(0, 4) != "rec ")
    return false;
  size_t KindEnd = Line.find(' ', 4);
  if (KindEnd == std::string_view::npos)
    return false;
  size_t CrcEnd = Line.find(' ', KindEnd + 1);
  if (CrcEnd == std::string_view::npos)
    return false;
  Kind = Line.substr(4, KindEnd - 4);
  const char *CrcBegin = Line.data() + KindEnd + 1;
  const char *CrcStop = Line.data() + CrcEnd;
  uint32_t Crc = 0;
  auto [Ptr, Ec] = std::from_chars(CrcBegin, CrcStop, Crc, 16);
  if (Ec != std::errc() || Ptr != CrcStop || CrcStop - CrcBegin != 8)
    return false;
  Body = Line.substr(CrcEnd + 1);
  return recio::crc32(Body) == Crc;
}

struct FileCloser {
  void operator()(std::FILE *F) const { std::fclose(F); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

uint64_t hcvliw::cacheBindingFingerprint(const MachineDescription &M,
                                         const FrequencyMenu &Menu) {
  FnvHasher H;
  H.mix(CacheKeySchemaVersion);
  H.mix(M.numClusters());
  H.mix(M.Buses);
  H.mix(M.BusLatency);
  H.mixRational(M.RefPeriodNs);
  for (const ClusterConfig &C : M.Clusters) {
    H.mix(C.IntFUs);
    H.mix(C.FpFUs);
    H.mix(C.MemPorts);
    H.mix(C.Registers);
  }
  H.mix(Menu.isContinuous() ? 1u : 2u);
  H.mixVector(Menu.frequencies());
  H.mixVector(Menu.ratios());
  return H.digest();
}

bool hcvliw::writeCacheSnapshot(const std::string &Path,
                                const ScheduleCache &Sched,
                                const EvalCache &Eval, uint64_t Binding,
                                CacheSaveStats *Stats, std::string *Err) {
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    if (Err)
      *Err = "cannot open " + Tmp + " for writing";
    return false;
  }
  // Frames collect in one bounded buffer that is written a block at a
  // time, with no stdio buffer under it: a few fwrites per snapshot, and
  // memory that does not grow with the file.
  std::setvbuf(F, nullptr, _IONBF, 0);
  constexpr size_t FlushBytes = 16 * 1024;
  std::string Out;
  bool Ok = true;
  auto flush = [&] {
    Ok = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size() && Ok;
    Out.clear();
  };
  Sink S;
  auto frame = [&](const char *Kind) {
    putRecord(Out, Kind, S.line());
    if (Out.size() >= FlushBytes)
      flush();
    S.clear();
  };

  CacheSaveStats Local;
  writeHeader(Out, Binding);
  // Canonical record order: sched, eval, sel; within a kind, keys
  // sorted — so equal cache contents produce byte-identical snapshots.
  Sched.exportEntries([&](uint64_t Key, const LoopScheduleResult &R) {
    S.u64(Key);
    putLoopScheduleResult(S, R);
    frame(KindSched);
    ++Local.SchedSaved;
  });
  Eval.exportTimings([&](const EvalCache::TimingRecord &R) {
    putEvalBody(S, R);
    frame(KindEval);
    ++Local.EvalSaved;
  });
  Eval.exportSelections([&](uint64_t Key, const SelectedDesign &D) {
    S.u64(Key);
    putDesign(S, D);
    frame(KindSel);
    ++Local.SelSaved;
  });
  flush();
  Ok = std::fclose(F) == 0 && Ok;
  if (Ok)
    Ok = std::rename(Tmp.c_str(), Path.c_str()) == 0;
  if (!Ok) {
    std::remove(Tmp.c_str());
    if (Err)
      *Err = "failed writing cache snapshot " + Path;
    return false;
  }
  if (Stats)
    *Stats = Local;
  return true;
}

bool hcvliw::loadCacheSnapshot(const std::string &Path, ScheduleCache &Sched,
                               EvalCache &Eval, uint64_t Binding,
                               fault::FaultInjector *Inj,
                               CacheLoadStats *Stats, std::string *Err) {
  FilePtr File(std::fopen(Path.c_str(), "rb"));
  if (!File) {
    if (Err)
      *Err = "cannot open cache snapshot " + Path;
    return false;
  }
  // LineReader reads whole blocks into its own buffer; a stdio buffer
  // under it would only add a copy.
  std::setvbuf(File.get(), nullptr, _IONBF, 0);
  recio::LineReader In(File.get());
  Header H;
  if (!readHeader(In, Path, H, Err))
    return false;
  auto refuse = [&](const std::string &What) {
    if (Err)
      *Err = "cache snapshot " + Path + ": " + What;
    return false;
  };
  if (H.Schema != CacheKeySchemaVersion)
    return refuse("key schema v" + std::to_string(H.Schema) +
                  " does not match this build's v" +
                  std::to_string(CacheKeySchemaVersion) +
                  "; refusing to load");
  if (H.Binding != Binding)
    return refuse("bound to a different (machine, menu) configuration "
                  "(binding " +
                  hex(H.Binding) + " != " + hex(Binding) +
                  "); refusing to load");

  CacheLoadStats Local;
  std::string_view Line, Kind, Body;
  while (In.next(Line)) {
    if (Line.empty())
      continue;
    // One deterministic quarantine decision per frame: a real
    // corruption (CRC/parse failure) or an injected one (the chaos
    // suite drives the quarantine path through this site).
    bool Corrupt = !splitRecord(Line, Kind, Body);
    if (HCVLIW_FAULT_DEGRADE(Inj, "cache.load", Path))
      Corrupt = true;
    if (!Corrupt) {
      if (Kind == KindSched) {
        Source S(Body);
        uint64_t Key = S.u64();
        LoopScheduleResult R = getLoopScheduleResult(S);
        if (S.done() && hasResultShape(R, Eval.machine().numClusters())) {
          if (Sched.importEntry(Key, std::move(R)))
            ++Local.SchedLoaded;
        } else {
          Corrupt = true;
        }
      } else if (Kind == KindEval) {
        EvalCache::TimingRecord R;
        if (parseEvalBody(Body, R)) {
          if (Eval.importTiming(R))
            ++Local.EvalLoaded;
        } else {
          Corrupt = true;
        }
      } else if (Kind == KindSel) {
        Source S(Body);
        uint64_t Key = S.u64();
        SelectedDesign D = getDesign(S);
        if (S.done()) {
          if (Eval.importSelection(Key, D))
            ++Local.SelLoaded;
        } else {
          Corrupt = true;
        }
      } else {
        Corrupt = true; // unknown kind: quarantine, don't guess
      }
    }
    if (Corrupt)
      ++Local.CorruptFrames;
  }
  if (Stats)
    *Stats = Local;
  return true;
}
