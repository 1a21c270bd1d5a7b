//===- runtime/CachePersist.cpp - Persistent schedule/eval caches -----------===//

#include "runtime/CachePersist.h"

#include "obs/BuildInfo.h"
#include "runtime/ResultSerde.h"
#include "support/HashUtil.h"
#include "support/RecordIO.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

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

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

void putRecord(std::FILE *Out, const char *Kind, const std::string &Body) {
  std::fprintf(Out, "rec %s %08x %s\n", Kind, recio::crc32(Body),
               Body.c_str());
}

/// One "eval" body: the TimingRecord, key fields first.
std::string evalBody(const EvalCache::TimingRecord &R) {
  Sink S;
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
  return S.line();
}

bool parseEvalBody(const std::string &Body, EvalCache::TimingRecord &R) {
  Source S(Body);
  R.LoopFP = S.u64();
  R.NumFast = static_cast<uint32_t>(S.u64());
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

/// Header of an open snapshot stream; Line is reused by the caller.
struct Header {
  uint32_t Schema = 0;
  uint64_t Binding = 0;
};

bool readLine(std::FILE *In, std::string &Out) {
  Out.clear();
  int C;
  while ((C = std::fgetc(In)) != EOF && C != '\n')
    Out.push_back(static_cast<char>(C));
  return C != EOF || !Out.empty();
}

/// Reads and validates the three header lines. False (with \p Err) on
/// any skew; \p ExpectBinding == 0 skips the binding check (merge reads
/// the first input's binding this way, then pins it).
bool readHeader(std::FILE *In, const std::string &Path, Header &H,
                std::string *Err) {
  auto fail = [&](const std::string &What) {
    if (Err)
      *Err = "cache snapshot " + Path + ": " + What;
    return false;
  };
  std::string Line;
  if (!readLine(In, Line))
    return fail("empty file");
  if (Line != SnapshotMagic)
    return fail("not a cache snapshot (bad magic/version: \"" + Line +
                "\")");
  if (!readLine(In, Line))
    return fail("truncated header");
  {
    std::istringstream SS(Line);
    std::string K1, K2, BindingHex;
    unsigned long long Schema = 0;
    if (!(SS >> K1 >> Schema >> K2 >> BindingHex) || K1 != "schema" ||
        K2 != "binding")
      return fail("malformed schema line: \"" + Line + "\"");
    H.Schema = static_cast<uint32_t>(Schema);
    H.Binding = std::strtoull(BindingHex.c_str(), nullptr, 16);
  }
  if (!readLine(In, Line) || Line.rfind("build ", 0) != 0)
    return fail("missing build line");
  // The build sha is provenance only; no check (see header comment).
  return true;
}

void writeHeader(std::FILE *Out, uint64_t Binding) {
  std::fprintf(Out, "%s\n", SnapshotMagic);
  std::fprintf(Out, "schema %u binding %s\n", CacheKeySchemaVersion,
               hex(Binding).c_str());
  std::fprintf(Out, "build %s\n", obs::buildInfo().GitSha);
}

/// Splits one "rec <kind> <crc> <body>" line. False when the frame is
/// malformed or the CRC mismatches — the caller quarantines it.
bool splitRecord(const std::string &Line, std::string &Kind,
                 std::string &Body) {
  if (Line.rfind("rec ", 0) != 0)
    return false;
  size_t KindEnd = Line.find(' ', 4);
  if (KindEnd == std::string::npos)
    return false;
  size_t CrcEnd = Line.find(' ', KindEnd + 1);
  if (CrcEnd == std::string::npos)
    return false;
  Kind = Line.substr(4, KindEnd - 4);
  uint32_t Crc = static_cast<uint32_t>(
      std::strtoul(Line.substr(KindEnd + 1, CrcEnd - KindEnd - 1).c_str(),
                   nullptr, 16));
  Body = Line.substr(CrcEnd + 1);
  return recio::crc32(Body) == Crc;
}

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
  std::FILE *Out = std::fopen(Tmp.c_str(), "wb");
  if (!Out) {
    if (Err)
      *Err = "cannot open " + Tmp + " for writing";
    return false;
  }
  CacheSaveStats Local;
  writeHeader(Out, Binding);
  // Canonical record order: sched, eval, sel; within a kind the caches'
  // export order (shards in index order, keys sorted) — so equal cache
  // contents produce byte-identical snapshots.
  Sched.exportEntries([&](uint64_t Key, const LoopScheduleResult &R) {
    Sink S;
    S.u64(Key);
    serde::putLoopScheduleResult(S, R);
    putRecord(Out, KindSched, S.line());
    ++Local.SchedSaved;
  });
  Eval.exportTimings([&](const EvalCache::TimingRecord &R) {
    putRecord(Out, KindEval, evalBody(R));
    ++Local.EvalSaved;
  });
  Eval.exportSelections([&](uint64_t Key, const SelectedDesign &D) {
    Sink S;
    S.u64(Key);
    serde::putDesign(S, D);
    putRecord(Out, KindSel, S.line());
    ++Local.SelSaved;
  });
  bool Ok = std::fflush(Out) == 0;
  Ok = std::fclose(Out) == 0 && Ok;
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
  std::FILE *In = std::fopen(Path.c_str(), "rb");
  if (!In) {
    if (Err)
      *Err = "cannot open cache snapshot " + Path;
    return false;
  }
  Header H;
  if (!readHeader(In, Path, H, Err)) {
    std::fclose(In);
    return false;
  }
  auto refuse = [&](const std::string &What) {
    if (Err)
      *Err = "cache snapshot " + Path + ": " + What;
    std::fclose(In);
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
  std::string Line, Kind, Body;
  while (readLine(In, Line)) {
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
        LoopScheduleResult R = serde::getLoopScheduleResult(S);
        if (S.done()) {
          Sched.importEntry(Key, R);
          ++Local.SchedLoaded;
        } else {
          Corrupt = true;
        }
      } else if (Kind == KindEval) {
        EvalCache::TimingRecord R;
        if (parseEvalBody(Body, R)) {
          Eval.importTiming(R);
          ++Local.EvalLoaded;
        } else {
          Corrupt = true;
        }
      } else if (Kind == KindSel) {
        Source S(Body);
        uint64_t Key = S.u64();
        SelectedDesign D = serde::getDesign(S);
        if (S.done()) {
          Eval.importSelection(Key, D);
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
  std::fclose(In);
  if (Stats)
    *Stats = Local;
  return true;
}
