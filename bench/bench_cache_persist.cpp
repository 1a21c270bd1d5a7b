//===- bench/bench_cache_persist.cpp - Persistent cache tier cost/win -------===//
//
// Pins the economics and the safety contract of the persistent
// schedule/eval-cache tier (runtime/CachePersist, PR 10):
//
//   1. *Warm identity.* A suite run warmed from a snapshot produces the
//      exact per-program ED2 ratios of the cold run — the persistent
//      tier may only change effort, never results. A mismatch exits 2.
//   2. *Clean loads are clean.* Round-tripping the snapshot quarantines
//      zero frames; cache_load_corrupt != 0 on this path exits 2 (CI
//      also asserts it on every bench's "caches" series).
//   3. *The tier pays.* Snapshot save/load throughput and the warm-run
//      wall-time delta are reported so regressions in the serde layer
//      or the import path show up as numbers, not anecdotes.
//   4. *A hit costs a lookup.* warm_pass_ms is the median wall time of
//      WarmPasses suite passes in one snapshot-warmed one-thread
//      session, every schedule and selection a cache hit: the cost of
//      the profile and measurement stages reading cached results.
//
// Writes BENCH_bench_cache_persist.json with both series' cache
// counters (cache_persist_hits / cache_persist_loaded /
// cache_load_corrupt) via BenchReporter.
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace hcvliw;

namespace {

using Clock = std::chrono::steady_clock;

/// All-hit suite passes timed for warm_pass_ms.
constexpr unsigned WarmPasses = 21;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

uint64_t fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  return In ? static_cast<uint64_t>(In.tellg()) : 0;
}

} // namespace

int main(int argc, char **argv) {
  unsigned ThreadsFlag = 0;
  unsigned LoadIters = 10;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--threads") && I + 1 < argc) {
      ThreadsFlag = parseThreadsArg(argv[++I]);
    } else if (!std::strcmp(argv[I], "--load-iters") && I + 1 < argc) {
      LoadIters = static_cast<unsigned>(std::atoi(argv[++I]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_cache_persist [--threads N] "
                   "[--load-iters N]\n");
      return 2;
    }
  }
  if (LoadIters == 0)
    LoadIters = 1;

  BenchReporter Reporter("bench_cache_persist");
  std::vector<BenchmarkProgram> Programs = buildSpecFPSuite();
  const std::string SnapPath = "BENCH_cache_persist.snapshot.tmp";
  PipelineOptions Opts;

  // Cold: nothing persisted anywhere; this populates the session
  // caches the snapshot will capture.
  Session Cold(Opts, ThreadsFlag);
  Clock::time_point T0 = Clock::now();
  SuiteResult ColdR = SuiteRunner(Cold).run(Programs);
  double ColdS = secondsSince(T0);
  Reporter.addSeries("cold", ColdR);
  Reporter.addCacheStats("cold", Cold);

  // Save throughput (one timed save; the format is append-only text,
  // so a single save is representative).
  std::string Err;
  T0 = Clock::now();
  if (!Cold.saveCacheTo(SnapPath, &Err)) {
    std::fprintf(stderr, "FAIL: snapshot save: %s\n", Err.c_str());
    return 2;
  }
  double SaveS = secondsSince(T0);
  uint64_t Saved = Cold.cachePersistSaveStats().saved();
  uint64_t SnapBytes = fileBytes(SnapPath);

  // Load throughput: repeated imports into throwaway sessions (parse +
  // checksum + insert; the dominant cost of every warm start).
  double LoadS = 0;
  uint64_t Loaded = 0;
  for (unsigned I = 0; I < LoadIters; ++I) {
    Session Scratch(Opts, 1);
    T0 = Clock::now();
    if (!Scratch.loadCacheFrom(SnapPath, &Err)) {
      std::fprintf(stderr, "FAIL: snapshot load: %s\n", Err.c_str());
      return 2;
    }
    LoadS += secondsSince(T0);
    Loaded = Scratch.cachePersistLoadStats().loaded();
    if (Scratch.cachePersistLoadStats().CorruptFrames != 0) {
      std::fprintf(stderr,
                   "FAIL: clean snapshot quarantined %llu frames\n",
                   static_cast<unsigned long long>(
                       Scratch.cachePersistLoadStats().CorruptFrames));
      return 2;
    }
  }
  LoadS /= LoadIters;

  // Warm: a fresh session seeded from the snapshot runs the same suite.
  Session Warm(Opts, ThreadsFlag);
  if (!Warm.loadCacheFrom(SnapPath, &Err)) {
    std::fprintf(stderr, "FAIL: warm-session load: %s\n", Err.c_str());
    return 2;
  }
  T0 = Clock::now();
  SuiteResult WarmR = SuiteRunner(Warm).run(Programs);
  double WarmS = secondsSince(T0);
  Reporter.addSeries("warm", WarmR);
  Reporter.addCacheStats("warm", Warm);

  // All-hit passes, in a session of their own so the "warm" series'
  // counters above stay one pass's.
  Session Passes(Opts, 1);
  if (!Passes.loadCacheFrom(SnapPath, &Err)) {
    std::fprintf(stderr, "FAIL: warm-pass session load: %s\n", Err.c_str());
    return 2;
  }
  std::vector<double> PassMs;
  for (unsigned I = 0; I < WarmPasses; ++I) {
    T0 = Clock::now();
    SuiteRunner(Passes).run(Programs);
    PassMs.push_back(secondsSince(T0) * 1e3);
  }
  std::nth_element(PassMs.begin(), PassMs.begin() + WarmPasses / 2,
                   PassMs.end());
  const double WarmPassMs = PassMs[WarmPasses / 2];
  if (Passes.scheduleCache().misses() != 0) {
    std::fprintf(stderr, "FAIL: a warm pass missed the schedule cache\n");
    return 2;
  }
  std::remove(SnapPath.c_str());

  // Contract 1: warm results are the cold results, bit for bit.
  bool Identical = ColdR.Names == WarmR.Names &&
                   ColdR.ED2Ratios.size() == WarmR.ED2Ratios.size() &&
                   ColdR.Failures.size() == WarmR.Failures.size();
  for (size_t I = 0; Identical && I < ColdR.ED2Ratios.size(); ++I)
    Identical = std::memcmp(&ColdR.ED2Ratios[I], &WarmR.ED2Ratios[I],
                            sizeof(double)) == 0;
  if (!Identical) {
    std::fprintf(stderr,
                 "FAIL: snapshot-warmed suite diverged from the cold "
                 "run (the persistent tier changed a result)\n");
    return 2;
  }
  if (Warm.cachePersistHits() == 0) {
    std::fprintf(stderr,
                 "FAIL: warm run served zero persistent-tier hits — "
                 "the snapshot import is dead weight\n");
    return 2;
  }

  double WarmPct = (ColdS / WarmS - 1.0) * 100.0;
  std::printf("cold suite     %.3f s  (%zu programs, mean ED2 ratio %.4f)\n"
              "snapshot save  %.2f ms (%llu records, %llu bytes)\n"
              "snapshot load  %.2f ms (%llu records, mean of %u)\n"
              "warm suite     %.3f s  (%+.1f%% vs cold, %llu persist hits)\n"
              "warm pass      %.3f ms (median of %u all-hit passes)\n",
              ColdS, ColdR.Names.size(), ColdR.meanRatio(), SaveS * 1e3,
              static_cast<unsigned long long>(Saved),
              static_cast<unsigned long long>(SnapBytes), LoadS * 1e3,
              static_cast<unsigned long long>(Loaded), LoadIters, WarmS,
              WarmPct, static_cast<unsigned long long>(Warm.cachePersistHits()),
              WarmPassMs, WarmPasses);

  Reporter.addMetric("cold_suite_s", ColdS);
  Reporter.addMetric("warm_suite_s", WarmS);
  Reporter.addMetric("warm_speedup_pct", WarmPct);
  Reporter.addMetric("snapshot_bytes", static_cast<double>(SnapBytes));
  Reporter.addMetric("snapshot_records_saved", static_cast<double>(Saved));
  Reporter.addMetric("snapshot_records_loaded", static_cast<double>(Loaded));
  Reporter.addMetric("snapshot_save_ms", SaveS * 1e3);
  Reporter.addMetric("snapshot_load_ms", LoadS * 1e3);
  Reporter.addMetric("warm_pass_ms", WarmPassMs);
  Reporter.write();
  return 0;
}
