//===- perfbench/src/main.cpp - Repo benchmark main program --------------===//
//
// Runs one workload closed-loop (one iteration in flight) for a fixed
// wall-clock budget and prints every metric by name with its unit; the
// last line of standard output is the JSON result:
//
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (tracing off). --trace 1
// alternates traced and untraced iterations and reports the per-layer
// metrics, read from the spans and counters the library records; the
// Chrome trace of the first traced iteration is kept in --out-dir.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --expected FILE --out-dir DIR
//
// perfbench/run.py builds this program and passes the last two flags;
// perfbench/README.md documents the workloads and every metric.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "TraceStats.h"

#include "obs/Stopwatch.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

using namespace perfbench;

namespace {

/// Times set-up is repeated; setup_s is the median. Set-up ends with
/// one warm-up iteration, so a set-up is as noisy as one iteration;
/// five repeats keep the median steady.
constexpr unsigned SetupRepeats = 5;
/// The timed loop runs at least this many iterations, so ten samples
/// lie beyond iter_ms.p90, but stops by MaxTimedSeconds whatever the
/// count (a run must end within 180 s).
constexpr size_t MinIterations = 100;
constexpr double MaxTimedSeconds = 120;

struct MetricDef {
  const char *Name;
  const char *Unit;
};

// Keep in sync with BENCHMARK.json.
const MetricDef EndToEnd[] = {
    {"iter_ms.p50", "ms"},      {"iter_ms.p90", "ms"},
    {"work_per_s", "1/s"},      {"setup_s", "s"},
    {"peak_rss_mb", "MB"},      {"ed2_ratio_mean", "ratio"},
    {"ed2_est_err_mean", "ratio"}, {"it_over_mit_mean", "ratio"},
};

const MetricDef PerLayer[] = {
    {"runtime.session_ms", "ms"},
    {"runtime.cache_load_ms", "ms"},
    {"runtime.cache_load_entries", "count"},
    {"runtime.cache_save_ms", "ms"},
    {"runtime.frontier_ms", "ms"},
    {"runtime.frontier_points", "count"},
    {"runtime.program_done_ms.p50", "ms"},
    {"runtime.program_done_ms.max", "ms"},
    {"runtime.allocs_per_iter", "count"},
    {"profiling.ms", "ms"},
    {"profiling.calls", "count"},
    {"profiling.loops_scheduled", "count"},
    {"explore.select_ms", "ms"},
    {"explore.eval_hits", "count"},
    {"explore.eval_misses", "count"},
    {"explore.eval_hit_ratio", "ratio"},
    {"explore.selection_memo_hits", "count"},
    {"explore.selection_memo_misses", "count"},
    {"measure.ms", "ms"},
    {"measure.configs", "count"},
    {"measure.schedule_hits", "count"},
    {"measure.schedule_misses", "count"},
    {"measure.schedule_hit_ratio", "ratio"},
    {"partition.loop_schedules", "count"},
    {"partition.loop_schedule_ms", "ms"},
    {"partition.driver_self_ms", "ms"},
    {"partition.refine_ms", "ms"},
    {"partition.refine_share", "ratio"},
    {"partition.coarsen_ms", "ms"},
    {"partition.it_steps", "count"},
    {"partition.levels", "count"},
    {"partition.matched_pairs", "count"},
    {"partition.refine_moves", "count"},
    {"partition.fm_moves", "count"},
    {"partition.coarsen_memo_hits", "count"},
    {"ir.analysis_ms", "ms"},
    {"sched.place_ms", "ms"},
    {"sched.placements", "count"},
    {"sched.ejections", "count"},
    {"sched.budget_used", "count"},
    {"sched.fallback_rational", "count"},
    {"vliwsim.checks", "count"},
    {"vliwsim.divergences", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.events", "count"},
    {"obs.dropped", "count"},
};

struct Args {
  std::string Workload, Expected, OutDir = ".";
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Flag = Argv[I], *V = Argv[I + 1];
    if (!std::strcmp(Flag, "--workload"))
      A.Workload = V;
    else if (!std::strcmp(Flag, "--seed"))
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (!std::strcmp(Flag, "--seconds"))
      A.Seconds = std::atof(V);
    else if (!std::strcmp(Flag, "--trace"))
      A.Trace = std::atoi(V);
    else if (!std::strcmp(Flag, "--expected"))
      A.Expected = V;
    else if (!std::strcmp(Flag, "--out-dir"))
      A.OutDir = V;
    else
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty() && A.Seconds > 0 &&
         (A.Trace == 0 || A.Trace == 1) && !A.Expected.empty();
}

/// The committed digest of \p Workload in \p Path ("<name> <hex>" lines).
bool committedDigest(const std::string &Path, const std::string &Workload,
                     uint64_t &Out) {
  std::ifstream In(Path);
  std::string Name, Hex;
  while (In >> Name >> Hex)
    if (Name == Workload) {
      Out = std::strtoull(Hex.c_str(), nullptr, 16);
      return true;
    }
  return false;
}

/// The digest check every iteration goes through.
bool digestMatches(uint64_t Expected, uint64_t Actual) {
  return Expected == Actual;
}

/// Moves the calling thread to the next CPU of the affinity set it
/// started with, round robin. On a shared host each core's speed swings
/// by up to ~1.7x for seconds at a time, independently of the others
/// (other tenants' load), so a thread left on one core lets that core
/// decide a whole run. Every timed iteration runs on one thread, and
/// moving it once per iteration spreads each run evenly over the cores;
/// a migration costs well under a millisecond, so not more often.
/// restore() gives the thread its whole set back before anything
/// multi-threaded runs.
class CpuRotation {
  cpu_set_t All;
  std::vector<int> Cpus;
  size_t Next = 0;

public:
  CpuRotation() {
    CPU_ZERO(&All);
    if (sched_getaffinity(0, sizeof All, &All) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &All))
          Cpus.push_back(C);
  }
  void next() {
    if (Cpus.size() < 2)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Next++ % Cpus.size()], &One);
    sched_setaffinity(0, sizeof One, &One);
  }
  void restore() {
    if (Cpus.size() >= 2)
      sched_setaffinity(0, sizeof All, &All);
  }
};

/// Resets the kernel's peak-RSS mark so the timed loop's peak excludes
/// set-up; returns false where the kernel does not support it.
bool resetPeakRss() {
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

/// Per-layer metrics: trace-derived values and the workload's counters,
/// as per-iteration means over the traced iterations.
Counters layerMetrics(const TraceSummary &T, const Counters &Sums,
                      const Counters &RunLayer, unsigned Traced,
                      double OverheadPct) {
  double N = Traced ? Traced : 1;
  Counters M;
  for (const auto &[Name, V] : Sums)
    M[Name] = V / N;
  for (const auto &[Name, V] : RunLayer)
    M[Name] = V;
  double LoopMs = T.familyInclMs("loop.schedule");
  double RefineMs = T.familyInclMs("part.refine");
  double CoarsenMs = T.familyInclMs("part.coarsen");
  double PlaceMs = T.familyInclMs("sched.place");
  M["runtime.frontier_ms"] = T.familyInclMs("frontier.measure") / N;
  M["profiling.ms"] = T.familyInclMs("stage.profile") / N;
  M["profiling.calls"] = T.familyCalls("stage.profile") / N;
  M["explore.select_ms"] = T.familyInclMs("stage.select") / N;
  M["measure.ms"] = T.familySelfMs("measure.config") / N;
  M["measure.configs"] = T.familyCalls("measure.config") / N;
  M["partition.loop_schedules"] = T.familyCalls("loop.schedule") / N;
  M["partition.loop_schedule_ms"] = LoopMs / N;
  M["partition.driver_self_ms"] = (LoopMs - RefineMs - CoarsenMs - PlaceMs) / N;
  M["partition.refine_ms"] = RefineMs / N;
  M["partition.refine_share"] = LoopMs > 0 ? RefineMs / LoopMs : 0;
  M["partition.coarsen_ms"] = CoarsenMs / N;
  M["partition.it_steps"] = T.familyCalls("loop.itstep") / N;
  M["sched.place_ms"] = PlaceMs / N;
  M["sched.placements"] = T.argSum("sched.place/placements") / N;
  M["sched.ejections"] = T.argSum("sched.place/ejections") / N;
  M["sched.budget_used"] = T.argSum("sched.place/budget_used") / N;
  M["obs.events"] = static_cast<double>(T.Events) / N;
  M["obs.dropped"] = static_cast<double>(T.Dropped) / N;
  M["obs.trace_overhead_pct"] = OverheadPct;
  auto ratio = [&](const char *Hits, const char *Misses) {
    double H = M[Hits], Ms = M[Misses];
    return H + Ms > 0 ? H / (H + Ms) : 0;
  };
  M["explore.eval_hit_ratio"] =
      ratio("explore.eval_hits", "explore.eval_misses");
  M["measure.schedule_hit_ratio"] =
      ratio("measure.schedule_hits", "measure.schedule_misses");
  return M;
}

int run(const Args &A) {
  std::unique_ptr<Workload> W;
  if (A.Workload == "specfp_frontier")
    W = makeSpecFrontierWorkload();
  else if (A.Workload == "specfp_warm")
    W = makeSpecWarmWorkload(A.OutDir);
  else if (A.Workload == "bigloop")
    W = makeBigLoopWorkload();
  else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  uint64_t Expected = 0;
  if (W->hasCommittedDigest() &&
      !committedDigest(A.Expected, A.Workload, Expected)) {
    std::fprintf(stderr, "error: no committed digest for %s in %s\n",
                 A.Workload.c_str(), A.Expected.c_str());
    return 2;
  }

  // Set-up: input generation, one-time set-up and one warm-up
  // iteration, repeated; setup_s is the median.
  CheckTally Checks;
  Counters Unused;
  std::vector<double> SetupS;
  IterationOutcome WarmUp;
  CpuRotation Cpus;
  for (unsigned R = 0; R < SetupRepeats; ++R) {
    Cpus.next();
    hcvliw::obs::Stopwatch SW;
    W->setup(A.Seed);
    WarmUp = W->iterate(false, Unused);
    SetupS.push_back(SW.elapsedMs() / 1000.0);
  }
  if (!W->hasCommittedDigest())
    Expected = WarmUp.Digest;
  Checks.record(digestMatches(Expected, WarmUp.Digest),
                "warm-up iteration digest");
  bool PeakReset = resetPeakRss();

  // The timed closed loop. Traced runs alternate traced and untraced
  // iterations so the overhead comparison sees the same drift.
  std::vector<double> IterMs, TracedMs, UntracedMs;
  uint64_t Units = 0, Failed = 0, Mismatches = 0;
  unsigned TracedIters = 0;
  Counters LayerSums;
  TraceSummary Trace;
  std::string FirstTrace;
  hcvliw::obs::Stopwatch Total;
  while ((Total.elapsedMs() < A.Seconds * 1000.0 ||
          IterMs.size() < MinIterations) &&
         Total.elapsedMs() < MaxTimedSeconds * 1000.0) {
    bool Traced = A.Trace == 1 && IterMs.size() % 2 == 1;
    Cpus.next();
    IterationOutcome O = W->iterate(Traced, LayerSums);
    IterMs.push_back(O.WallMs);
    Units += O.Units;
    Failed += O.Failed;
    Mismatches += !digestMatches(Expected, O.Digest);
    if (Traced) {
      ++TracedIters;
      TracedMs.push_back(O.WallMs);
      Trace.merge(summarizeTrace(O.TraceJson, "bench.iteration"));
      if (FirstTrace.empty())
        FirstTrace = std::move(O.TraceJson);
    } else {
      UntracedMs.push_back(O.WallMs);
    }
  }
  double TimedS = Total.elapsedMs() / 1000.0;
  double PeakMb = peakRssMb();
  Cpus.restore();
  if (A.Trace == 1)
    Checks.record(Trace.Parsed == Trace.Events - Trace.Dropped,
                  "every exported span event was read back");

  // Untimed checks: oracle pass, thread invariance, self-test.
  Counters Quality, RunLayer;
  W->check(Expected, Checks, Quality, RunLayer);
  Checks.record(!digestMatches(Expected ^ 1, WarmUp.Digest),
                "self-test: a perturbed expectation fails the check");
  Checks.record(!digestMatches(Expected, W->perturbedDigest()),
                "self-test: a perturbed result fails the check");
  if (Mismatches)
    std::fprintf(stderr, "check failed: %llu iteration digest mismatch(es)\n",
                 static_cast<unsigned long long>(Mismatches));

  // Operations: units of work, one digest check per iteration, and the
  // untimed checks.
  uint64_t Attempted = Units + Failed + IterMs.size() + Checks.Attempted;
  uint64_t AllFailed = Failed + Mismatches + Checks.Failed;
  bool Correct = AllFailed == 0 && !IterMs.empty();

  std::printf("workload %s, seed %llu: %zu iterations in %.2f s (%llu %s), "
              "digest %016llx (expected %016llx)\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              IterMs.size(), TimedS, static_cast<unsigned long long>(Units),
              W->unitName(), static_cast<unsigned long long>(WarmUp.Digest),
              static_cast<unsigned long long>(Expected));
  std::printf("checks: %llu attempted, %llu failed; fail_frac %.6g "
              "(%llu of %llu operations)\n",
              static_cast<unsigned long long>(Checks.Attempted),
              static_cast<unsigned long long>(Checks.Failed),
              Attempted ? static_cast<double>(AllFailed) / Attempted : 0.0,
              static_cast<unsigned long long>(AllFailed),
              static_cast<unsigned long long>(Attempted));

  Counters Metrics;
  const MetricDef *Defs;
  size_t NumDefs;
  if (A.Trace == 0) {
    Metrics = Quality;
    Metrics["iter_ms.p50"] = percentile(IterMs, 50);
    Metrics["iter_ms.p90"] = percentile(IterMs, 90);
    Metrics["work_per_s"] = static_cast<double>(Units) / TimedS;
    Metrics["setup_s"] = median(SetupS);
    Metrics["peak_rss_mb"] = PeakMb;
    Defs = EndToEnd;
    NumDefs = sizeof EndToEnd / sizeof EndToEnd[0];
    if (!PeakReset)
      std::printf("note: peak RSS could not be reset; it includes set-up\n");
  } else {
    double Untraced = percentile(UntracedMs, 50);
    double Overhead =
        Untraced > 0 ? (percentile(TracedMs, 50) / Untraced - 1) * 100 : 0;
    Metrics = layerMetrics(Trace, LayerSums, RunLayer, TracedIters, Overhead);
    Defs = PerLayer;
    NumDefs = sizeof PerLayer / sizeof PerLayer[0];
    std::printf("traced run: %u traced / %zu untraced iterations\n%s",
                TracedIters, UntracedMs.size(),
                formatTraceReport(Trace, TracedIters).c_str());
    std::string TracePath = A.OutDir + "/" + A.Workload + ".trace.json";
    std::ofstream(TracePath, std::ios::binary) << FirstTrace;
    std::printf("wrote %s (one traced iteration, Chrome trace format)\n",
                TracePath.c_str());
  }
  std::printf("samples: %zu iterations\n", IterMs.size());

  std::ostringstream J;
  J << "{\"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << Attempted << ", \"failed\": " << AllFailed
    << ", \"metrics\": {";
  for (size_t I = 0; I < NumDefs; ++I) {
    double V = Metrics[Defs[I].Name];
    std::printf("  %-32s %18.6f %s\n", Defs[I].Name, V, Defs[I].Unit);
    J << (I ? ", " : "") << "\"" << Defs[I].Name
      << "\": {\"value\": " << jsonNumber(V) << ", \"unit\": \""
      << Defs[I].Unit << "\"}";
  }
  J << "}}";
  std::printf("%s\n", J.str().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds "
                 "S --trace 0|1 --expected FILE [--out-dir DIR]\n");
    return 2;
  }
  try {
    return run(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
