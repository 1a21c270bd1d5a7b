//===- examples/suite_tool.cpp - Suite execution CLI ------------------------===//
//
// Drives the runtime Session/SuiteRunner API over the synthetic SPECfp
// suite: programs fan out across the session's worker pool (each
// program's design-space search nests on the same pool), per-program
// completions stream to stderr as they happen, failures are reported
// as structured records, and the per-benchmark normalized ED2 table —
// the paper's Figure 6 row — prints at the end together with the
// session's shared-cache statistics.
//
// Robustness: --fault-plan arms the session's deterministic fault
// injector; --degrade / --effort-deadline enable the graceful-
// degradation ladder. --load-cache / --save-cache attach the persistent
// schedule/eval cache tier (runtime/CachePersist), so a later run
// starts warm; a killed run keeps no other state and is simply rerun.
//
// Usage:
//   suite_tool [--threads N] [--lanes K] [--buses B] [--menu K]
//              [--repeat N] [--measure-frontier]
//              [--frontier-csv PATH] [--frontier-json PATH]
//              [--trace PATH] [--metrics PATH]
//              [--fault-plan PATH] [--degrade] [--effort-deadline N]
//              [--load-cache PATH] [--save-cache PATH]
//     --threads  worker-pool parallelism (default: hardware)
//     --lanes    nested-parallelism budget: max programs in flight
//                (default: all; spare threads speed up exploration)
//     --buses    inter-cluster buses (default 1)
//     --menu     frequencies per domain (default: any)
//     --repeat   run the suite N times in one session to show the
//                selection memo (repeats skip all searches)
//     --measure-frontier  also measure every program's Pareto frontier
//                with real schedules (measure/FrontierMeasurer) and
//                emit frontier_measured.csv / frontier_measured.json
//                (paths overridable with --frontier-csv/--frontier-json)
//     --trace    record a span trace of the whole run and write it as
//                Chrome-trace-event JSON (open in Perfetto or
//                chrome://tracing); results are bit-identical with or
//                without tracing
//     --metrics  write the session metrics snapshot (stage wall-time
//                histograms, cache counters) as JSON
//
// Build & run:  ./build/suite_tool --threads 4 --lanes 2
//
//===----------------------------------------------------------------------===//

#include "obs/AllocHook.h"
#include "runtime/SuiteRunner.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"
#include "workloads/SpecFPSuite.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hcvliw {
/// Allocation counter surfaced to the tracer: every span in --trace
/// output carries its heap-allocation delta.
std::atomic<uint64_t> ToolAllocCounter{0};
} // namespace hcvliw

HCVLIW_INSTRUMENT_ALLOCS(hcvliw::ToolAllocCounter)

using namespace hcvliw;

namespace {

/// --buses upper bound: the paper's machines have one or two; every bus
/// is a reservation-table unit per II slot.
constexpr uint64_t MaxBuses = 64;

void printUsage() {
  std::printf(
      "usage: suite_tool [options]\n"
      "  --threads N          worker-pool parallelism (default: hardware)\n"
      "  --lanes K            max programs in flight (default: all)\n"
      "  --buses B            inter-cluster buses (default 1)\n"
      "  --menu K             frequencies per domain (default: any)\n"
      "  --repeat N           run the suite N times in one session\n"
      "  --measure-frontier   also measure every program's frontier\n"
      "  --frontier-csv PATH  frontier CSV path\n"
      "  --frontier-json PATH frontier JSON path\n"
      "  --trace PATH         write a Perfetto-loadable span trace of the\n"
      "                       run (Chrome trace-event JSON); tracing never\n"
      "                       changes results\n"
      "  --metrics PATH       write the session metrics snapshot as JSON\n"
      "  --fault-plan PATH    arm the deterministic fault injector with\n"
      "                       the plan in PATH (see src/fault/Fault.h)\n"
      "  --degrade            degrade unschedulable loops to the analytic\n"
      "                       estimate instead of failing the measurement\n"
      "  --effort-deadline N  per-loop scheduler effort deadline in\n"
      "                       BudgetUsed units (0 = off; deterministic,\n"
      "                       never wall clock)\n"
      "  --load-cache PATH    warm the session caches from a persistent\n"
      "                       snapshot (refuses version/binding skew;\n"
      "                       corrupt frames quarantine, never crash)\n"
      "  --save-cache PATH    write the session caches' persistent\n"
      "                       snapshot after the run\n"
      "  --help               this text\n");
}

} // namespace

int main(int argc, char **argv) {
  unsigned Threads = 0, Buses = 1, MenuK = 0, Repeat = 1;
  size_t Lanes = 0;
  bool MeasureFrontier = false, Degrade = false;
  uint64_t EffortDeadline = 0;
  std::string FrontierCsv = "frontier_measured.csv";
  std::string FrontierJson = "frontier_measured.json";
  std::string TracePath, MetricsPath;
  std::string FaultPlanPath;
  std::string LoadCachePath, SaveCachePath;
  for (int I = 1; I < argc; ++I) {
    auto need = [&](const char *Flag) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        std::exit(1);
      }
      return argv[++I];
    };
    auto needUnsigned = [&](const char *Flag, uint64_t Max) {
      uint64_t V = 0;
      if (!parseUnsigned(need(Flag), Max, V)) {
        std::fprintf(stderr, "error: %s expects an integer in [0, %llu]\n",
                     Flag, static_cast<unsigned long long>(Max));
        std::exit(1);
      }
      return V;
    };
    if (!std::strcmp(argv[I], "--help") || !std::strcmp(argv[I], "-h")) {
      printUsage();
      return 0;
    } else if (!std::strcmp(argv[I], "--trace")) {
      TracePath = need("--trace");
    } else if (!std::strcmp(argv[I], "--metrics")) {
      MetricsPath = need("--metrics");
    } else if (!std::strcmp(argv[I], "--threads"))
      Threads = static_cast<unsigned>(
          needUnsigned("--threads", MaxThreadCount));
    else if (!std::strcmp(argv[I], "--lanes"))
      Lanes = needUnsigned("--lanes", UINT32_MAX);
    else if (!std::strcmp(argv[I], "--buses"))
      Buses = static_cast<unsigned>(needUnsigned("--buses", MaxBuses));
    else if (!std::strcmp(argv[I], "--menu"))
      MenuK = static_cast<unsigned>(
          needUnsigned("--menu", FrequencyMenu::MaxLadderSize));
    else if (!std::strcmp(argv[I], "--repeat"))
      Repeat = static_cast<unsigned>(needUnsigned("--repeat", UINT32_MAX));
    else if (!std::strcmp(argv[I], "--measure-frontier"))
      MeasureFrontier = true;
    else if (!std::strcmp(argv[I], "--frontier-csv"))
      FrontierCsv = need("--frontier-csv");
    else if (!std::strcmp(argv[I], "--frontier-json"))
      FrontierJson = need("--frontier-json");
    else if (!std::strcmp(argv[I], "--fault-plan"))
      FaultPlanPath = need("--fault-plan");
    else if (!std::strcmp(argv[I], "--degrade"))
      Degrade = true;
    else if (!std::strcmp(argv[I], "--effort-deadline"))
      EffortDeadline = needUnsigned("--effort-deadline", UINT64_MAX);
    else if (!std::strcmp(argv[I], "--load-cache"))
      LoadCachePath = need("--load-cache");
    else if (!std::strcmp(argv[I], "--save-cache"))
      SaveCachePath = need("--save-cache");
    else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[I]);
      return 1;
    }
  }

  PipelineOptions Opts;
  Opts.Buses = Buses;
  if (MenuK > 0)
    Opts.MenuSize = MenuK;
  Opts.DegradeToEstimate = Degrade;
  Opts.LoopEffortDeadline = EffortDeadline;
  Session S(Opts, Threads);
  SuiteRunner Runner(S);
  if (!TracePath.empty())
    S.tracer().enable();

  if (!FaultPlanPath.empty()) {
    std::string PErr;
    auto Plan = fault::FaultPlan::parseFile(FaultPlanPath, &PErr);
    if (!Plan) {
      std::fprintf(stderr, "error: bad fault plan '%s': %s\n",
                   FaultPlanPath.c_str(), PErr.c_str());
      return 1;
    }
    S.faultInjector().arm(*Plan);
    std::fprintf(stderr, "fault injector armed (%zu rules, seed %llu)\n",
                 Plan->Rules.size(),
                 static_cast<unsigned long long>(Plan->Seed));
  }

  // Persistent cache tier: warm the session before anything runs. A
  // version/binding skew refuses (hard error); corrupt frames only
  // quarantine.
  if (!LoadCachePath.empty()) {
    std::string CErr;
    if (!S.loadCacheFrom(LoadCachePath, &CErr)) {
      std::fprintf(stderr, "error: %s\n", CErr.c_str());
      return 1;
    }
    const CacheLoadStats &CL = S.cachePersistLoadStats();
    std::fprintf(stderr,
                 "cache: loaded %llu entries from %s (%llu corrupt "
                 "frame(s) quarantined)\n",
                 static_cast<unsigned long long>(CL.loaded()),
                 LoadCachePath.c_str(),
                 static_cast<unsigned long long>(CL.CorruptFrames));
  }

  SuiteOptions SO;
  SO.ProgramLanes = Lanes;
  SO.MeasureFrontier = MeasureFrontier;
  SO.OnProgramDone = [](const SuiteProgress &P) {
    if (P.Ok)
      std::fprintf(stderr, "[%zu/%zu] %-13s ED2 ratio %.3f\n", P.Completed,
                   P.Total, P.Program.c_str(), P.ED2Ratio);
    else
      std::fprintf(stderr, "[%zu/%zu] %-13s FAILED at %s: %s\n",
                   P.Completed, P.Total, P.Program.c_str(),
                   pipelineStageName(P.Failure->Stage),
                   P.Failure->Reason.c_str());
  };

  // Per-program failures never throw out of run(); they are records.
  // The suite is built once: repeats measure the session, not the
  // workload generator.
  const std::vector<BenchmarkProgram> Programs = buildSpecFPSuite();
  SuiteResult R;
  for (unsigned Rep = 0; Rep < std::max(1u, Repeat); ++Rep)
    R = Runner.run(Programs, SO);

  TablePrinter T("normalized ED2 (heterogeneous / optimum homogeneous)");
  std::vector<std::string> Header = {"program"}, Row = {"ED2 ratio"};
  for (size_t I = 0; I < R.Names.size(); ++I) {
    Header.push_back(shortSpecName(R.Names[I]));
    Row.push_back(formatString("%.3f", R.ED2Ratios[I]));
  }
  Header.push_back("mean");
  Row.push_back(formatString("%.3f", R.meanRatio()));
  T.addRow(std::move(Header));
  T.addRow(std::move(Row));
  T.print();

  for (const SuiteFailure &F : R.Failures)
    std::fprintf(stderr, "error: %s failed at %s after %.1f ms: %s\n",
                 F.Program.c_str(), pipelineStageName(F.Stage),
                 F.StageWallMs, F.Reason.c_str());

  // Robustness summary: what the degradation ladder absorbed and what
  // the injector (if armed) fired. All zero on a healthy run.
  {
    unsigned long long Degraded = 0, Flat = 0, Rat = 0;
    for (const ProgramRunResult &D : R.Details) {
      Degraded += D.HetMeasured.DegradedLoops + D.HomMeasured.DegradedLoops;
      Flat += D.HetMeasured.FlatPartitions + D.HomMeasured.FlatPartitions;
      Rat += D.HetMeasured.FallbackRational + D.HomMeasured.FallbackRational;
    }
    if (Degraded || Flat || Rat)
      std::printf("degradation: %llu loops on the analytic rung, %llu flat "
                  "partitions, %llu grid-less IT steps\n",
                  Degraded, Flat, Rat);
    const fault::FaultInjector &FI = S.faultInjector();
    if (FI.totalInjected()) {
      std::printf("faults injected: %llu (%llu throws, %llu bad_allocs, "
                  "%llu degrades)\n",
                  static_cast<unsigned long long>(FI.totalInjected()),
                  static_cast<unsigned long long>(FI.injectedThrows()),
                  static_cast<unsigned long long>(FI.injectedBadAllocs()),
                  static_cast<unsigned long long>(FI.injectedDegrades()));
      for (const auto &[Site, Count] : FI.injectedBySite())
        std::printf("  %-16s %llu\n", Site.c_str(),
                    static_cast<unsigned long long>(Count));
    }
  }

  int Rc = R.Failures.empty() ? 0 : 1;
  if (MeasureFrontier) {
    TablePrinter FT("measured frontier (re-ranked by measured ED2)");
    FT.addRow({"program", "points", "argmin agrees", "mean |ED2 err|"});
    for (const MeasuredFrontier &F : R.Frontiers)
      FT.addRow({shortSpecName(F.Program),
                 formatString("%zu", F.Points.size()),
                 F.ArgminAgrees ? "yes" : "NO",
                 formatString("%.4f", F.meanAbsED2Error())});
    FT.print();
    if (writeFrontierCsv(R.Frontiers, FrontierCsv)) {
      std::printf("wrote %s\n", FrontierCsv.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   FrontierCsv.c_str());
      Rc = 1;
    }
    if (writeFrontierJson(R.Frontiers, FrontierJson)) {
      std::printf("wrote %s\n", FrontierJson.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   FrontierJson.c_str());
      Rc = 1;
    }
  }

  const EvalCache &C = S.evalCache();
  std::printf("\nsession cache: %llu timing hits / %llu misses "
              "(%zu entries), %llu selection memo hits / %llu misses\n",
              static_cast<unsigned long long>(C.hits()),
              static_cast<unsigned long long>(C.misses()), C.size(),
              static_cast<unsigned long long>(C.selectionHits()),
              static_cast<unsigned long long>(C.selectionMisses()));
  const ScheduleCache &SC = S.scheduleCache();
  std::printf("schedule cache: %llu hits / %llu misses (%zu entries)\n",
              static_cast<unsigned long long>(SC.hits()),
              static_cast<unsigned long long>(SC.misses()), SC.size());

  // Persistent-tier report and save (stderr: the stdout table stays
  // identical whether or not the cache tier is attached).
  if (S.cachePersistHits() || S.cachePersistLoadStats().loaded())
    std::fprintf(stderr,
                 "cache: %llu hit(s) served from the persistent tier\n",
                 static_cast<unsigned long long>(S.cachePersistHits()));
  if (!SaveCachePath.empty()) {
    std::string CErr;
    if (S.saveCacheTo(SaveCachePath, &CErr)) {
      std::fprintf(stderr, "cache: saved %llu entries to %s\n",
                   static_cast<unsigned long long>(
                       S.cachePersistSaveStats().saved()),
                   SaveCachePath.c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", CErr.c_str());
      Rc = 1;
    }
  }

  if (!TracePath.empty()) {
    S.tracer().disable();
    if (S.tracer().writeChromeTrace(TracePath))
      std::printf("wrote %s (%llu events across %zu workers, %llu "
                  "dropped)\n",
                  TracePath.c_str(),
                  static_cast<unsigned long long>(S.tracer().totalEvents()),
                  S.tracer().numBuffers(),
                  static_cast<unsigned long long>(
                      S.tracer().droppedEvents()));
    else
      Rc = 1;
  }
  if (!MetricsPath.empty()) {
    std::string J = S.metricsSnapshot().json();
    std::FILE *Out = std::fopen(MetricsPath.c_str(), "wb");
    if (Out) {
      std::fwrite(J.data(), 1, J.size(), Out);
      std::fclose(Out);
      std::printf("wrote %s\n", MetricsPath.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write '%s'\n", MetricsPath.c_str());
      Rc = 1;
    }
  }
  return Rc;
}
