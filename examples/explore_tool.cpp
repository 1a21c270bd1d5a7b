//===- examples/explore_tool.cpp - Design-space exploration CLI -------------===//
//
// Drives the parallel exploration engine over one benchmark program (or
// the whole synthetic SPECfp suite), printing the Pareto frontier and
// search statistics and optionally serializing the full report.
//
// Usage:
//   explore_tool [--program NAME] [--threads N] [--menu K]
//                [--fast LIST] [--ratios LIST] [--num-fast N]
//                [--no-prune] [--no-cache] [--csv PATH] [--json PATH]
//                [--measure-frontier] [--measured-csv PATH]
//                [--measured-json PATH]
//     --program   SPECfp program name (e.g. 171.swim; default: all)
//     --threads   worker threads (default 0 = hardware concurrency)
//     --menu      frequencies per domain (default: any)
//     --fast      comma-separated fast factors, e.g. 9/10,1,11/10
//     --ratios    comma-separated slow/fast ratios, e.g. 1,5/4,3/2
//     --num-fast  number of fast clusters (default 1)
//     --no-prune  skip the Pareto frontier
//     --no-cache  disable timing memoization
//     --csv/--json  write the report (with --program only, the path is
//                   used as-is; over the suite, the program name is
//                   inserted before the extension)
//     --measure-frontier  also measure every frontier point with real
//                   schedules (measure/FrontierMeasurer on a session
//                   pool + ScheduleCache), re-rank by measured ED2 and
//                   write frontier_measured.csv / frontier_measured.json
//                   (paths overridable with --measured-csv/--measured-json)
//     --trace PATH  record a span trace of the run and write it as
//                   Chrome-trace-event JSON (open in Perfetto); results
//                   are bit-identical with or without tracing
//     --metrics PATH  write the metrics snapshot (stage wall-time
//                   histograms, cache counters) as JSON
//     --help        usage
//
//===----------------------------------------------------------------------===//

#include "explore/ConfigurationSelector.h"
#include "explore/ExplorationReport.h"
#include "runtime/FrontierMeasurer.h"
#include "obs/AllocHook.h"
#include "profiling/Profiler.h"
#include "runtime/WorkerPool.h"
#include "support/StrUtil.h"
#include "workloads/SpecFPSuite.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include <cstdio>
#include <cstring>
#include <string>

namespace hcvliw {
/// Allocation counter surfaced to the tracer: every span in --trace
/// output carries its heap-allocation delta.
std::atomic<uint64_t> ToolAllocCounter{0};
} // namespace hcvliw

HCVLIW_INSTRUMENT_ALLOCS(hcvliw::ToolAllocCounter)

using namespace hcvliw;

static bool parseRational(const std::string &S, Rational &Out) {
  size_t Slash = S.find('/');
  int64_t N = 0, D = 1;
  if (Slash == std::string::npos) {
    if (!parseInt64(S, N))
      return false;
  } else {
    if (!parseInt64(S.substr(0, Slash), N) ||
        !parseInt64(S.substr(Slash + 1), D) || D <= 0)
      return false;
  }
  Out = Rational(N, D);
  return Out.isPositive();
}

static bool parseRationalList(const char *Arg, std::vector<Rational> &Out) {
  Out.clear();
  for (const std::string &Tok : splitString(Arg, ",")) {
    Rational R;
    if (!parseRational(Tok, R))
      return false;
    Out.push_back(R);
  }
  return !Out.empty();
}

/// "out.csv" + "171.swim" -> "out.171.swim.csv". Only a '.' in the
/// final path component is an extension.
static std::string perProgramPath(const std::string &Path,
                                  const std::string &Program) {
  size_t Slash = Path.rfind('/');
  size_t Dot = Path.rfind('.');
  if (Dot == std::string::npos ||
      (Slash != std::string::npos && Dot < Slash))
    return Path + "." + Program;
  return Path.substr(0, Dot) + "." + Program + Path.substr(Dot);
}

int main(int argc, char **argv) {
  std::string Program;
  std::string CsvPath, JsonPath;
  ExploreOptions Opts;
  unsigned Threads = 0;
  DesignSpaceOptions Space = DesignSpaceOptions::paperDefault();
  unsigned MenuK = 0;
  bool MeasureFrontier = false;
  std::string MeasuredCsv = "frontier_measured.csv";
  std::string MeasuredJson = "frontier_measured.json";
  std::string TracePath, MetricsPath;

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
      std::printf(
          "usage: explore_tool [options]\n"
          "  --program NAME       SPECfp program (default: whole suite)\n"
          "  --threads N          worker threads (0 = hardware)\n"
          "  --menu K             frequencies per domain (default: any)\n"
          "  --fast LIST          fast factors, e.g. 9/10,1,11/10\n"
          "  --ratios LIST        slow/fast ratios, e.g. 1,5/4,3/2\n"
          "  --num-fast N         number of fast clusters (default 1)\n"
          "  --no-prune           skip the Pareto frontier\n"
          "  --no-cache           disable timing memoization\n"
          "  --csv/--json PATH    write the exploration report\n"
          "  --measure-frontier   measure frontier points with real "
          "schedules\n"
          "  --measured-csv PATH  measured-frontier CSV path\n"
          "  --measured-json PATH measured-frontier JSON path\n"
          "  --trace PATH         write a Perfetto-loadable span trace\n"
          "                       (tracing never changes results)\n"
          "  --metrics PATH       write the metrics snapshot as JSON\n"
          "  --help               this text\n");
      return 0;
    } else if (!std::strcmp(argv[I], "--trace")) {
      TracePath = need("--trace");
    } else if (!std::strcmp(argv[I], "--metrics")) {
      MetricsPath = need("--metrics");
    } else if (!std::strcmp(argv[I], "--program")) {
      Program = need("--program");
    } else if (!std::strcmp(argv[I], "--threads")) {
      Threads = static_cast<unsigned>(
          needUnsigned("--threads", MaxThreadCount));
    } else if (!std::strcmp(argv[I], "--menu")) {
      MenuK = static_cast<unsigned>(
          needUnsigned("--menu", FrequencyMenu::MaxLadderSize));
    } else if (!std::strcmp(argv[I], "--fast")) {
      if (!parseRationalList(need("--fast"), Space.FastFactors)) {
        std::fprintf(stderr, "error: bad --fast list\n");
        return 1;
      }
    } else if (!std::strcmp(argv[I], "--ratios")) {
      if (!parseRationalList(need("--ratios"), Space.SlowRatios)) {
        std::fprintf(stderr, "error: bad --ratios list\n");
        return 1;
      }
    } else if (!std::strcmp(argv[I], "--num-fast")) {
      Space.NumFastClusters =
          static_cast<unsigned>(needUnsigned("--num-fast", UINT32_MAX));
    } else if (!std::strcmp(argv[I], "--no-prune")) {
      Opts.ComputeFrontier = false;
    } else if (!std::strcmp(argv[I], "--no-cache")) {
      Opts.UseCache = false;
    } else if (!std::strcmp(argv[I], "--csv")) {
      CsvPath = need("--csv");
    } else if (!std::strcmp(argv[I], "--json")) {
      JsonPath = need("--json");
    } else if (!std::strcmp(argv[I], "--measure-frontier")) {
      MeasureFrontier = true;
    } else if (!std::strcmp(argv[I], "--measured-csv")) {
      MeasuredCsv = need("--measured-csv");
    } else if (!std::strcmp(argv[I], "--measured-json")) {
      MeasuredJson = need("--measured-json");
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[I]);
      return 1;
    }
  }

  std::vector<BenchmarkProgram> Programs;
  if (!Program.empty()) {
    bool Known = false;
    for (const std::string &N : specFPProgramNames())
      Known |= N == Program;
    if (!Known) {
      std::fprintf(stderr, "error: unknown program '%s'; known:\n",
                   Program.c_str());
      for (const std::string &N : specFPProgramNames())
        std::fprintf(stderr, "  %s\n", N.c_str());
      return 1;
    }
    Programs.push_back(buildSpecFPProgram(Program));
  } else {
    Programs = buildSpecFPSuite();
  }
  bool Suite = Programs.size() > 1;

  MachineDescription M = MachineDescription::paperDefault();
  FrequencyMenu Menu = MenuK > 0 ? FrequencyMenu::relativeLadder(MenuK)
                                 : FrequencyMenu::continuous();
  TechnologyModel Tech = TechnologyModel::paperDefault();
  Profiler Prof(M);

  // The runtime substrate, shared across every program of the run: one
  // worker pool (no per-explore thread spawning) and one timing cache
  // (structurally identical loops hit across programs). The
  // measure-frontier mode needs the full Session (its ScheduleCache
  // memoizes per-loop schedules across frontier points and programs),
  // so it runs on a session-owned pool and cache instead.
  std::unique_ptr<WorkerPool> OwnPool;
  std::unique_ptr<EvalCache> OwnCache;
  std::unique_ptr<Session> Sess;
  if (MeasureFrontier) {
    PipelineOptions PO;
    if (MenuK > 0)
      PO.MenuSize = MenuK;
    PO.Space = Space;
    Sess = std::make_unique<Session>(PO, Threads);
    Opts.Pool = &Sess->pool();
    Opts.SharedCache = &Sess->evalCache();
  } else {
    OwnPool = std::make_unique<WorkerPool>(Threads);
    OwnCache = std::make_unique<EvalCache>(M, Menu);
    Opts.Pool = OwnPool.get();
    Opts.SharedCache = OwnCache.get();
  }
  EvalCache &Cache = *Opts.SharedCache;
  std::vector<MeasuredFrontier> Measured;

  // In session mode spans and metrics land on the session's own
  // tracer/registry (so frontier measurement phases appear too);
  // standalone explorations use tool-owned ones.
  obs::Tracer OwnTracer;
  obs::MetricsRegistry OwnMetrics;
  obs::Tracer &Tracer = Sess ? Sess->tracer() : OwnTracer;
  obs::MetricsRegistry &Metrics = Sess ? Sess->metrics() : OwnMetrics;
  if (!TracePath.empty())
    Tracer.enable();

  int Rc = 0;
  for (const BenchmarkProgram &Prog : Programs) {
    obs::Span ProgSp(&Tracer, "explore:", Prog.Name);
    auto ProgT0 = std::chrono::steady_clock::now();
    auto P = Prof.profileProgram(Prog.Name, Prog.Loops);
    if (!P) {
      std::fprintf(stderr, "error: profiling failed on %s\n",
                   Prog.Name.c_str());
      Rc = 1;
      continue;
    }
    EnergyModel E(EnergyBreakdown(), P->Totals, P->TexecRefNs,
                  M.numClusters());
    ExplorationEngine Eng(*P, M, E, Tech, Menu, Space);
    ExplorationResult R = Eng.explore(Opts);

    ExplorationReport Rep(Prog.Name, R);
    std::printf("%s\n", Rep.summary().c_str());
    if (!R.Best.Valid) {
      std::fprintf(stderr, "error: no feasible design for %s\n",
                   Prog.Name.c_str());
      Rc = 1;
    }

    if (MeasureFrontier) {
      MeasuredFrontier F =
          FrontierMeasurer(*Sess).measure(Prog.Name, Prog.Loops, *P);
      std::printf("measured frontier: %zu points, argmin %s, mean |ED2 "
                  "error| %.4f\n",
                  F.Points.size(),
                  F.ArgminAgrees ? "agrees with the estimate"
                                 : "DIFFERS from the estimate",
                  F.meanAbsED2Error());
      Measured.push_back(std::move(F));
    }

    if (!CsvPath.empty()) {
      std::string Path = Suite ? perProgramPath(CsvPath, Prog.Name) : CsvPath;
      if (!Rep.writeCsv(Path)) {
        std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
        Rc = 1;
      } else {
        std::printf("wrote %s\n", Path.c_str());
      }
    }
    if (!JsonPath.empty()) {
      std::string Path =
          Suite ? perProgramPath(JsonPath, Prog.Name) : JsonPath;
      if (!Rep.writeJson(Path)) {
        std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
        Rc = 1;
      } else {
        std::printf("wrote %s\n", Path.c_str());
      }
    }
    Metrics.observeMs("stage.explore.ms",
                      std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - ProgT0)
                          .count());
    std::printf("\n");
  }
  if (MeasureFrontier) {
    if (writeFrontierCsv(Measured, MeasuredCsv))
      std::printf("wrote %s\n", MeasuredCsv.c_str());
    else {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   MeasuredCsv.c_str());
      Rc = 1;
    }
    if (writeFrontierJson(Measured, MeasuredJson))
      std::printf("wrote %s\n", MeasuredJson.c_str());
    else {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   MeasuredJson.c_str());
      Rc = 1;
    }
    const ScheduleCache &SC = Sess->scheduleCache();
    std::printf("schedule cache over the whole run: %llu hits, %llu "
                "misses, %zu entries\n",
                static_cast<unsigned long long>(SC.hits()),
                static_cast<unsigned long long>(SC.misses()), SC.size());
  }
  if (Programs.size() > 1 && Opts.UseCache)
    std::printf("shared timing cache over the whole run: %llu hits, "
                "%llu misses, %zu entries\n",
                static_cast<unsigned long long>(Cache.hits()),
                static_cast<unsigned long long>(Cache.misses()),
                Cache.size());

  if (!TracePath.empty()) {
    Tracer.disable();
    if (Tracer.writeChromeTrace(TracePath))
      std::printf("wrote %s (%llu events across %zu workers, %llu "
                  "dropped)\n",
                  TracePath.c_str(),
                  static_cast<unsigned long long>(Tracer.totalEvents()),
                  Tracer.numBuffers(),
                  static_cast<unsigned long long>(Tracer.droppedEvents()));
    else
      Rc = 1;
  }
  if (!MetricsPath.empty()) {
    std::string J =
        Sess ? Sess->metricsSnapshot().json() : Metrics.snapshot().json();
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
