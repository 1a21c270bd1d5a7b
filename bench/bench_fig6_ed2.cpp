//===- bench/bench_fig6_ed2.cpp - Figure 6 reproduction ---------------------===//
//
// Figure 6 of the paper: ED2 of the selected heterogeneous configuration
// normalized to the optimum homogeneous design, per SPECfp benchmark,
// for 1-bus and 2-bus machines. The paper reports ~15% mean benefit,
// ~35% for 200.sixtrack, ~30% for 187.facerec, 20-25% for 189.lucas and
// the smallest benefits (~5%) for 168.wupwise / 173.applu.
//
// Runs on the runtime Session/SuiteRunner API: programs fan out across
// the session's worker pool, loop-timing estimates are shared through
// the session EvalCache (structurally identical loops hit across
// programs), and failed programs surface as structured records.
//
// Flags:
//   --ablation   also run with recurrence pre-placement disabled and
//                with the balance-only refinement objective (what
//                pre-placement and the ED2 objective each buy).
//   --oracle     cross-check the Section 3 estimator: measure every
//                ranked heterogeneous candidate of each program and
//                report the estimator's regret (the ED2 the Section 3
//                estimate loses against measuring every candidate).
//   --threads N  worker-pool parallelism (default: hardware).
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "profiling/Profiler.h"

#include <cstdlib>
#include <cstring>

using namespace hcvliw;

static unsigned ThreadsFlag = 0;

static void runOracle() {
  std::printf("\nOracle cross-check (estimator pick vs best measured "
              "candidate):\n");
  PipelineOptions Opts;
  Session S(Opts, ThreadsFlag);
  const HeterogeneousPipeline &Pipe = S.pipeline();
  TablePrinter T("estimator regret per program");
  T.addRow({"program", "est-pick ED2", "oracle ED2", "regret %"});
  for (const auto &Prog : buildSpecFPSuite()) {
    Profiler Prof(S.machine());
    auto Profile = Prof.profileProgram(Prog.Name, Prog.Loops);
    if (!Profile)
      continue;
    EnergyModel Energy(Opts.Breakdown, Profile->Totals, Profile->TexecRefNs,
                       S.machine().numClusters());
    // The ranking's candidate evaluations share the session's timing
    // cache and worker pool.
    ExplorationEngine Engine(*Profile, S.machine(), Energy, Opts.Tech,
                             S.menu(), Opts.Space);
    auto Ranked = Engine.explore(S.pool(), &S.evalCache()).rankedByED2();
    if (Ranked.empty())
      continue;
    double PickED2 = 0, BestED2 = 0;
    for (size_t I = 0; I < Ranked.size(); ++I) {
      ConfigRunResult M =
          Pipe.measureConfig(*Profile, Prog.Loops, Ranked[I].Config,
                             Ranked[I].Scaling, Energy, true);
      if (!M.Ok)
        continue;
      if (I == 0)
        PickED2 = M.ED2;
      if (BestED2 == 0 || M.ED2 < BestED2)
        BestED2 = M.ED2;
    }
    T.addRow({shortSpecName(Prog.Name), formatString("%.4g", PickED2),
              formatString("%.4g", BestED2),
              formatString("%.2f", 100.0 * (PickED2 / BestED2 - 1.0))});
  }
  T.print();
}

int main(int argc, char **argv) {
  bool Ablation = false, Oracle = false;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--ablation"))
      Ablation = true;
    if (!std::strcmp(argv[I], "--oracle"))
      Oracle = true;
    if (!std::strcmp(argv[I], "--threads") && I + 1 < argc)
      ThreadsFlag = parseThreadsArg(argv[++I]);
  }

  std::printf("Figure 6: ED2 of the heterogeneous approach normalized to "
              "the optimum homogeneous.\n"
              "Paper shape: all < 1.0; sixtrack lowest (~0.65), facerec "
              "~0.70, lucas 0.75-0.80; wupwise/applu highest (~0.95); "
              "mean ~0.85.\n\n");

  BenchReporter Reporter("bench_fig6_ed2");
  TablePrinter T("Figure 6: normalized ED2 (lower is better)");
  SuiteSeriesRunner Series(T, Reporter, ThreadsFlag);

  for (unsigned Buses : {1u, 2u}) {
    PipelineOptions Opts;
    Opts.Buses = Buses;
    Series.run(formatString("%u bus%s", Buses, Buses > 1 ? "es" : ""),
               Opts);

    if (Ablation && Buses == 1) {
      PipelineOptions NoPre = Opts;
      NoPre.Part.PrePlaceRecurrences = false;
      Series.run("1 bus, no rec pre-place", NoPre);

      PipelineOptions BalOnly = Opts;
      BalOnly.Part.ED2Objective = false;
      Series.run("1 bus, balance-only refine", BalOnly);
    }
  }
  T.print();

  if (Oracle)
    runOracle();
  Reporter.write();
  return Series.exitCode();
}
