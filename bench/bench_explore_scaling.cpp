//===- bench/bench_explore_scaling.cpp - Engine thread scaling --------------===//
//
// Measures the exploration engine's wall-clock speedup at 1/2/4/8
// worker threads over an enlarged candidate grid (distinct slow/fast
// ratios, so the timing cache cannot collapse the work) on a many-loop
// program. Prints per-thread-count times, speedups, and the cache's
// effect at the paper-default grid for reference.
//
// The scaling run disables the timing cache: memoization removes most
// of the per-candidate work precisely when candidates share frequency
// shapes, which is the honest serial optimization but a dishonest
// parallel workload. Cache-on numbers are reported separately.
//
// Usage: bench_explore_scaling [--repeats N] [--fast N] [--ratios N]
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "explore/ExplorationEngine.h"
#include "profiling/Profiler.h"
#include "runtime/WorkerPool.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"
#include "workloads/SpecFPSuite.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

using namespace hcvliw;

namespace {

/// A many-loop program: the whole synthetic SPECfp suite concatenated,
/// weights rescaled to keep the profile's budget semantics.
std::vector<Loop> suiteLoops() {
  std::vector<Loop> All;
  auto Suite = buildSpecFPSuite();
  for (auto &Prog : Suite)
    for (Loop &L : Prog.Loops) {
      L.Weight /= static_cast<double>(Suite.size());
      All.push_back(std::move(L));
    }
  return All;
}

/// \p NFast fast factors around the reference and \p NRatios distinct
/// slow/fast ratios in [1, 2]: NFast * NRatios candidates with NRatios
/// distinct frequency shapes.
DesignSpaceOptions enlargedSpace(unsigned NFast, unsigned NRatios) {
  DesignSpaceOptions Space = DesignSpaceOptions::paperDefault();
  Space.FastFactors.clear();
  for (unsigned I = 0; I < NFast; ++I)
    Space.FastFactors.push_back(
        Rational(85 + static_cast<int64_t>(I) * 50 / std::max(1u, NFast - 1),
                 100));
  Space.SlowRatios.clear();
  for (unsigned I = 0; I < NRatios; ++I)
    Space.SlowRatios.push_back(Rational(64 + static_cast<int64_t>(I), 64));
  return Space;
}

/// Reuses one long-lived WorkerPool across repeats (the Session model),
/// so the timings measure evaluation scaling, not thread spawning. A
/// null \p Cache evaluates every candidate directly.
double exploreOnce(const ExplorationEngine &Eng, WorkerPool &Pool,
                   EvalCache *Cache, ExplorationResult *Out = nullptr) {
  ExplorationResult R = Eng.explore(Pool, Cache);
  double Ms = R.Stats.WallMs;
  if (Out)
    *Out = std::move(R);
  return Ms;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Repeats = 3, NFast = 8, NRatios = 48;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--repeats") && I + 1 < argc)
      Repeats = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--fast") && I + 1 < argc)
      NFast = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--ratios") && I + 1 < argc)
      NRatios = static_cast<unsigned>(std::atoi(argv[++I]));
    else {
      std::fprintf(stderr, "usage: %s [--repeats N] [--fast N] [--ratios N]\n",
                   argv[0]);
      return 1;
    }
  }

  MachineDescription M = MachineDescription::paperDefault();
  std::vector<Loop> Loops = suiteLoops();
  Profiler Prof(M);
  auto P = Prof.profileProgram("suite", Loops);
  if (!P) {
    std::fprintf(stderr, "error: profiling failed\n");
    return 1;
  }
  EnergyModel E(EnergyBreakdown(), P->Totals, P->TexecRefNs,
                M.numClusters());
  TechnologyModel Tech = TechnologyModel::paperDefault();

  DesignSpaceOptions Space = enlargedSpace(NFast, NRatios);
  ExplorationEngine Eng(*P, M, E, Tech, FrequencyMenu::continuous(), Space);

  unsigned HW = std::thread::hardware_concurrency();
  std::printf("explore scaling: %zu loops, %zu candidates "
              "(%zu distinct frequency shapes), %u repeats, "
              "hardware threads: %u\n\n",
              P->Loops.size(), Space.numHeteroCandidates(),
              Space.SlowRatios.size(), Repeats, HW);
  if (HW < 4)
    std::printf("WARNING: fewer than 4 hardware threads; parallel "
                "speedups below reflect this machine, not the engine.\n\n");

  BenchReporter Reporter("bench_explore_scaling");
  const unsigned ThreadCounts[] = {1, 2, 4, 8};
  double Base = 0;
  ExplorationResult Ref;
  TablePrinter T("wall time by worker threads (cache off)");
  T.addRow({"threads", "best ms", "speedup vs 1"});
  double SpeedupAt4 = 0;
  for (unsigned TC : ThreadCounts) {
    WorkerPool Pool(TC);
    double BestMs = 0;
    for (unsigned Rep = 0; Rep < Repeats; ++Rep) {
      ExplorationResult R;
      double Ms = exploreOnce(Eng, Pool, /*Cache=*/nullptr, &R);
      if (Rep == 0 || Ms < BestMs)
        BestMs = Ms;
      // Cross-check determinism across thread counts.
      if (TC == 1 && Rep == 0)
        Ref = std::move(R);
      else if (R.Best.Valid && Ref.Best.Valid &&
               R.Best.EstED2 != Ref.Best.EstED2) {
        std::fprintf(stderr,
                     "error: thread count changed the selected design\n");
        return 2; // distinct from the (timing-sensitive) scaling exit 1
      }
    }
    if (TC == 1)
      Base = BestMs;
    double Speedup = Base / BestMs;
    if (TC == 4)
      SpeedupAt4 = Speedup;
    T.addRow({formatString("%u", TC), formatString("%.2f", BestMs),
              formatString("%.2fx", Speedup)});
  }
  T.print();

  // The memoization win at the paper-default grid (5x4 candidates, 4
  // distinct shapes), serial: the cache is the other half of the story.
  DesignSpaceOptions Paper = DesignSpaceOptions::paperDefault();
  ExplorationEngine PaperEng(*P, M, E, Tech, FrequencyMenu::continuous(),
                             Paper);
  WorkerPool Serial(1);
  double NoCacheMs = 0, CacheMs = 0;
  ExplorationResult Memoized;
  for (unsigned Rep = 0; Rep < Repeats; ++Rep) {
    // A fresh cache per repeat, so every memoized run starts cold.
    EvalCache Cache(M, FrequencyMenu::continuous());
    double A = exploreOnce(PaperEng, Serial, /*Cache=*/nullptr);
    double B = exploreOnce(PaperEng, Serial, &Cache, &Memoized);
    if (Rep == 0 || A < NoCacheMs)
      NoCacheMs = A;
    if (Rep == 0 || B < CacheMs)
      CacheMs = B;
  }
  std::printf("\npaper-default grid, 1 thread: %.2f ms direct, %.2f ms "
              "memoized (%.2fx)\n",
              NoCacheMs, CacheMs, NoCacheMs / CacheMs);

  bool ScalingOk = SpeedupAt4 > 1.8 || HW < 4;
  std::printf("\nspeedup at 4 threads over 1: %.2fx %s\n", SpeedupAt4,
              SpeedupAt4 > 1.8
                  ? "(PASS: > 1.8x)"
                  : (HW < 4 ? "(machine has < 4 hardware threads)"
                            : "(FAIL: expected > 1.8x)"));
  Reporter.addMetric("speedup_at_4_threads", SpeedupAt4);
  Reporter.addMetric("memoization_speedup", NoCacheMs / CacheMs);
  // This bench runs a fresh cache per repeat (no Session), so its
  // counters come from the memoized run's own stats.
  Reporter.addMetric("eval_cache_hits",
                     static_cast<double>(Memoized.Stats.CacheHits));
  Reporter.addMetric("eval_cache_misses",
                     static_cast<double>(Memoized.Stats.CacheMisses));
  Reporter.write();
  return ScalingOk ? 0 : 1;
}
