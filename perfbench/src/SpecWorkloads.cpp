//===- perfbench/src/SpecWorkloads.cpp - specfp_frontier / specfp_warm ----===//
//
// The two workloads over the paper's ten-program synthetic SPECfp suite.
//
//   specfp_frontier  one iteration = a cold --measure-frontier run: a
//                    fresh 1-thread Session, SuiteRunner::run with
//                    MeasureFrontier (the WorkerPool runs programs
//                    and frontier points inline; the ScheduleCache
//                    sees mixed inserts and cross-point hits). One
//                    untimed 4-thread iteration checks thread
//                    invariance.
//   specfp_warm      one iteration = a fresh 1-thread Session that loads
//                    a cache snapshot (loadCacheFrom) and runs the plain
//                    suite: every schedule and selection is a cache
//                    read, so profiling and snapshot loading dominate.
//                    The snapshot is written in set-up from a cold run.
//
// The seed only permutes the submission order of the ten programs; the
// digest is taken in name order, so every seed must reproduce the
// digest committed in perfbench/expected_digests.txt.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "obs/Stopwatch.h"
#include "partition/LoopScheduler.h"
#include "partition/ScheduleScratch.h"
#include "runtime/SuiteRunner.h"
#include "support/RNG.h"
#include "vliwsim/PipelinedSimulator.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

using namespace hcvliw;

namespace perfbench {

namespace {

/// Schedules the oracle re-executes on the simulator per run (a seeded
/// sample of the suite's selected-config schedules).
constexpr size_t OracleSimSample = 24;
/// Iterations each sampled schedule runs on the simulator.
constexpr uint64_t OracleSimIterations = 16;

std::vector<size_t> nameOrder(const std::vector<std::string> &Names) {
  std::vector<size_t> Ix(Names.size());
  std::iota(Ix.begin(), Ix.end(), 0);
  std::sort(Ix.begin(), Ix.end(),
            [&](size_t A, size_t B) { return Names[A] < Names[B]; });
  return Ix;
}

/// The canonical digest of a suite result: per program in name order,
/// the ED2 ratio and each loop's measured IT on both configurations,
/// then the frontier CSV rows, then the failure records.
/// \p PerturbFirst nudges the first ED2 ratio by one ulp (self-test).
uint64_t digestSuite(const SuiteResult &R, bool PerturbFirst = false) {
  Digest D;
  bool First = true;
  for (size_t I : nameOrder(R.Names)) {
    const ProgramRunResult &P = R.Details[I];
    D.str(R.Names[I]);
    double Ratio = R.ED2Ratios[I];
    if (PerturbFirst && First)
      Ratio = std::nextafter(Ratio, 2 * Ratio + 1);
    First = false;
    D.f64(Ratio);
    for (const ConfigRunResult *C : {&P.HetMeasured, &P.HomMeasured})
      for (const LoopRunStat &L : C->Loops) {
        D.str(L.Name);
        D.f64(L.ITNs);
      }
    if (!R.Frontiers.empty())
      D.str(R.Frontiers[I].csvRows());
  }
  std::vector<std::string> FailNames;
  for (const SuiteFailure &F : R.Failures)
    FailNames.push_back(F.Program);
  for (size_t I : nameOrder(FailNames)) {
    D.str(R.Failures[I].Program);
    D.str(pipelineStageName(R.Failures[I].Stage));
  }
  return D.value();
}

class SpecWorkload : public Workload {
  const bool Frontier;
  /// Timed iterations run on one thread (see main.cpp); the untimed
  /// invariance iteration (frontier only) runs on CheckThreads.
  static constexpr unsigned CheckThreads = 4;
  const std::string SnapshotPath; ///< empty: cold sessions
  uint64_t Seed = 0;
  std::vector<BenchmarkProgram> Programs;
  SuiteResult Last;
  uint64_t ColdDigest = 0;       ///< the set-up run's (warm only)
  std::vector<double> SaveMs;    ///< saveCacheTo per set-up (warm only)

  SuiteResult runSuite(unsigned NThreads, bool Traced, Counters *Layer,
                       IterationOutcome *Out);

public:
  SpecWorkload(bool IsFrontier, std::string Snapshot)
      : Frontier(IsFrontier), SnapshotPath(std::move(Snapshot)) {}

  const char *unitName() const override { return "programs"; }
  bool hasCommittedDigest() const override { return true; }

  void setup(uint64_t S) override;
  IterationOutcome iterate(bool Traced, Counters &Layer) override {
    IterationOutcome Out;
    Last = runSuite(1, Traced, &Layer, &Out);
    return Out;
  }
  uint64_t perturbedDigest() const override { return digestSuite(Last, true); }
  void check(uint64_t ExpectedDigest, CheckTally &T, Counters &Quality,
             Counters &RunLayer) override;
};

void SpecWorkload::setup(uint64_t S) {
  Seed = S;
  Programs = buildSpecFPSuite();
  RNG Rng(Seed);
  Rng.shuffle(Programs);
  if (SnapshotPath.empty())
    return;
  // The warm tier's snapshot comes from one cold run in this process.
  Session Cold(PipelineOptions(), 1);
  ColdDigest = digestSuite(SuiteRunner(Cold).run(Programs));
  obs::Stopwatch SW;
  std::string Err;
  if (!Cold.saveCacheTo(SnapshotPath, &Err))
    throw std::runtime_error("saveCacheTo: " + Err);
  SaveMs.push_back(SW.elapsedMs());
}

SuiteResult SpecWorkload::runSuite(unsigned NThreads, bool Traced,
                                   Counters *Layer, IterationOutcome *Out) {
  uint64_t Allocs0 = allocationsSoFar();
  obs::Stopwatch Wall;
  auto S = std::make_unique<Session>(PipelineOptions(), NThreads);
  double SessionMs = Wall.elapsedMs();
  if (Traced)
    S->tracer().enable({TraceBufferEvents});

  SuiteResult R;
  std::vector<double> DoneMs;
  double LoadMs = 0;
  {
    obs::Span Root(&S->tracer(), "bench.iteration");
    obs::Stopwatch IterSW;
    if (!SnapshotPath.empty()) {
      obs::Span LoadSp(&S->tracer(), "bench.cache_load");
      std::string Err;
      if (!S->loadCacheFrom(SnapshotPath, &Err))
        throw std::runtime_error("loadCacheFrom: " + Err);
      LoadMs = IterSW.elapsedMs();
    }
    SuiteOptions SO;
    SO.MeasureFrontier = Frontier;
    SO.OnProgramDone = [&](const SuiteProgress &) {
      DoneMs.push_back(IterSW.elapsedMs());
    };
    R = SuiteRunner(*S).run(Programs, SO);
  }
  double IterMs = Wall.elapsedMs();

  if (Traced) {
    Counters &L = *Layer;
    L["runtime.allocs_per_iter"] +=
        static_cast<double>(allocationsSoFar() - Allocs0);
    S->tracer().disable();
    L["runtime.cache_load_ms"] += LoadMs;
    L["runtime.cache_load_entries"] +=
        static_cast<double>(S->cachePersistLoadStats().loaded());
    L["runtime.program_done_ms.p50"] += median(DoneMs);
    L["runtime.program_done_ms.max"] += percentile(DoneMs, 100);
    for (const MeasuredFrontier &F : R.Frontiers)
      L["runtime.frontier_points"] += static_cast<double>(F.Points.size());
    for (const ProgramRunResult &P : R.Details)
      L["profiling.loops_scheduled"] +=
          static_cast<double>(P.Profile.Loops.size());
    const EvalCache &EC = S->evalCache();
    L["explore.eval_hits"] += static_cast<double>(EC.hits());
    L["explore.eval_misses"] += static_cast<double>(EC.misses());
    L["explore.selection_memo_hits"] += static_cast<double>(EC.selectionHits());
    L["explore.selection_memo_misses"] +=
        static_cast<double>(EC.selectionMisses());
    L["measure.schedule_hits"] +=
        static_cast<double>(S->scheduleCache().hits());
    L["measure.schedule_misses"] +=
        static_cast<double>(S->scheduleCache().misses());
    // Partitioner effort of fresh schedule runs, as the session's
    // metrics registry counts it.
    obs::MetricsSnapshot MS = S->metricsSnapshot();
    auto counter = [&](const char *Name) {
      auto It = MS.Counters.find(Name);
      return It == MS.Counters.end() ? 0.0 : static_cast<double>(It->second);
    };
    L["partition.levels"] += counter("part.levels");
    L["partition.matched_pairs"] += counter("part.matched_pairs");
    L["partition.refine_moves"] += counter("part.refine_moves");
    L["partition.fm_moves"] += counter("part.fm_moves");
    L["partition.coarsen_memo_hits"] += counter("part.coarsen_memo_hits");
    L["sched.fallback_rational"] += counter("sched.fallback_rational");
    Out->TraceJson = S->tracer().chromeTraceJson();
  }

  obs::Stopwatch Teardown;
  S.reset();
  double TeardownMs = Teardown.elapsedMs();
  if (Traced)
    (*Layer)["runtime.session_ms"] += SessionMs + TeardownMs;

  Out->WallMs = IterMs + TeardownMs;
  Out->Units = R.Names.size();
  Out->Failed = R.Failures.size();
  for (const ProgramRunResult &P : R.Details)
    Out->Failed += P.HetMeasured.Failures + P.HomMeasured.Failures;
  Out->Digest = digestSuite(R);
  return R;
}

/// Re-derives every (program, loop, selected config) schedule of \p R
/// through LoopScheduler::schedule outside any cache, checks each
/// against the measured IT and the validator, and re-executes a seeded
/// sample on the pipelined MCD simulator.
void oracleSuite(const SuiteResult &R,
                 const std::vector<BenchmarkProgram> &Programs, uint64_t Seed,
                 CheckTally &T, Counters &Quality, Counters &RunLayer) {
  PipelineOptions PO;
  MachineDescription M =
      MachineDescription::paperDefault(PO.Buses, PO.NumClusters);
  ScheduleScratch Scratch;

  struct Derived {
    const Loop *L;
    LoopScheduleResult LR;
  };
  std::vector<Derived> All;
  double ItOverMit = 0;
  uint64_t Divergences = 0;
  for (size_t I : nameOrder(R.Names)) {
    const ProgramRunResult &P = R.Details[I];
    const BenchmarkProgram *Prog = nullptr;
    for (const BenchmarkProgram &B : Programs)
      if (B.Name == R.Names[I])
        Prog = &B;
    EnergyModel Energy(PO.Breakdown, P.Profile.Totals, P.Profile.TexecRefNs,
                       M.numClusters());
    for (bool Het : {true, false}) {
      const SelectedDesign &D = Het ? P.HetDesign : P.HomDesign;
      const ConfigRunResult &Measured = Het ? P.HetMeasured : P.HomMeasured;
      LoopScheduleOptions LSO;
      LSO.Menu = Het ? HeterogeneousPipeline::menuFor(PO)
                     : FrequencyMenu::continuous();
      LSO.Part = PO.Part;
      LSO.Part.ED2Objective = Het && PO.Part.ED2Objective;
      LSO.MaxITSteps = PO.MaxITSteps;
      LoopScheduler LS(M, D.Config, LSO);
      for (const Loop &L : Prog->Loops) {
        LoopScheduleResult LR =
            LS.schedule(L, Het ? &Energy : nullptr, Het ? &D.Scaling : nullptr,
                        &Scratch);
        const LoopRunStat *Stat = nullptr;
        for (const LoopRunStat &S : Measured.Loops)
          if (S.Name == L.Name)
            Stat = &S;
        bool Agrees = LR.Success && Stat &&
                      LR.Sched.Plan.ITNs.toDouble() == Stat->ITNs;
        std::string What = P.Name + "/" + L.Name + (Het ? " het" : " hom");
        T.record(Agrees, "oracle IT matches the measured IT: " + What);
        if (!LR.Success) {
          ++Divergences;
          continue;
        }
        std::string Err = validateSchedule(M, LR.PG, LR.Sched);
        T.record(Err.empty(), "validator: " + What + " " + Err);
        Divergences += !Agrees + !Err.empty();
        ItOverMit += (LR.Sched.Plan.ITNs / LR.MITNs).toDouble();
        All.push_back({&L, std::move(LR)});
      }
    }
  }

  std::vector<size_t> Sample(All.size());
  std::iota(Sample.begin(), Sample.end(), 0);
  RNG Rng(Seed ^ 0x0ac1e5eedull);
  Rng.shuffle(Sample);
  Sample.resize(std::min(Sample.size(), OracleSimSample));
  for (size_t Ix : Sample) {
    const Derived &D = All[Ix];
    std::string Err = checkFunctionalEquivalence(
        *D.L, D.LR.PG, D.LR.Sched, M,
        std::min<uint64_t>(D.L->TripCount, OracleSimIterations));
    T.record(Err.empty(), "simulator: " + D.L->Name + " " + Err);
    Divergences += !Err.empty();
  }
  RunLayer["vliwsim.checks"] += static_cast<double>(Sample.size());
  RunLayer["vliwsim.divergences"] += static_cast<double>(Divergences);
  Quality["it_over_mit_mean"] =
      All.empty() ? 0 : ItOverMit / static_cast<double>(All.size());
}

void SpecWorkload::check(uint64_t ExpectedDigest, CheckTally &T,
                         Counters &Quality, Counters &RunLayer) {
  if (Frontier) {
    // Thread invariance: one untimed multi-thread iteration.
    IterationOutcome Many;
    runSuite(CheckThreads, false, nullptr, &Many);
    T.record(Many.Digest == ExpectedDigest,
             "4-thread frontier digest matches the expectation");
  } else {
    // The warm result must equal the cold run that wrote the snapshot.
    T.record(ColdDigest == ExpectedDigest,
             "cold set-up run digest matches the expectation");
  }
  oracleSuite(Last, Programs, Seed, T, Quality, RunLayer);

  // Sums run in name order, so the submission order cannot move an ulp.
  // Estimate-vs-measurement error: over every measurable frontier point
  // (specfp_frontier), or at each program's selected design (plain run).
  double RatioSum = 0, ErrSum = 0;
  size_t ErrN = 0;
  for (size_t I : nameOrder(Last.Names)) {
    RatioSum += Last.ED2Ratios[I];
    if (Frontier) {
      for (const FrontierPointMeasurement &Pt : Last.Frontiers[I].Points)
        if (Pt.Measured.Ok) {
          ErrSum += std::fabs(Pt.ED2Error);
          ++ErrN;
        }
    } else {
      const ProgramRunResult &P = Last.Details[I];
      ErrSum += std::fabs(P.HetMeasured.ED2 / P.HetDesign.EstED2 - 1.0);
      ++ErrN;
    }
  }
  Quality["ed2_ratio_mean"] =
      Last.Names.empty() ? 0 : RatioSum / static_cast<double>(Last.Names.size());
  Quality["ed2_est_err_mean"] = ErrN ? ErrSum / static_cast<double>(ErrN) : 0;
  RunLayer["runtime.cache_save_ms"] = median(SaveMs);
}

} // namespace

std::unique_ptr<Workload> makeSpecFrontierWorkload() {
  return std::make_unique<SpecWorkload>(true, std::string());
}

std::unique_ptr<Workload> makeSpecWarmWorkload(const std::string &OutDir) {
  return std::make_unique<SpecWorkload>(false, OutDir + "/specfp_warm.cache");
}

} // namespace perfbench
