//===- measure/ScheduleMeasurer.cpp - Measured-schedule evaluation ----------===//

#include "measure/ScheduleMeasurer.h"

#include "fault/Fault.h"
#include "obs/Stopwatch.h"
#include "partition/ScheduleScratch.h"
#include "support/HashUtil.h"
#include "vliwsim/PipelinedSimulator.h"

#include <algorithm>
#include <cassert>

using namespace hcvliw;

ScheduleMeasurer::ScheduleMeasurer(const MachineDescription &M,
                                   const MeasureOptions &O,
                                   ScheduleCache *SharedCache,
                                   ScheduleScratchPool *ScratchPool,
                                   obs::Tracer *Tr,
                                   obs::MetricsRegistry *Mx)
    : Machine(M), Opts(O), Cache(SharedCache), Scratches(ScratchPool),
      Trace(Tr), Metrics(Mx) {}

namespace {

void mixMenu(FnvHasher &H, const FrequencyMenu &Menu) {
  H.mix(Menu.isContinuous() ? 1u : Menu.frequencies().empty() ? 2u : 3u);
  H.mixVector(Menu.frequencies());
  H.mixVector(Menu.ratios());
}

/// Everything the ED2 partitioning objective reads off the energy
/// model: the per-unit energies (which embed the breakdown shares and
/// the reference activity) and the cluster count.
void mixEnergy(FnvHasher &H, const EnergyModel &E) {
  H.mix(E.numClusters());
  H.mixDouble(E.insUnit());
  H.mixDouble(E.commUnit());
  H.mixDouble(E.accessUnit());
  H.mixDouble(E.clusterLeakPerNs());
  H.mixDouble(E.icnLeakPerNs());
  H.mixDouble(E.cacheLeakPerNs());
}

void mixScaling(FnvHasher &H, const HeteroScaling &S) {
  H.mix(S.Clusters.size());
  for (const DomainScaling &D : S.Clusters) {
    H.mixDouble(D.Delta);
    H.mixDouble(D.Sigma);
  }
  H.mixDouble(S.Icn.Delta);
  H.mixDouble(S.Icn.Sigma);
  H.mixDouble(S.Cache.Delta);
  H.mixDouble(S.Cache.Sigma);
}

} // namespace

uint64_t ScheduleMeasurer::loopScheduleKey(const Loop &L,
                                           const HeteroConfig &Config,
                                           const HeteroScaling &Scaling,
                                           const EnergyModel &Energy,
                                           bool ED2Objective) const {
  FnvHasher H;
  H.mix(L.structuralFingerprint());

  // The scheduler reads the config only through each domain's fmax
  // (DomainPlanner); voltages reach it solely via Scaling below, so
  // homogeneous-objective runs hit across designs differing only in
  // voltage.
  H.mix(Config.Clusters.size());
  for (const DomainOperatingPoint &P : Config.Clusters)
    H.mixRational(P.PeriodNs);
  H.mixRational(Config.Icn.PeriodNs);
  H.mixRational(Config.Cache.PeriodNs);

  H.mix(ED2Objective ? 1u : 2u);
  mixMenu(H, ED2Objective ? Opts.Menu : FrequencyMenu::continuous());

  // Effective partitioner objective (the ablation knob can force
  // balance-only even on the heterogeneous machine).
  bool EffectiveED2 = ED2Objective && Opts.Part.ED2Objective;
  H.mix(EffectiveED2 ? 1u : 2u);
  H.mix(Opts.Part.PrePlaceRecurrences ? 1u : 2u);
  H.mix(Opts.Part.MaxRefinePasses);
  H.mix(Opts.Part.MaxRefineMacros);
  H.mix(Opts.Part.CoarsestPerCluster);
  H.mix(Opts.Part.MaxFMPasses);
  H.mix(Opts.Sched.BudgetFactor);
  H.mix(Opts.Sched.BudgetRefOps);
  H.mixSigned(Opts.Sched.MaxSlotMultiple);
  H.mix(Opts.Sched.CompactLifetimes ? 1u : 2u);
  H.mix(Opts.MaxITSteps);
  // The effort deadline changes sweep outcomes when it fires, so it is
  // part of the key (unlike WarmStart/UseTickGrid, which never do).
  H.mix(Opts.EffortDeadline);

  // The energy model and the per-domain scaling factors steer
  // partition refinement only under the ED2 objective; the baseline
  // objective reads neither.
  if (EffectiveED2) {
    mixEnergy(H, Energy);
    mixScaling(H, Scaling);
  }
  return H.digest();
}

ConfigRunResult ScheduleMeasurer::measure(const ProgramProfile &Profile,
                                          const std::vector<Loop> &Loops,
                                          const HeteroConfig &Config,
                                          const HeteroScaling &Scaling,
                                          const EnergyModel &Energy,
                                          bool ED2Objective) const {
  ConfigRunResult R;
  assert(Profile.Loops.size() == Loops.size() &&
         "profile does not match the loop list");
  obs::Span CfgSp(Trace, ED2Objective ? "measure.config:het"
                                      : "measure.config:hom");

  // Fault site: start of one config measurement (context = program,
  // which each suite worker processes serially, so the occurrence
  // count is thread-count invariant).
  HCVLIW_FAULT_POINT(Opts.Fault, "measure.config", Profile.Name);
  const bool FaultsArmed = Opts.Fault && Opts.Fault->armed();
  // While armed, bypass the shared schedule cache: which worker
  // populates a cross-program entry is a timing race, and a hit would
  // skip the scheduling run whose site counters must advance. Healthy
  // runs (the only ones the determinism pin covers) keep the cache.
  ScheduleCache *UseCache = FaultsArmed ? nullptr : Cache;

  LoopScheduleOptions LSO;
  // Homogeneous baselines run at one fixed frequency; only the
  // heterogeneous machine negotiates per-loop (II, freq) pairs from the
  // restricted menu.
  LSO.Menu = ED2Objective ? Opts.Menu : FrequencyMenu::continuous();
  LSO.Part = Opts.Part;
  // The ablation knob in Opts.Part can force the balance-only objective
  // even on the heterogeneous machine.
  LSO.Part.ED2Objective = ED2Objective && Opts.Part.ED2Objective;
  LSO.Sched = Opts.Sched;
  LSO.MaxITSteps = Opts.MaxITSteps;
  LSO.EffortDeadline = Opts.EffortDeadline;
  LSO.Fault = Opts.Fault;
  LSO.FaultContext = Profile.Name;
  LoopScheduler Sched(Machine, Config, LSO);

  // The per-worker arena: the session pool hands this thread its own,
  // or a local one serves this call. Acquired once per measurement, not
  // per loop; schedule() results never depend on the arena.
  std::unique_ptr<ScheduleScratch> OwnScratch;
  ScheduleScratch *Scratch;
  if (Scratches) {
    Scratch = &Scratches->forThisThread();
  } else {
    OwnScratch = std::make_unique<ScheduleScratch>();
    Scratch = OwnScratch.get();
  }

  double TexecNs = 0;
  std::vector<double> WIns(Machine.numClusters(), 0.0);
  double Comms = 0, Mem = 0;

  // Fresh (uncached) schedule runs: traced through the Figure 5
  // driver's own spans and timed into the per-stage wall histogram.
  // Timing only observes — the result never depends on it.
  //
  // Graceful degradation, rung 1 (cold replay): a throw out of the
  // warm-start sweep — injected at "sched.warm", or a real defect in
  // the warm memos — is answered by replaying the loop on the cold
  // WarmStart=false path, which recomputes everything from scratch and
  // shares none of the warm code. The retry does not re-fire an
  // Nth-occurrence fault (the occurrence already counted), and a throw
  // out of the cold path itself propagates: there is no rung below.
  auto scheduleFresh = [&](const Loop &L) {
    obs::Stopwatch SW;
    LoopScheduleResult LR;
    try {
      LR = Sched.schedule(L, ED2Objective ? &Energy : nullptr,
                          ED2Objective ? &Scaling : nullptr, Scratch, Trace);
    } catch (...) {
      if (!LSO.WarmStart)
        throw;
      ++R.ColdReplays;
      if (Metrics)
        Metrics->addCounter("degrade.cold_replay");
      LoopScheduleOptions ColdLSO = LSO;
      ColdLSO.WarmStart = false;
      LoopScheduler ColdSched(Machine, Config, ColdLSO);
      LR = ColdSched.schedule(L, ED2Objective ? &Energy : nullptr,
                              ED2Objective ? &Scaling : nullptr, Scratch,
                              Trace);
    }
    if (Metrics) {
      Metrics->observeMs("stage.loop_schedule.ms", SW.elapsedMs());
      // Partitioner effort of this fresh run (cache hits add nothing).
      Metrics->addCounter("part.levels", LR.PartStats.Levels);
      Metrics->addCounter("part.matched_pairs", LR.PartStats.MatchedPairs);
      Metrics->addCounter("part.refine_moves", LR.PartStats.RefineMoves);
      Metrics->addCounter("part.fm_moves", LR.PartStats.FMMoves);
      Metrics->addCounter("part.score_evals", LR.PartStats.ScoreEvals);
      Metrics->addCounter("part.bound_rejects", LR.PartStats.BoundRejects);
      Metrics->addCounter("part.coarsen_memo_hits",
                          LR.PartStats.CoarsenMemoHits);
    }
    return LR;
  };

  // Graceful degradation, rung 3 (analytic estimate): account a loop
  // from its reference-profile numbers instead of a measured schedule
  // — reference execution time, per-iteration activity spread evenly
  // across the clusters (no assignment exists to say better). A pure
  // function of the profile, so degraded measurements stay
  // deterministic; the loop is flagged rather than silently blended.
  auto analyticLoop = [&](const Loop &L, const LoopProfile &LP) {
    double LoopT = LP.Invocations * LP.TexecRefNs.toDouble();
    TexecNs += LoopT;
    double Iters = LP.Invocations * static_cast<double>(L.TripCount);
    double PerCluster =
        LP.PerIter.WeightedIns * Iters / Machine.numClusters();
    for (double &W : WIns)
      W += PerCluster;
    Comms += LP.PerIter.Comms * Iters;
    Mem += LP.PerIter.MemAccesses * Iters;
    LoopRunStat Stat;
    Stat.Name = L.Name;
    Stat.ITNs = LP.ItLengthRefNs.toDouble();
    Stat.TexecNs = LoopT;
    Stat.Comms = static_cast<unsigned>(LP.PerIter.Comms);
    Stat.Degraded = true;
    R.Loops.push_back(std::move(Stat));
    ++R.DegradedLoops;
  };

  for (size_t I = 0; I < Loops.size(); ++I) {
    const Loop &L = Loops[I];
    const LoopProfile &LP = Profile.Loops[I];

    // Forced degrade: skip the (expensive) sweep entirely — that is
    // the rung's whole point when used as a real load-shedding lever.
    std::string LoopCtx;
    if (FaultsArmed)
      LoopCtx = Profile.Name + "/" + L.Name;
    if (HCVLIW_FAULT_DEGRADE(Opts.Fault, "measure.loop", LoopCtx)) {
      analyticLoop(L, LP);
      continue;
    }

    LoopScheduleResult LR;
    if (UseCache) {
      uint64_t Key =
          loopScheduleKey(L, Config, Scaling, Energy, ED2Objective);
      bool WasHit = false;
      if (auto Cached = UseCache->find(Key, &WasHit)) {
        LR = std::move(*Cached);
      } else {
        LR = scheduleFresh(L);
        UseCache->store(Key, LR);
      }
      ++(WasHit ? R.ScheduleHits : R.ScheduleMisses);
    } else {
      LR = scheduleFresh(L);
    }
    R.SchedPlacements += LR.Placements;
    R.SchedEjections += LR.Ejections;
    R.SchedBudgetUsed += LR.BudgetUsed;
    R.SchedITSteps += LR.ITSteps;
    R.FallbackRational += LR.FallbackRational;
    R.FlatPartitions += static_cast<unsigned>(LR.PartStats.FlatFallbacks);
    if (!LR.Success) {
      if (Opts.AnalyticFallback) {
        analyticLoop(L, LP);
        continue;
      }
      ++R.Failures;
      R.FailureDetails.push_back({L.Name, LR.failureSummary()});
      continue;
    }

    // The simulator oracle: cached schedules are re-checked too, so the
    // verdict never depends on which measurement computed the entry.
    if (Opts.SimCheckIterations > 0) {
      uint64_t N = std::min<uint64_t>(L.TripCount, Opts.SimCheckIterations);
      std::string Err =
          checkFunctionalEquivalence(L, LR.PG, LR.Sched, Machine, N);
      if (!Err.empty()) {
        ++R.Failures;
        R.FailureDetails.push_back(
            {L.Name, "simulated schedule diverges from sequential "
                     "execution: " + Err});
        continue;
      }
    }

    double LoopT = LP.Invocations *
                   LR.Sched.execTimeNs(LR.PG, L.TripCount).toDouble();
    TexecNs += LoopT;

    double Iters =
        LP.Invocations * static_cast<double>(L.TripCount);
    for (unsigned Op = 0; Op < L.size(); ++Op)
      WIns[LR.Assignment.cluster(Op)] +=
          Machine.Isa.energy(L.Ops[Op].Op) * Iters;
    Comms += static_cast<double>(LR.PG.numCopies()) * Iters;
    Mem += LP.PerIter.MemAccesses * Iters;

    LoopRunStat Stat;
    Stat.Name = L.Name;
    Stat.ITNs = LR.Sched.Plan.ITNs.toDouble();
    Stat.TexecNs = LoopT;
    Stat.Comms = LR.PG.numCopies();
    R.Loops.push_back(std::move(Stat));
  }

  if (Metrics) {
    Metrics->addCounter("measure.configs");
    if (UseCache) {
      Metrics->addCounter("cache.schedule.hits", R.ScheduleHits);
      Metrics->addCounter("cache.schedule.misses", R.ScheduleMisses);
    }
    if (R.Failures)
      Metrics->addCounter("measure.loop_failures", R.Failures);
    // The silent-degradation ledger: all zero on a healthy run.
    if (R.FallbackRational)
      Metrics->addCounter("sched.fallback_rational", R.FallbackRational);
    if (R.DegradedLoops)
      Metrics->addCounter("degrade.analytic_estimate", R.DegradedLoops);
    if (R.FlatPartitions)
      Metrics->addCounter("degrade.flat_partition", R.FlatPartitions);
  }
  if (CfgSp.active()) {
    CfgSp.arg("loops", static_cast<int64_t>(Loops.size()));
    CfgSp.arg("failures", R.Failures);
    CfgSp.arg("cache_hits", static_cast<int64_t>(R.ScheduleHits));
    CfgSp.arg("cache_misses", static_cast<int64_t>(R.ScheduleMisses));
  }

  if (R.Failures == Loops.size())
    return R;
  R.TexecNs = TexecNs;
  R.Energy = Energy.heteroEnergy(WIns, Comms, Mem, TexecNs, Scaling);
  R.ED2 = computeED2(R.Energy, TexecNs);
  R.Ok = true;
  return R;
}
