//===- measure/ScheduleMeasurer.cpp - Measured-schedule evaluation ----------===//

#include "measure/ScheduleMeasurer.h"

#include "fault/Fault.h"
#include "obs/Stopwatch.h"
#include "partition/ScheduleScratch.h"
#include "support/HashUtil.h"
#include "vliwsim/PipelinedSimulator.h"

#include <algorithm>
#include <stdexcept>

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

uint64_t ScheduleMeasurer::loopScheduleKey(uint64_t LoopFP,
                                           const HeteroConfig &Config,
                                           const HeteroScaling *Scaling,
                                           const EnergyModel *Energy,
                                           bool ED2Objective) const {
  FnvHasher H;
  H.mix(LoopFP);

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
  H.mix(Opts.MaxITSteps);
  // The effort deadline changes sweep outcomes when it fires, so it is
  // part of the key.
  H.mix(Opts.EffortDeadline);

  // The energy model and the per-domain scaling factors steer
  // partition refinement only under the ED2 objective; the baseline
  // objective reads neither.
  if (EffectiveED2) {
    if (!Energy || !Scaling)
      throw std::invalid_argument(
          "the ED2 objective's schedule key needs energy and scaling");
    mixEnergy(H, *Energy);
    mixScaling(H, *Scaling);
  }
  return H.digest();
}

SharedSchedule
ScheduleMeasurer::scheduleLoop(const Loop &L, const HeteroConfig &Config,
                               const HeteroScaling *Scaling,
                               const EnergyModel *Energy, bool ED2Objective,
                               const std::string &Program,
                               ConfigRunResult &Tally,
                               ScheduleLookups &Lookups,
                               uint64_t LoopFP) const {
  // While armed, bypass the shared schedule cache: which worker
  // populates a cross-program entry is a timing race, and a hit would
  // skip the scheduling run whose site counters must advance. Healthy
  // runs (the only ones the determinism pin covers) keep the cache.
  ScheduleCache *UseCache =
      Opts.Fault && Opts.Fault->armed() ? nullptr : Cache;
  uint64_t Key = 0;
  SharedSchedule Shared;
  if (UseCache) {
    Key = loopScheduleKey(LoopFP, Config, Scaling, Energy, ED2Objective);
    Shared = UseCache->find(Key);
    ++(Shared ? Lookups.Hits : Lookups.Misses);
    if (Metrics)
      Metrics->addCounter(Shared ? "cache.schedule.hits"
                                 : "cache.schedule.misses");
  }

  if (!Shared) {
    // A fresh run, traced through the Figure 5 driver's own spans and
    // timed into the per-stage wall histogram (timing only observes).
    obs::Stopwatch SW;
    LoopScheduleOptions LSO;
    // Homogeneous baselines run at one fixed frequency; only the
    // heterogeneous machine negotiates per-loop (II, freq) pairs from
    // the restricted menu. The ablation knob in Opts.Part can force the
    // balance-only objective even on the heterogeneous machine.
    LSO.Menu = ED2Objective ? Opts.Menu : FrequencyMenu::continuous();
    LSO.Part = Opts.Part;
    LSO.Part.ED2Objective = ED2Objective && Opts.Part.ED2Objective;
    LSO.MaxITSteps = Opts.MaxITSteps;
    LSO.EffortDeadline = Opts.EffortDeadline;
    LSO.Fault = Opts.Fault;
    LSO.FaultContext = Program;
    // This thread's arena from the session pool, or (null) a local one
    // for this run; results never depend on the arena.
    ScheduleScratch *Scratch =
        Scratches ? &Scratches->forThisThread() : nullptr;
    // A throw out of the sweep propagates: the suite runner records it
    // as a SuiteFailure of this program.
    LoopScheduleResult LR = LoopScheduler(Machine, Config, LSO)
                                .schedule(L, Energy, Scaling, Scratch, Trace);
    if (Metrics) {
      Metrics->observeMs("stage.loop_schedule.ms", SW.elapsedMs());
      // The work ledger: scheduler and partitioner effort of this
      // fresh run (cache hits add nothing).
      Metrics->addCounter("sched.placements", LR.Placements);
      Metrics->addCounter("sched.ejections", LR.Ejections);
      Metrics->addCounter("sched.budget_used", LR.BudgetUsed);
      Metrics->addCounter("sched.it_steps", LR.ITSteps);
      Metrics->addCounter("part.levels", LR.PartStats.Levels);
      Metrics->addCounter("part.matched_pairs", LR.PartStats.MatchedPairs);
      Metrics->addCounter("part.refine_moves", LR.PartStats.RefineMoves);
      Metrics->addCounter("part.fm_moves", LR.PartStats.FMMoves);
      Metrics->addCounter("part.score_evals", LR.PartStats.ScoreEvals);
      Metrics->addCounter("part.bound_rejects", LR.PartStats.BoundRejects);
      Metrics->addCounter("part.capacity_rejects",
                          LR.PartStats.CapacityRejects);
      Metrics->addCounter("part.coarsen_memo_hits",
                          LR.PartStats.CoarsenMemoHits);
    }
    Shared = std::make_shared<const LoopScheduleResult>(std::move(LR));
    if (UseCache)
      UseCache->store(Key, Shared);
  }

  const LoopScheduleResult &LR = *Shared;
  Tally.SchedPlacements += LR.Placements;
  Tally.SchedEjections += LR.Ejections;
  Tally.SchedBudgetUsed += LR.BudgetUsed;
  Tally.SchedITSteps += LR.ITSteps;
  Tally.FallbackRational += LR.FallbackRational;
  Tally.FlatPartitions += static_cast<unsigned>(LR.PartStats.FlatFallbacks);
  return Shared;
}

ConfigRunResult ScheduleMeasurer::measure(const ProgramProfile &Profile,
                                          const std::vector<Loop> &Loops,
                                          const HeteroConfig &Config,
                                          const HeteroScaling &Scaling,
                                          const EnergyModel &Energy,
                                          bool ED2Objective,
                                          ScheduleLookups *Lookups) const {
  // A public seam (FrontierMeasurer::measure takes the two separately):
  // a mismatched pair would read the profile, or a schedule keyed by
  // the profile's LoopFP, out of bounds below.
  auto mismatch = [&] {
    return std::invalid_argument("profile '" + Profile.Name +
                                 "' does not match the loop list");
  };
  if (Profile.Loops.size() != Loops.size())
    throw mismatch();
  for (size_t I = 0; I < Loops.size(); ++I)
    if (Profile.Loops[I].NumOps != Loops[I].size())
      throw mismatch();
  ConfigRunResult R;
  ScheduleLookups Looked;
  obs::Span CfgSp(Trace, ED2Objective ? "measure.config:het"
                                      : "measure.config:hom");

  // Fault site: start of one config measurement (context = program,
  // which each suite worker processes serially, so the occurrence
  // count is thread-count invariant).
  HCVLIW_FAULT_POINT(Opts.Fault, "measure.config", Profile.Name);
  const bool FaultsArmed = Opts.Fault && Opts.Fault->armed();

  double TexecNs = 0;
  std::vector<double> WIns(Machine.numClusters(), 0.0);
  double Comms = 0, Mem = 0;

  // Graceful degradation, last rung (analytic estimate): account a loop
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

    SharedSchedule Run =
        scheduleLoop(L, Config, &Scaling, &Energy, ED2Objective,
                     Profile.Name, R, Looked, LP.LoopFP);
    const LoopScheduleResult &LR = *Run;
    if (LR.Success && LR.Assignment.size() != L.size())
      throw std::invalid_argument("the schedule keyed by loop '" + L.Name +
                                  "' has another op count");
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
    const unsigned Copies = LR.PG.numCopies();
    Comms += static_cast<double>(Copies) * Iters;
    Mem += LP.PerIter.MemAccesses * Iters;

    LoopRunStat Stat;
    Stat.Name = L.Name;
    Stat.ITNs = LR.Sched.Plan.ITNs.toDouble();
    Stat.TexecNs = LoopT;
    Stat.Comms = Copies;
    R.Loops.push_back(std::move(Stat));
  }

  if (Metrics) {
    Metrics->addCounter("measure.configs");
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
    CfgSp.arg("cache_hits", static_cast<int64_t>(Looked.Hits));
    CfgSp.arg("cache_misses", static_cast<int64_t>(Looked.Misses));
  }
  if (Lookups)
    *Lookups = Looked;

  if (R.Failures == Loops.size())
    return R;
  R.TexecNs = TexecNs;
  R.Energy = Energy.heteroEnergy(WIns, Comms, Mem, TexecNs, Scaling);
  R.ED2 = computeED2(R.Energy, TexecNs);
  R.Ok = true;
  return R;
}
