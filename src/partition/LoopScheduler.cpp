//===- partition/LoopScheduler.cpp - Figure 5 driver ------------------------===//

#include "partition/LoopScheduler.h"
#include "fault/Fault.h"
#include "mcd/DomainPlanner.h"
#include "partition/ScheduleScratch.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

using namespace hcvliw;

std::string LoopScheduleResult::failureSummary(size_t MaxEntries) const {
  if (FailureLog.empty())
    return Success ? "" : Failure;
  std::string Out;
  size_t First =
      FailureLog.size() > MaxEntries ? FailureLog.size() - MaxEntries : 0;
  if (First > 0)
    Out += formatString("[%zu earlier failures] ", First);
  for (size_t I = First; I < FailureLog.size(); ++I) {
    const ITFailure &F = FailureLog[I];
    if (I > First)
      Out += "; ";
    Out += formatString("IT+%u (%s ns): %s", F.Step, F.ITNs.str().c_str(),
                        F.Reason.c_str());
    if (F.Count > 1)
      Out += formatString(" x%u", F.Count);
  }
  return Out;
}

LoopScheduler::LoopScheduler(const MachineDescription &M,
                             const HeteroConfig &C,
                             const LoopScheduleOptions &O)
    : Machine(M), Config(C), Opts(O), Planner(M, Config, Opts.Menu) {
  assert(C.numClusters() == M.numClusters() &&
         "configuration does not match machine");
}

namespace {

/// Appends one failed attempt to the log, folding consecutive identical
/// failures of one step.
void logFailure(std::vector<ITFailure> &Log, unsigned Step,
                const Rational &ITNs, const std::string &Reason) {
  if (!Log.empty() && Log.back().Step == Step && Log.back().Reason == Reason) {
    ++Log.back().Count;
    return;
  }
  ITFailure F;
  F.Step = Step;
  F.ITNs = ITNs;
  F.Reason = Reason;
  Log.push_back(std::move(F));
}

} // namespace

LoopScheduleResult
LoopScheduler::schedule(const Loop &L, const EnergyModel *Energy,
                        const HeteroScaling *Scaling,
                        ScheduleScratch *Scratch,
                        obs::Tracer *Trace) const {
  LoopScheduleResult R;
  assert(L.validate().empty() && "scheduling an invalid loop");
  // The ED2 objective scores with both; an energy model without its
  // scaling would keep that objective and read a null scaling.
  if ((Energy == nullptr) != (Scaling == nullptr))
    throw std::invalid_argument(
        "loop scheduler: energy model and scaling come together");
  obs::Span LoopSp(Trace, "loop.schedule:", L.Name);

  // The arena: caller-provided per-worker scratch, or a local one for
  // this call (still reused across the whole IT sweep).
  std::unique_ptr<ScheduleScratch> Own;
  if (!Scratch) {
    Own = std::make_unique<ScheduleScratch>();
    Scratch = Own.get();
  }
  ScheduleScratch &S = *Scratch;
  S.beginLoopRun();

  // Per-loop fault context ("<program>/<loop>" — a serial execution
  // stream, so occurrence counts are thread-count invariant). Composed
  // only while the injector is armed; idle runs pay one branch.
  std::string FaultCtx;
  if (Opts.Fault && Opts.Fault->armed())
    FaultCtx = Opts.FaultContext + "/" + L.Name;

  // The IT-independent loop analyses: the DDG, recurrences, the
  // per-edge coarsening slack and the weakly-connected components, pure
  // functions of (loop, latencies). All but the DDG are memoized across
  // whole schedule() runs.
  obs::Span AnalyzeSp(Trace, "loop.analyze");
  DDG::buildInto(S.G, L);
  Machine.Isa.nodeLatenciesInto(S.Lat, L);
  const uint64_t Fp = L.structuralFingerprint();
  const LoopAnalysisMemo *Memo = S.findAnalysis(Fp, S.Lat);
  const bool MemoHit = Memo != nullptr;
  if (!Memo) {
    LoopAnalysisMemo &Slot = S.analysisSlot();
    Slot.Fp = Fp;
    Slot.Lat = S.Lat;
    Slot.Recs = analyzeRecurrences(S.G, S.Lat);
    computeEdgeSlack(Slot.EdgeSlack, S.G, S.Lat,
                     std::max<int64_t>(Slot.Recs.RecMII, 1), S.Paths);
    Slot.Components = computeLoopComponents(L, S.G, Slot.Recs);
    Memo = &Slot;
  }
  if (AnalyzeSp.active()) {
    AnalyzeSp.arg("nodes", S.G.size());
    AnalyzeSp.arg("edges", S.G.numEdges());
    AnalyzeSp.arg("memo_hit", MemoHit ? 1 : 0);
  }
  AnalyzeSp.close();
  R.RecMII = Memo->Recs.RecMII;
  R.ResMII = Machine.computeResMII(L);
  R.Components = Memo->Components;

  R.MITNs = Planner.computeMIT(R.RecMII, L.opCountsByFU());

  PartitionerOptions PartOpts = Opts.Part;
  if (!Energy)
    PartOpts.ED2Objective = false;
  const unsigned NumAttempts = PartOpts.ED2Objective ? 2 : 1;
  const unsigned NC = Machine.numClusters();

  Rational IT = R.MITNs;
  bool Done = false;
  for (unsigned Step = 0; Step <= Opts.MaxITSteps && !Done; ++Step) {
    obs::Span StepSp(Trace, "loop.itstep");
    if (StepSp.active())
      StepSp.arg("step", Step);
    R.ITSteps = Step;
    // Deterministic per-loop deadline: effort, never wall clock, so
    // every thread count gives up at the identical point.
    if (Opts.EffortDeadline && R.BudgetUsed >= Opts.EffortDeadline) {
      R.Failure = "effort deadline exhausted";
      logFailure(R.FailureLog, Step, IT, R.Failure);
      break;
    }
    auto Plan = Planner.planForIT(IT);
    if (!Plan) {
      R.Failure = "synchronization: no (II, freq) pair for some domain";
      logFailure(R.FailureLog, Step, IT, R.Failure);
      IT = Planner.nextIT(IT);
      continue;
    }

    // The one grid check of the chain: every consumer below (pseudo-
    // schedules, scheduler, compaction, pressure, validator) runs on
    // the plan's tick grid, so a plan without one is an infeasible IT
    // step.
    PlanGrid::computeInto(S.Grid, *Plan);
    if (!S.Grid.valid()) {
      R.Failure = PlanGrid::NoGridReason;
      logFailure(R.FailureLog, Step, IT, R.Failure);
      ++R.FallbackRational;
      IT = Planner.nextIT(IT);
      continue;
    }

    PartitionContext Ctx;
    Ctx.L = &L;
    Ctx.G = &S.G;
    Ctx.M = &Machine;
    Ctx.Plan = &*Plan;
    Ctx.Recs = &Memo->Recs;
    Ctx.Energy = Energy;
    Ctx.Scaling = Scaling;
    Ctx.TripCount = L.TripCount;
    Ctx.EdgeSlack = &Memo->EdgeSlack;
    Ctx.Scratch = &S.Part;
    Ctx.Trace = Trace;
    Ctx.Stats = &R.PartStats;
    Ctx.Fault = Opts.Fault;
    Ctx.FaultCtx = FaultCtx;

    // The ED2-guided partition is tried first; if its schedule cannot be
    // completed at this IT, fall back to the balance-first partition of
    // [3] before paying an IT increase (growing the IT on a restricted
    // frequency menu can overshoot to a much slower sync point).
    PartitionerOptions Attempts[2] = {PartOpts, PartOpts};
    if (NumAttempts == 2)
      Attempts[1].ED2Objective = false;

    for (unsigned Att = 0; Att < NumAttempts; ++Att) {
      const PartitionerOptions &PO = Attempts[Att];
      auto Assignment = partitionLoop(Ctx, PO);
      if (!Assignment) {
        R.Failure = "no feasible partition";
        logFailure(R.FailureLog, Step, IT, R.Failure);
        continue;
      }

      PartitionedGraph::buildInto(S.PG, L, S.G, Machine.Isa, *Assignment, NC,
                                  Machine.BusLatency, &S.PGCopySlots, &S.Lat);

      // One tick lowering per attempt, shared by the scheduler, stage
      // compaction, the register-pressure computation and the
      // validator. The plan's grid was checked above, so it is valid.
      TickGraph::buildInto(S.Ticks, S.PG, *Plan);

      HCVLIW_FAULT_POINT(Opts.Fault, "sched.place", FaultCtx);
      HeteroModuloScheduler Scheduler(Machine, S.PG, *Plan);
      SchedulerResult SR = Scheduler.run(&S.Ticks, &S.Sched, Trace);
      R.Placements += SR.Placements;
      R.Ejections += SR.Ejections;
      R.BudgetUsed += SR.BudgetUsed;
      if (!SR.Success) {
        R.Failure = SR.FailureReason;
        logFailure(R.FailureLog, Step, IT, R.Failure);
        continue;
      }

      RegisterPressureResult Pressure =
          computeRegisterPressure(S.PG, SR.Sched, &S.Ticks, &S.Pressure);
      if (!Pressure.fits(Machine)) {
        // Salvage: stage compaction collapses whole-II lifetime
        // crossings (the dominant pressure term on wide graphs) while
        // keeping the schedule valid by construction. Applied only on
        // overflow — schedules that already fit keep the historical
        // makespan-optimal shape.
        obs::Span CSp(Trace, "sched.compact");
        unsigned Moved = compactScheduleLifetimes(S.Ticks, SR.Sched, &S.Sched);
        if (Moved)
          Pressure =
              computeRegisterPressure(S.PG, SR.Sched, &S.Ticks, &S.Pressure);
        if (CSp.active()) {
          CSp.arg("moved", static_cast<int64_t>(Moved));
          CSp.arg("fits", Pressure.fits(Machine) ? 1 : 0);
        }
      }
      if (!Pressure.fits(Machine)) {
        R.Failure = "register pressure exceeds the register files";
        logFailure(R.FailureLog, Step, IT, R.Failure);
        continue;
      }

      ValidatorOptions VO;
      VO.Ticks = &S.Ticks;
      // Pressure was computed and bounds-checked just above; don't pay
      // a second full computation inside the validator.
      VO.CheckRegisterPressure = false;
      std::string Err = validateSchedule(Machine, S.PG, SR.Sched, VO);
      if (!Err.empty()) {
        // A scheduler defect, not an infeasible IT: end the sweep here
        // rather than grow the IT past it and hide it.
        R.Failure = "scheduler produced an invalid schedule: " + Err;
        logFailure(R.FailureLog, Step, IT, R.Failure);
        Done = true;
        break;
      }

      R.Success = true;
      R.Failure.clear();
      R.Sched = std::move(SR.Sched);
      // The graph escapes the arena: move it out (the scratch rebuilds
      // next run; nothing may reference arena storage after schedule()
      // returns).
      R.PG = std::move(S.PG);
      R.Assignment = std::move(*Assignment);
      R.Pressure = std::move(Pressure);
      Done = true;
      break;
    }
    if (!Done)
      IT = Planner.nextIT(IT);
  }
  if (LoopSp.active()) {
    LoopSp.arg("it_steps", R.ITSteps);
    LoopSp.arg("placements", static_cast<int64_t>(R.Placements));
    LoopSp.arg("ejections", static_cast<int64_t>(R.Ejections));
    LoopSp.arg("ok", R.Success ? 1 : 0);
  }
  return R;
}
