//===- profiling/Profiler.cpp - Reference homogeneous profiling -------------===//

#include "profiling/Profiler.h"
#include "fault/Fault.h"
#include "support/HashUtil.h"

#include <cassert>

using namespace hcvliw;

const char *hcvliw::loopConstraintName(LoopConstraint C) {
  switch (C) {
  case LoopConstraint::Resource:
    return "resource";
  case LoopConstraint::Borderline:
    return "borderline";
  case LoopConstraint::Recurrence:
    return "recurrence";
  }
  assert(false && "unknown constraint class");
  return "?";
}

uint64_t LoopProfile::computeTimingFingerprint() const {
  // Exactly the fields estimateLoopTiming and the EvalCache's derived
  // expressions read; Name / Weight / Invocations / energy activity are
  // deliberately excluded so structurally identical loops collide.
  FnvHasher H;
  H.mix(TripCount);
  H.mixSigned(RecMII);
  H.mixSigned(ResMII);
  H.mixSigned(IIHom);
  H.mixRational(ItLengthRefNs);
  H.mixSigned(SumLifetimesRef);
  H.mixDouble(PerIter.Comms);
  H.mix(NumOps);
  H.mixVector(OpCounts);
  H.mix(Components.size());
  for (const LoopComponent &C : Components) {
    H.mix(C.FUCounts.size()); // hashed as mixVector hashes a vector
    for (unsigned K : C.FUCounts)
      H.mix(K);
    H.mixSigned(C.RecMII);
  }
  return H.digest();
}

uint64_t ProgramProfile::fingerprint() const {
  FnvHasher H;
  H.mixDouble(TexecRefNs);
  H.mixDouble(Totals.WeightedIns);
  H.mixDouble(Totals.Comms);
  H.mixDouble(Totals.MemAccesses);
  H.mix(Loops.size());
  for (const LoopProfile &L : Loops) {
    H.mix(L.timingFingerprint());
    H.mixDouble(L.Weight);
    H.mixDouble(L.Invocations);
    H.mixRational(L.TexecRefNs);
    H.mixDouble(L.PerIter.WeightedIns);
    H.mixDouble(L.PerIter.MemAccesses);
  }
  return H.digest();
}

std::vector<double> ProgramProfile::shareByConstraint() const {
  std::vector<double> Share(3, 0.0);
  double Total = 0;
  for (const LoopProfile &L : Loops) {
    Share[static_cast<unsigned>(L.classification())] += L.totalRefNs();
    Total += L.totalRefNs();
  }
  if (Total > 0)
    for (double &S : Share)
      S /= Total;
  return Share;
}

namespace {

/// The reference execution time every program profile spreads over its
/// loops' weights.
constexpr double ProfileBudgetNs = 1e6;

MeasureOptions profilingOptions(fault::FaultInjector *Fault) {
  MeasureOptions O;
  O.Fault = Fault;
  return O;
}

} // namespace

Profiler::Profiler(const MachineDescription &M, ScheduleCache *Cache,
                   ScheduleScratchPool *Scratches, obs::Tracer *Tr,
                   obs::MetricsRegistry *Metrics, fault::FaultInjector *Inj)
    : Trace(Tr), Fault(Inj),
      Measurer(M, profilingOptions(Inj), Cache, Scratches, Tr, Metrics) {}

std::optional<ProgramProfile>
Profiler::profileProgram(const std::string &Name,
                         const std::vector<Loop> &Loops,
                         std::string *Err) const {
  ProgramProfile P;
  P.Name = Name;
  obs::Span Sp(Trace, "stage.profile:", Name);
  const MachineDescription &Machine = Measurer.machine();
  const HeteroConfig Ref = HeteroConfig::reference(Machine);
  ConfigRunResult Tally;   // effort counters, unused here
  ScheduleLookups Lookups; // cache statistics for the span

  double TotalWeight = 0;
  for (const Loop &L : Loops)
    TotalWeight += L.Weight;
  if (TotalWeight <= 0) {
    if (Err)
      *Err = Loops.empty() ? "program has no loops"
                           : "total loop weight is not positive";
    return std::nullopt;
  }

  // The fault context of this stage's schedules (see Profiler.h). Only
  // an armed injector reads it, so it is composed only while armed.
  std::string ArmedCtx;
  if (Fault && Fault->armed())
    ArmedCtx = "profile:" + Name;
  const std::string &FaultCtx = ArmedCtx.empty() ? Name : ArmedCtx;
  for (const Loop &L : Loops) {
    // The loop's one structural hash of the pass: it keys this lookup
    // and, through LoopProfile::LoopFP, every measurement of the loop.
    const uint64_t LoopFP = L.structuralFingerprint();
    // The baseline objective reads neither energy model nor scaling.
    SharedSchedule Run = Measurer.scheduleLoop(
        L, Ref, nullptr, nullptr, /*ED2Objective=*/false, FaultCtx, Tally,
        Lookups, LoopFP);
    const LoopScheduleResult &R = *Run;
    if (!R.Success) {
      if (Err)
        *Err = "loop '" + L.Name +
               "' failed to schedule on the reference machine: " +
               R.Failure;
      return std::nullopt;
    }

    LoopProfile LP;
    LP.Name = L.Name;
    LP.TripCount = L.TripCount;
    LP.Weight = L.Weight / TotalWeight;
    LP.RecMII = R.RecMII;
    LP.ResMII = R.ResMII;
    LP.IIHom = R.Sched.Plan.Clusters.front().II;
    LP.LoopFP = LoopFP;
    // Texec from the one it_length.
    LP.ItLengthRefNs = R.Sched.itLengthNs(R.PG);
    LP.TexecRefNs = R.Sched.execTimeNs(LP.ItLengthRefNs, L.TripCount);
    LP.NumOps = L.size();
    LP.OpCounts = L.opCountsByFU();

    for (const Operation &O : L.Ops) {
      LP.PerIter.WeightedIns += Machine.Isa.energy(O.Op);
      if (isMemoryOpcode(O.Op))
        LP.PerIter.MemAccesses += 1;
    }
    LP.PerIter.Comms = R.PG.numCopies();
    for (int64_t SL : R.Pressure.SumLifetimes)
      LP.SumLifetimesRef += SL;
    LP.Components = R.Components;

    LP.Invocations =
        LP.Weight * ProfileBudgetNs / LP.TexecRefNs.toDouble();

    double Iters = LP.Invocations * static_cast<double>(LP.TripCount);
    P.Totals.WeightedIns += LP.PerIter.WeightedIns * Iters;
    P.Totals.Comms += LP.PerIter.Comms * Iters;
    P.Totals.MemAccesses += LP.PerIter.MemAccesses * Iters;
    P.TexecRefNs += LP.totalRefNs();

    // Precompute the structural identity now that every timing-relevant
    // field is final: the EvalCache keys on it once per candidate.
    LP.StructuralFP = LP.computeTimingFingerprint();

    P.Loops.push_back(std::move(LP));
  }
  if (Sp.active()) {
    Sp.arg("cache_hits", static_cast<int64_t>(Lookups.Hits));
    Sp.arg("cache_misses", static_cast<int64_t>(Lookups.Misses));
  }
  return P;
}
