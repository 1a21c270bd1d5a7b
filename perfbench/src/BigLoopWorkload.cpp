//===- perfbench/src/BigLoopWorkload.cpp - bigloop ------------------------===//
//
// One iteration schedules a seeded set of unrolled-kernel bodies
// (makeUnrolledKernelLoop) far larger than any SPECfp loop. Each body
// goes through LoopScheduler::schedule twice on a machine whose register
// files are sized by bigLoopRegisters: first on the reference
// homogeneous plan, then on a one-fast/three-slow heterogeneous plan
// with a relative-ladder menu. Each iteration starts from a fresh
// ScheduleScratch, so the first plan pays the O(N^3) ir analysis,
// multilevel coarsening and refinement, and the second plan hits the
// LoopAnalysisMemo. One thread; no profiling, selection or session
// caches run inside the timed iteration.
//
// The body set is fixed: per size, the first generator try that
// profiles on the reference machine, schedules on the heterogeneous
// plan and passes the simulator check on both plans. The cost of a try
// varies up to 2x between tries of one size, so drawing tries from the
// seed would make the seed, not the code, move iter_ms; the seed
// permutes the order the bodies are scheduled in instead, and the
// digest (taken in size order) must not depend on it. The profile and
// the Section 3.2 estimate of the heterogeneous design are set-up work
// too: the untimed check turns the last iteration's schedules into
// measured ED2 with them.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "configsel/Scaling.h"
#include "explore/CandidateEvaluator.h"
#include "ir/MinDist.h"
#include "ir/RecurrenceAnalysis.h"
#include "obs/Stopwatch.h"
#include "partition/LoopScheduler.h"
#include "partition/ScheduleScratch.h"
#include "profiling/Profiler.h"
#include "vliwsim/PipelinedSimulator.h"
#include "workloads/SyntheticLoops.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

using namespace hcvliw;

namespace perfbench {

namespace {

constexpr unsigned BodySizes[] = {256, 512, 768};
/// Generator tries per size before set-up gives up.
constexpr unsigned MaxTries = 16;
/// Iterations each schedule runs on the simulator in the check.
constexpr uint64_t SimIterations = 8;
/// The heterogeneous plan: one cluster (and the ICN and cache) at
/// 0.9 ns, three clusters at 1.35 ns.
const Rational FastPeriod(9, 10), SlowPeriod(27, 20);

struct Body {
  MachineDescription M;
  Loop L;
  ProgramProfile Profile;
  std::unique_ptr<EnergyModel> Energy;
  SelectedDesign Design; ///< the estimate of the heterogeneous plan
};

LoopScheduleOptions hetOptions() {
  LoopScheduleOptions O;
  O.Menu = FrequencyMenu::relativeLadder(4);
  return O;
}

uint64_t digestSchedules(const std::vector<LoopScheduleResult> &Rs,
                         bool PerturbFirst = false) {
  Digest D;
  for (const LoopScheduleResult &R : Rs) {
    D.u64(R.Success);
    D.u64(static_cast<uint64_t>(R.Sched.Plan.ITNs.num()));
    D.u64(static_cast<uint64_t>(R.Sched.Plan.ITNs.den()));
    for (const ScheduledNode &N : R.Sched.Nodes) {
      int64_t Slot = N.Slot;
      if (PerturbFirst) {
        ++Slot;
        PerturbFirst = false;
      }
      D.u64(N.Placed);
      D.u64(static_cast<uint64_t>(Slot));
      D.u64(N.Unit);
    }
  }
  return D.value();
}

class BigLoopWorkload : public Workload {
  std::vector<Body> Bodies;
  std::vector<size_t> Order; ///< submission order of Bodies (seeded)
  std::vector<LoopScheduleResult> Last; ///< (hom, het) per body
  obs::Tracer Tracer;

public:
  const char *unitName() const override { return "loop-plan schedules"; }
  bool hasCommittedDigest() const override { return false; }
  void setup(uint64_t Seed) override;
  IterationOutcome iterate(bool Traced, Counters &Layer) override;
  uint64_t perturbedDigest() const override {
    return digestSchedules(Last, true);
  }
  void check(uint64_t ExpectedDigest, CheckTally &T, Counters &Quality,
             Counters &RunLayer) override;
};

/// Builds the \p Try-th \p Ops-op body; false when it does not profile,
/// has no valid heterogeneous design, or fails a schedule or the
/// simulator check on either plan.
bool makeBody(unsigned Ops, unsigned Try, Body &B) {
  B.M = MachineDescription::paperDefault();
  for (auto &Cl : B.M.Clusters)
    Cl.Registers = bigLoopRegisters(Ops);
  B.L = makeUnrolledKernelLoop(
      "bigloop_" + std::to_string(Ops) + "_try" + std::to_string(Try), Ops, Try);
  auto Profile = Profiler(B.M).profileProgram(B.L.Name, {B.L});
  if (!Profile)
    return false;
  B.Profile = std::move(*Profile);
  B.Energy = std::make_unique<EnergyModel>(
      EnergyBreakdown(), B.Profile.Totals, B.Profile.TexecRefNs,
      B.M.numClusters());
  B.Design = CandidateEvaluator(B.Profile, B.M, *B.Energy,
                                TechnologyModel::paperDefault(),
                                hetOptions().Menu,
                                DesignSpaceOptions::paperDefault())
                 .evaluate(FastPeriod, SlowPeriod);
  if (!B.Design.Valid)
    return false;
  ScheduleScratch Scratch;
  for (bool Het : {false, true}) {
    LoopScheduleResult R =
        Het ? LoopScheduler(B.M, B.Design.Config, hetOptions())
                  .schedule(B.L, nullptr, nullptr, &Scratch)
            : LoopScheduler(B.M, HeteroConfig::reference(B.M))
                  .schedule(B.L, nullptr, nullptr, &Scratch);
    if (!R.Success ||
        !checkFunctionalEquivalence(B.L, R.PG, R.Sched, B.M, SimIterations)
             .empty())
      return false;
  }
  return true;
}

void BigLoopWorkload::setup(uint64_t Seed) {
  Bodies.clear();
  for (unsigned Ops : BodySizes) {
    Body B;
    unsigned Try = 0;
    while (!makeBody(Ops, Try, B))
      if (++Try == MaxTries)
        throw std::runtime_error("no usable " + std::to_string(Ops) +
                                 "-op body");
    Bodies.push_back(std::move(B));
  }
  Order.resize(Bodies.size());
  std::iota(Order.begin(), Order.end(), 0);
  RNG(Seed).shuffle(Order);
}

IterationOutcome BigLoopWorkload::iterate(bool Traced, Counters &Layer) {
  IterationOutcome Out;
  obs::Tracer *Tr = Traced ? &Tracer : nullptr;
  if (Traced)
    Tracer.enable({TraceBufferEvents});
  uint64_t Allocs0 = allocationsSoFar();
  obs::Stopwatch Wall;
  std::vector<LoopScheduleResult> Rs(2 * Bodies.size());
  {
    obs::Span Root(Tr, "bench.iteration");
    auto Scratch = std::make_unique<ScheduleScratch>();
    for (size_t I : Order) {
      const Body &B = Bodies[I];
      LoopScheduler Hom(B.M, HeteroConfig::reference(B.M));
      Rs[2 * I] = Hom.schedule(B.L, nullptr, nullptr, Scratch.get(), Tr);
      LoopScheduler Het(B.M, B.Design.Config, hetOptions());
      Rs[2 * I + 1] = Het.schedule(B.L, nullptr, nullptr, Scratch.get(), Tr);
    }
  }
  Out.WallMs = Wall.elapsedMs();

  if (Traced) {
    Tracer.disable();
    Layer["runtime.allocs_per_iter"] +=
        static_cast<double>(allocationsSoFar() - Allocs0);
    for (const LoopScheduleResult &R : Rs) {
      Layer["partition.levels"] += static_cast<double>(R.PartStats.Levels);
      Layer["partition.matched_pairs"] +=
          static_cast<double>(R.PartStats.MatchedPairs);
      Layer["partition.refine_moves"] +=
          static_cast<double>(R.PartStats.RefineMoves);
      Layer["partition.fm_moves"] += static_cast<double>(R.PartStats.FMMoves);
      Layer["partition.coarsen_memo_hits"] +=
          static_cast<double>(R.PartStats.CoarsenMemoHits);
      Layer["sched.fallback_rational"] += R.FallbackRational;
    }
    Out.TraceJson = Tracer.chromeTraceJson();
  }

  for (const LoopScheduleResult &R : Rs)
    ++(R.Success ? Out.Units : Out.Failed);
  Out.Digest = digestSchedules(Rs);
  Last = std::move(Rs);
  return Out;
}

/// Measured ED2 of one body's schedule, accounted as ScheduleMeasurer
/// accounts a loop (energy from the body's reference profile).
double measuredED2(const Body &B, const LoopScheduleResult &R,
                   const HeteroScaling &Scaling) {
  const LoopProfile &LP = B.Profile.Loops.front();
  double Iters = LP.Invocations * static_cast<double>(B.L.TripCount);
  double TexecNs =
      LP.Invocations * R.Sched.execTimeNs(R.PG, B.L.TripCount).toDouble();
  std::vector<double> WIns(B.M.numClusters(), 0.0);
  for (unsigned Op = 0; Op < B.L.size(); ++Op)
    WIns[R.Assignment.cluster(Op)] += B.M.Isa.energy(B.L.Ops[Op].Op) * Iters;
  double Energy = B.Energy->heteroEnergy(
      WIns, static_cast<double>(R.PG.numCopies()) * Iters,
      LP.PerIter.MemAccesses * Iters, TexecNs, Scaling);
  return computeED2(Energy, TexecNs);
}

void BigLoopWorkload::check(uint64_t, CheckTally &T, Counters &Quality,
                            Counters &RunLayer) {
  double ItOverMit = 0, Ratio = 0, EstErr = 0, AnalysisMs = 0;
  uint64_t Divergences = 0;
  for (size_t BI = 0; BI < Bodies.size(); ++BI) {
    const Body &B = Bodies[BI];
    for (size_t P = 0; P < 2; ++P) {
      const LoopScheduleResult &R = Last[2 * BI + P];
      std::string What = B.L.Name + (P ? " het" : " hom");
      if (!R.Success) {
        T.record(false, "scheduled: " + What);
        ++Divergences;
        continue;
      }
      std::string Err = validateSchedule(B.M, R.PG, R.Sched);
      T.record(Err.empty(), "validator: " + What + " " + Err);
      std::string SimErr =
          checkFunctionalEquivalence(B.L, R.PG, R.Sched, B.M, SimIterations);
      T.record(SimErr.empty(), "simulator: " + What + " " + SimErr);
      Divergences += !Err.empty() + !SimErr.empty();
      ItOverMit += (R.Sched.Plan.ITNs / R.MITNs).toDouble();
    }
    HeteroScaling RefScaling = scalingForConfig(
        HeteroConfig::reference(B.M), B.M, TechnologyModel::paperDefault());
    double Het = measuredED2(B, Last[2 * BI + 1], B.Design.Scaling);
    Ratio += Het / measuredED2(B, Last[2 * BI], RefScaling);
    EstErr += std::fabs(Het / B.Design.EstED2 - 1.0);

    // The ir layer's share: the analyses the first plan pays per body.
    DDG G;
    DDG::buildInto(G, B.L);
    std::vector<unsigned> Lat;
    B.M.Isa.nodeLatenciesInto(Lat, B.L);
    obs::Stopwatch SW;
    RecurrenceInfo Recs = analyzeRecurrences(G, Lat);
    MinDistMatrix Slack =
        MinDistMatrix::compute(G, Lat, std::max<int64_t>(Recs.RecMII, 1));
    AnalysisMs += SW.elapsedMs();
    T.record(Slack.size() == B.L.size(), "slack matrix covers " + B.L.Name);
  }
  double NB = static_cast<double>(Bodies.size());
  Quality["it_over_mit_mean"] = ItOverMit / (2 * NB);
  Quality["ed2_ratio_mean"] = Ratio / NB;
  Quality["ed2_est_err_mean"] = EstErr / NB;
  RunLayer["vliwsim.checks"] += static_cast<double>(Last.size());
  RunLayer["vliwsim.divergences"] += static_cast<double>(Divergences);
  RunLayer["ir.analysis_ms"] = AnalysisMs;
}

} // namespace

std::unique_ptr<Workload> makeBigLoopWorkload() {
  return std::make_unique<BigLoopWorkload>();
}

} // namespace perfbench
