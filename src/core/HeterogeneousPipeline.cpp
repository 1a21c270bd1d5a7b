//===- core/HeterogeneousPipeline.cpp - Whole-paper pipeline ----------------===//

#include "core/HeterogeneousPipeline.h"
#include "obs/Stopwatch.h"
#include "runtime/Session.h"
#include "support/HashUtil.h"
#include "support/StrUtil.h"

#include <cassert>

using namespace hcvliw;

const char *hcvliw::pipelineStageName(PipelineStage S) {
  switch (S) {
  case PipelineStage::Profiling:
    return "profiling";
  case PipelineStage::Selection:
    return "selection";
  case PipelineStage::Measurement:
    return "measurement";
  }
  assert(false && "unknown pipeline stage");
  return "?";
}

const MachineDescription &HeterogeneousPipeline::machine() const {
  return S.machine();
}

const PipelineOptions &HeterogeneousPipeline::options() const {
  return S.pipelineOptions();
}

FrequencyMenu HeterogeneousPipeline::menuFor(const PipelineOptions &O) {
  if (!O.MenuSize)
    return FrequencyMenu::continuous();
  // Every domain's clock network derives MenuSize sub-frequencies of
  // that domain's own maximum (Figure 2's multipliers/dividers).
  return FrequencyMenu::relativeLadder(*O.MenuSize);
}

MeasureOptions
HeterogeneousPipeline::measureOptionsFor(const PipelineOptions &O) {
  MeasureOptions MO;
  MO.Menu = menuFor(O);
  MO.Part = O.Part;
  MO.MaxITSteps = O.MaxITSteps;
  MO.SimCheckIterations = O.SimCheckIterations;
  MO.EffortDeadline = O.LoopEffortDeadline;
  MO.AnalyticFallback = O.DegradeToEstimate;
  return MO;
}

ConfigRunResult HeterogeneousPipeline::measureConfig(
    const ProgramProfile &Profile, const std::vector<Loop> &Loops,
    const HeteroConfig &Config, const HeteroScaling &Scaling,
    const EnergyModel &Energy, bool ED2Objective) const {
  // Step 4 is the measure/ layer's ScheduleMeasurer, run under this
  // pipeline's options with per-loop schedules memoized through the
  // session ScheduleCache.
  MeasureOptions MO = measureOptionsFor(options());
  // The session's fault injector (disarmed = every site is a no-op
  // branch); not part of any cache key — an *armed* measurement
  // bypasses the schedule cache instead (see MeasureOptions::Fault).
  MO.Fault = &S.faultInjector();
  ScheduleMeasurer Measurer(machine(), MO, &S.scheduleCache(),
                            &S.scheduleScratchPool(), &S.tracer(),
                            &S.metrics());
  return Measurer.measure(Profile, Loops, Config, Scaling, Energy,
                          ED2Objective);
}

namespace {

/// Everything a selection's result depends on beyond the shared cache's
/// own (machine, menu) binding: the profile, the grids, the technology,
/// the energy-share assumptions, the reference operating point, and
/// which of the two selections ran.
uint64_t selectionKey(uint64_t ProfileFP, const PipelineOptions &Opts,
                      const MachineDescription &M, bool Heterogeneous) {
  FnvHasher H;
  H.mix(ProfileFP);
  H.mix(Heterogeneous ? 1u : 2u);
  const DesignSpaceOptions &S = Opts.Space;
  H.mixVector(S.FastFactors);
  H.mixVector(S.SlowRatios);
  H.mix(S.NumFastClusters);
  H.mixVector(S.ClusterVddGrid);
  H.mixVector(S.IcnVddGrid);
  H.mixVector(S.CacheVddGrid);
  H.mixVector(S.HomogFactors);
  H.mixVector(S.HomogVddGrid);
  H.mixDouble(Opts.Tech.Alpha);
  H.mixDouble(Opts.Tech.SubthresholdSlopeV);
  H.mixDouble(Opts.Tech.OverdriveMargin);
  H.mixDouble(Opts.Breakdown.CacheShare);
  H.mixDouble(Opts.Breakdown.IcnShare);
  H.mixDouble(Opts.Breakdown.ClusterLeakageFrac);
  H.mixDouble(Opts.Breakdown.CacheLeakageFrac);
  H.mixDouble(Opts.Breakdown.IcnLeakageFrac);
  H.mixDouble(M.RefVdd);
  H.mixDouble(M.RefVth);
  return H.digest();
}

void setError(PipelineError *Err, PipelineStage Stage, std::string Reason) {
  if (!Err)
    return;
  Err->Stage = Stage;
  Err->Reason = std::move(Reason);
}

} // namespace

std::optional<ProgramRunResult>
HeterogeneousPipeline::runProgram(const BenchmarkProgram &Program,
                                  PipelineError *Err) const {
  ProgramRunResult R;
  R.Name = Program.Name;

  // Observability: stage spans + per-stage wall histograms; the stage
  // clock also stamps StageWallMs into failure records (three clock
  // reads per program). None of this feeds back into any result.
  const PipelineOptions &Opts = options();
  obs::Tracer *Trace = &S.tracer();
  obs::Stopwatch StageSW;
  auto stageMs = [&StageSW] { return StageSW.elapsedMs(); };
  auto finishStage = [&](const char *Hist) {
    double Ms = stageMs();
    S.metrics().observeMs(Hist, Ms);
    StageSW.restart();
    return Ms;
  };

  // Containment: each stage converts a throw — an injected fault, a
  // bad_alloc, a defect in stage code — into the same structured
  // PipelineError a failing stage returns. One program's crash must
  // cost that program, never the suite or the process.
  auto stageException = [&](PipelineStage Stage, const char *Hist) {
    std::string What = "unknown exception";
    try {
      throw;
    } catch (const std::exception &E) {
      What = E.what();
    } catch (...) {
    }
    setError(Err, Stage, "exception: " + What);
    if (Err)
      Err->StageWallMs = finishStage(Hist);
  };

  // The Profiler records the stage.profile span itself.
  Profiler Prof(machine(), &S.scheduleCache(), &S.scheduleScratchPool(),
                Trace, &S.metrics(), &S.faultInjector());
  std::string ProfErr;
  std::optional<ProgramProfile> Profile;
  try {
    Profile = Prof.profileProgram(Program.Name, Program.Loops, &ProfErr);
  } catch (...) {
    stageException(PipelineStage::Profiling, "stage.profile.ms");
    return std::nullopt;
  }
  if (!Profile) {
    setError(Err, PipelineStage::Profiling, std::move(ProfErr));
    if (Err)
      Err->StageWallMs = finishStage("stage.profile.ms");
    return std::nullopt;
  }
  finishStage("stage.profile.ms");
  R.Profile = std::move(*Profile);

  EnergyModel Energy(Opts.Breakdown, R.Profile.Totals, R.Profile.TexecRefNs,
                     machine().numClusters());
  EvalCache &Cache = S.evalCache();
  ExplorationEngine Engine(R.Profile, machine(), Energy, Opts.Tech,
                           S.menu(), Opts.Space);

  // Whole selections are memoized: a repeated program (same profile,
  // same selection inputs) skips its searches entirely. The memo is
  // exact — equal keys hash equal inputs, and the searches are pure
  // functions of those inputs.
  try {
    obs::Span Sp(Trace, "stage.select:", Program.Name);
    uint64_t FP = R.Profile.fingerprint();
    uint64_t HetKey = selectionKey(FP, Opts, machine(), true);
    uint64_t HomKey = selectionKey(FP, Opts, machine(), false);
    unsigned MemoHits = 0;
    if (auto D = Cache.findSelection(HetKey)) {
      R.HetDesign = *D;
      ++MemoHits;
    } else {
      R.HetDesign = Engine.explore(S.pool(), &Cache).Best;
      Cache.storeSelection(HetKey, R.HetDesign);
    }
    if (auto D = Cache.findSelection(HomKey)) {
      R.HomDesign = *D;
      ++MemoHits;
    } else {
      R.HomDesign = Engine.selectOptimumHomogeneous();
      Cache.storeSelection(HomKey, R.HomDesign);
    }
    Sp.arg("memo_hits", MemoHits);
  } catch (...) {
    stageException(PipelineStage::Selection, "stage.select.ms");
    return std::nullopt;
  }
  if (!R.HetDesign.Valid || !R.HomDesign.Valid) {
    setError(Err, PipelineStage::Selection,
             formatString("no feasible %s design in the grid",
                          !R.HetDesign.Valid && !R.HomDesign.Valid
                              ? "heterogeneous or homogeneous"
                              : (!R.HetDesign.Valid ? "heterogeneous"
                                                    : "homogeneous")));
    if (Err)
      Err->StageWallMs = finishStage("stage.select.ms");
    return std::nullopt;
  }
  finishStage("stage.select.ms");

  try {
    obs::Span Sp(Trace, "stage.measure:", Program.Name);
    R.HetMeasured =
        measureConfig(R.Profile, Program.Loops, R.HetDesign.Config,
                      R.HetDesign.Scaling, Energy, /*ED2Objective=*/true);
    R.HomMeasured =
        measureConfig(R.Profile, Program.Loops, R.HomDesign.Config,
                      R.HomDesign.Scaling, Energy, /*ED2Objective=*/false);
  } catch (...) {
    stageException(PipelineStage::Measurement, "stage.measure.ms");
    return std::nullopt;
  }
  if (!R.HetMeasured.Ok || !R.HomMeasured.Ok) {
    const ConfigRunResult &Bad =
        !R.HetMeasured.Ok ? R.HetMeasured : R.HomMeasured;
    std::string Reason = formatString(
        "%s measurement failed: %u of %zu loops unschedulable",
        !R.HetMeasured.Ok ? "heterogeneous" : "homogeneous", Bad.Failures,
        Program.Loops.size());
    // Surface the Figure 5 sweep's per-IT failure aggregation for the
    // first failed loop: which stage failed at which IT.
    if (!Bad.FailureDetails.empty()) {
      const LoopScheduleFailure &F = Bad.FailureDetails.front();
      Reason += formatString(" (%s: %s)", F.Loop.c_str(), F.Detail.c_str());
    }
    setError(Err, PipelineStage::Measurement, std::move(Reason));
    if (Err)
      Err->StageWallMs = finishStage("stage.measure.ms");
    return std::nullopt;
  }
  finishStage("stage.measure.ms");

  R.ED2Ratio = R.HetMeasured.ED2 / R.HomMeasured.ED2;
  return R;
}
