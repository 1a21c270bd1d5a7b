//===- runtime/SuiteRunner.cpp - Parallel suite execution -------------------===//

#include "runtime/SuiteRunner.h"

#include "obs/Stopwatch.h"
#include "support/Stats.h"

#include <algorithm>
#include <mutex>
#include <optional>

using namespace hcvliw;

double SuiteResult::meanRatio() const { return mean(ED2Ratios); }

std::string hcvliw::shortSpecName(const std::string &Name) {
  size_t Dot = Name.find('.');
  return Dot == std::string::npos ? Name : Name.substr(Dot + 1);
}

SuiteResult SuiteRunner::run(const std::vector<BenchmarkProgram> &Programs,
                             const SuiteOptions &Opts) {
  struct Slot {
    std::optional<ProgramRunResult> Res;
    std::optional<MeasuredFrontier> Frontier;
    PipelineError Err;
  };
  const size_t N = Programs.size();
  std::vector<Slot> Slots(N);

  obs::Span SuiteSp(&S.tracer(), "suite.run");
  if (SuiteSp.active())
    SuiteSp.arg("programs", static_cast<int64_t>(N));

  std::mutex ProgressMutex;
  size_t Completed = 0;

  auto runOne = [&](size_t I) {
    Slot &S_ = Slots[I];
    obs::Span ProgSp(&S.tracer(), "program:", Programs[I].Name);
    obs::Stopwatch SW;
    // Containment: runProgram converts its own stage exceptions to
    // PipelineError already; this backstop catches everything else a
    // job can throw (the pool.job fault site, the frontier measurer,
    // a defect in the glue here) so one program's crash becomes one
    // SuiteFailure record, never a dead suite. The WorkerPool's own
    // capture (WorkerPool.h) stays the last line of defense for
    // exceptions escaping the OnProgramDone callback below.
    try {
      HCVLIW_FAULT_POINT(&S.faultInjector(), "pool.job", Programs[I].Name);
      S_.Res = S.pipeline().runProgram(Programs[I], &S_.Err);
      // The measured frontier reuses the program's profile;
      // exploration hits the session EvalCache and the argmin point's
      // schedules hit the ScheduleCache entries step 4 just filled.
      if (Opts.MeasureFrontier && S_.Res)
        S_.Frontier = FrontierMeasurer(S).measure(
            Programs[I].Name, Programs[I].Loops, S_.Res->Profile);
    } catch (const std::exception &E) {
      S_.Res.reset();
      S_.Frontier.reset();
      S_.Err.Stage = PipelineStage::Profiling;
      S_.Err.Reason = std::string("worker job exception: ") + E.what();
      S_.Err.StageWallMs = SW.elapsedMs();
    } catch (...) {
      S_.Res.reset();
      S_.Frontier.reset();
      S_.Err.Stage = PipelineStage::Profiling;
      S_.Err.Reason = "worker job exception: unknown exception";
      S_.Err.StageWallMs = SW.elapsedMs();
    }
    S.metrics().observeMs("stage.program.ms", SW.elapsedMs());
    if (ProgSp.active())
      ProgSp.arg("ok", S_.Res.has_value() ? 1 : 0);
    ProgSp.close();
    if (!Opts.OnProgramDone)
      return;
    // Streamed completion: serialized, in completion order (which is
    // scheduling-dependent; the SuiteResult reduction below is not).
    std::lock_guard<std::mutex> Lock(ProgressMutex);
    SuiteProgress P;
    P.Completed = ++Completed;
    P.Total = N;
    P.Program = Programs[I].Name;
    P.Ok = S_.Res.has_value();
    SuiteFailure F;
    if (P.Ok) {
      P.ED2Ratio = S_.Res->ED2Ratio;
    } else {
      F.Program = Programs[I].Name;
      F.Stage = S_.Err.Stage;
      F.Reason = S_.Err.Reason;
      F.StageWallMs = S_.Err.StageWallMs;
      P.Failure = &F;
    }
    Opts.OnProgramDone(P);
  };

  // Outer fan-out with the nested-parallelism budget: ProgramLanes
  // strided lanes claim programs; each program's exploration then
  // nests on the same pool, so spare threads help whichever level has
  // work. Slot-indexed writes keep the result thread-count-invariant.
  size_t Lanes =
      Opts.ProgramLanes == 0 ? N : std::min<size_t>(Opts.ProgramLanes, N);
  if (Lanes == N) {
    S.pool().parallelFor(N, runOne);
  } else if (Lanes > 0) {
    S.pool().parallelFor(Lanes, [&](size_t Lane) {
      for (size_t I = Lane; I < N; I += Lanes)
        runOne(I);
    });
  }

  // Serial reduction in suite order.
  SuiteResult R;
  for (size_t I = 0; I < N; ++I) {
    Slot &S_ = Slots[I];
    if (S_.Res) {
      R.Names.push_back(Programs[I].Name);
      R.ED2Ratios.push_back(S_.Res->ED2Ratio);
      R.Details.push_back(std::move(*S_.Res));
      if (S_.Frontier)
        R.Frontiers.push_back(std::move(*S_.Frontier));
    } else {
      SuiteFailure F;
      F.Program = Programs[I].Name;
      F.Stage = S_.Err.Stage;
      F.Reason = std::move(S_.Err.Reason);
      F.StageWallMs = S_.Err.StageWallMs;
      R.Failures.push_back(std::move(F));
    }
  }
  return R;
}

SuiteResult SuiteRunner::runSpecFP(const SuiteOptions &Opts) {
  return run(buildSpecFPSuite(), Opts);
}
