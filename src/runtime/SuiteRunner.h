//===- runtime/SuiteRunner.h - Parallel suite execution ----------*- C++ -*-===//
///
/// \file
/// First-class suite execution: fans HeterogeneousPipeline::runProgram
/// across the programs of a benchmark suite on a Session's worker
/// pool, while each program's design-space exploration nests on the
/// same pool — one thread budget governs both levels (the
/// nested-parallelism budget is the ProgramLanes option: how many
/// programs may be in flight at once; threads left over accelerate the
/// in-flight programs' candidate grids).
///
/// Replaces the seed's serial bench-side suite loop (the long-removed
/// bench/BenchUtil.h shim), with three contract upgrades:
///
///   - failed programs are not silently dropped: every failure appears
///     in SuiteResult::Failures as a structured record (program name,
///     pipeline stage, reason);
///   - failures are *contained*: a program whose job throws — an
///     injected fault, a bad_alloc, a defect anywhere under
///     runProgram — costs that one program (a SuiteFailure record),
///     never the suite or the process;
///   - per-program completion streams through SuiteOptions::
///     OnProgramDone (serialized; completion order is
///     scheduling-dependent, the SuiteResult is not).
///
/// A run keeps no on-disk state of its own: a whole suite takes tens
/// of milliseconds, so a killed run is simply rerun. What does survive
/// the process is the session caches (runtime/CachePersist), which
/// make that rerun warm.
///
/// Determinism: each program's result is written to its own slot and
/// reduced in program order, and every per-program computation is a
/// pure function of (program, session options), so the SuiteResult is
/// bit-identical for any thread count and any ProgramLanes value.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_RUNTIME_SUITERUNNER_H
#define HCVLIW_RUNTIME_SUITERUNNER_H

#include "runtime/FrontierMeasurer.h"
#include "runtime/Session.h"
#include "workloads/SpecFPSuite.h"

#include <functional>
#include <string>
#include <vector>

namespace hcvliw {

/// One failed program, with where, why, and for how long the failing
/// stage ran — so timeout-shaped failures (a stage grinding for
/// seconds before giving up) read differently from logic failures
/// (instant). Wall time is diagnostic only: it lives here on the
/// failure record, never inside any deterministic result.
struct SuiteFailure {
  std::string Program;
  PipelineStage Stage = PipelineStage::Profiling;
  std::string Reason;
  double StageWallMs = 0; ///< wall time of the failing stage
};

/// Streamed to OnProgramDone as each program completes.
struct SuiteProgress {
  size_t Completed = 0; ///< programs finished so far (this one included)
  size_t Total = 0;
  std::string Program;
  bool Ok = false;
  double ED2Ratio = 0; ///< valid when Ok
  const SuiteFailure *Failure = nullptr; ///< valid during the callback
};

struct SuiteOptions {
  /// Nested-parallelism budget: at most this many programs in flight
  /// at once (0 = one lane per program, i.e. the pool decides). With
  /// fewer lanes than pool threads, the spare threads speed up the
  /// in-flight programs' exploration grids instead.
  size_t ProgramLanes = 0;
  /// Called as each program completes (serialized under a mutex; may
  /// be invoked from any pool thread).
  std::function<void(const SuiteProgress &)> OnProgramDone;
  /// Also measure every successful program's Pareto frontier with real
  /// schedules (measure/FrontierMeasurer on the session pool and
  /// ScheduleCache) and fill SuiteResult::Frontiers.
  bool MeasureFrontier = false;
};

struct SuiteResult {
  std::vector<std::string> Names;        ///< successful programs, suite order
  std::vector<double> ED2Ratios;         ///< parallel to Names
  std::vector<ProgramRunResult> Details; ///< parallel to Names
  /// Parallel to Names when SuiteOptions::MeasureFrontier was set
  /// (empty otherwise): each program's measured frontier.
  std::vector<MeasuredFrontier> Frontiers;
  std::vector<SuiteFailure> Failures;    ///< failed programs, suite order

  double meanRatio() const;
  size_t numPrograms() const { return Names.size() + Failures.size(); }
};

/// Strips the SPEC number prefix ("171.swim" -> "swim").
std::string shortSpecName(const std::string &Name);

class SuiteRunner {
  Session &S;

public:
  explicit SuiteRunner(Session &Sess) : S(Sess) {}

  /// Runs every program of \p Programs under the session's options.
  /// Per-program exceptions are contained as SuiteFailure records, so
  /// run() itself does not throw for a failing program; only an
  /// exception escaping SuiteOptions::OnProgramDone propagates (the
  /// WorkerPool rethrows it after the fan-out).
  SuiteResult run(const std::vector<BenchmarkProgram> &Programs,
                  const SuiteOptions &Opts = SuiteOptions());

  /// The paper's ten-program synthetic SPECfp suite.
  SuiteResult runSpecFP(const SuiteOptions &Opts = SuiteOptions());
};

} // namespace hcvliw

#endif // HCVLIW_RUNTIME_SUITERUNNER_H
