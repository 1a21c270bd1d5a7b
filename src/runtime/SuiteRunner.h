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
/// bench/BenchUtil.h shim), with four contract upgrades:
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
///     scheduling-dependent, the SuiteResult is not);
///   - runs are durable: with SuiteOptions::JournalPath set, each
///     completed program is checkpointed to a journal file, and a
///     killed suite resumes via SuiteOptions::ResumeFrom with a merged
///     SuiteResult bit-identical to the uninterrupted run (see
///     runtime/SuiteJournal.h).
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
#include "runtime/SuiteJournal.h"
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
  /// ScheduleCache) and fill SuiteResult::Frontiers. Incompatible with
  /// journaling (frontiers are not journaled, so a killed frontier run
  /// cannot be reassembled): run() throws std::runtime_error when
  /// JournalPath or ResumeFrom is combined with this — fail fast, never
  /// silently drop durability the caller asked for.
  bool MeasureFrontier = false;
  /// When non-empty, append each program's completed record (result or
  /// failure) to this journal file as it finishes, flushed per record —
  /// a killed run loses at most the programs still in flight. Resuming
  /// with the same path extends the same file. run() throws
  /// std::runtime_error when the journal cannot be opened or belongs to
  /// different options/programs (fingerprint mismatch).
  std::string JournalPath;
  /// A journal loaded from a previous (killed) run of the *same*
  /// programs under the *same* options: journaled programs are spliced
  /// into the SuiteResult without re-executing, and the merged result
  /// is bit-identical to an uninterrupted run (except SuiteFailure::
  /// StageWallMs, which is diagnostic wall time carried from the run
  /// that recorded it). run() throws std::runtime_error on a
  /// fingerprint mismatch. Non-owning; must outlive run().
  const SuiteJournal *ResumeFrom = nullptr;
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
  /// Per-program exceptions are contained as SuiteFailure records; the
  /// only throws out of run() itself are journal configuration errors
  /// (see SuiteOptions::JournalPath / ResumeFrom).
  SuiteResult run(const std::vector<BenchmarkProgram> &Programs,
                  const SuiteOptions &Opts = SuiteOptions());

  /// The paper's ten-program synthetic SPECfp suite.
  SuiteResult runSpecFP(const SuiteOptions &Opts = SuiteOptions());
};

} // namespace hcvliw

#endif // HCVLIW_RUNTIME_SUITERUNNER_H
