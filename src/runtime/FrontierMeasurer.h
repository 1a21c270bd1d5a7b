//===- runtime/FrontierMeasurer.h - Measured frontier evaluation -*- C++ -*-===//
///
/// \file
/// Measured (scheduler-level) evaluation of a design-space search's
/// Pareto frontier. The exploration layer ranks the whole grid by the
/// Section 3.2/3.3 *estimate*; the paper's headline numbers (Figure 6)
/// come from *measured* schedules, and SLAP-style per-workload
/// operating-point adaptation needs a frontier whose points carry
/// measured Texec/Energy/ED2, not estimates.
///
/// FrontierMeasurer fans the surviving ParetoFrontier points of one
/// program through the Session's WorkerPool — each point is one
/// ScheduleMeasurer run (partition + heterogeneous modulo schedule +
/// validation + optional MCD sim-check per loop), memoized through the
/// session ScheduleCache so per-loop schedules are reused across
/// frontier points, across the pipeline's own step-4 measurement (the
/// estimated ED2 argmin is always on the frontier), and across
/// programs. Points are then re-ranked by measured ED2 and every point
/// reports its estimate-vs-measured error.
///
/// Determinism: frontier enumeration is the exploration's (ascending
/// estimated Texec), each point's measurement is a pure function of
/// (point, program, session options) written to its own slot, and all
/// reductions run serially afterwards — the MeasuredFrontier is
/// bit-identical for any thread count (pinned by tests/measure/).
///
/// Fault injection: frontier points run with no fault injector, unlike
/// the pipeline's step-4 measurement (HeterogeneousPipeline::
/// measureConfig), which passes the session's. The points fan out over
/// the pool, so a per-program "measure.config" occurrence count would
/// depend on thread timing; an armed plan therefore never fires inside
/// a frontier measurement (pinned by tests/fault/).
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_RUNTIME_FRONTIERMEASURER_H
#define HCVLIW_RUNTIME_FRONTIERMEASURER_H

#include "measure/ScheduleMeasurer.h"
#include "runtime/Session.h"

#include <string>
#include <vector>

namespace hcvliw {

/// One frontier point: its estimate-level selection record and its
/// measured behaviour.
struct FrontierPointMeasurement {
  size_t Candidate = 0;  ///< index into the exploration's candidate grid
  Rational FastFactor;   ///< fast period / reference period
  Rational SlowRatio;    ///< slow period / fast period
  SelectedDesign Design; ///< the estimates behind the point
  ConfigRunResult Measured; ///< Ok=false when some loop is unschedulable
  /// Relative estimate error, measured/estimated - 1 (valid when
  /// Measured.Ok).
  double TexecError = 0;
  double EnergyError = 0;
  double ED2Error = 0;
};

/// The measured frontier of one program.
struct MeasuredFrontier {
  std::string Program;
  /// Frontier order: ascending estimated Texec (the exploration's).
  std::vector<FrontierPointMeasurement> Points;
  /// Indices into Points of the measurable (Measured.Ok) points,
  /// re-ranked by ascending measured ED2 (ties by point index).
  std::vector<size_t> RankByMeasuredED2;
  size_t EstArgmin = 0;  ///< point index minimizing estimated ED2
  /// Point index minimizing measured ED2; meaningful only when
  /// RankByMeasuredED2 is non-empty (some point was measurable) —
  /// serialized as null / unflagged otherwise.
  size_t MeasArgmin = 0;
  /// Whether the estimate-level and measured ED2 argmins are the same
  /// design (the quantity bench_frontier_measured pins suite-wide).
  bool ArgminAgrees = false;
  /// This measurement's ScheduleCache statistics, summed over points.
  /// Diagnostics, not results: concurrent points may duplicate a
  /// compute instead of hitting, so (unlike everything above) the
  /// counters are scheduling-dependent.
  uint64_t ScheduleHits = 0;
  uint64_t ScheduleMisses = 0;

  /// Mean |ED2Error| over the measurable points (0 when none).
  double meanAbsED2Error() const;

  /// CSV, one row per frontier point (see csvHeader() for columns);
  /// rationals exact, doubles %.17g — a serialized frontier round-trips
  /// losslessly.
  static std::string csvHeader();
  std::string csvRows() const;
  std::string csv() const;
  std::string json() const;
  bool writeCsv(const std::string &Path) const;
  bool writeJson(const std::string &Path) const;
};

/// Multi-program aggregation (the `--measure-frontier` artifact:
/// frontier_measured.csv / frontier_measured.json over a whole suite).
bool writeFrontierCsv(const std::vector<MeasuredFrontier> &Frontiers,
                      const std::string &Path);
bool writeFrontierJson(const std::vector<MeasuredFrontier> &Frontiers,
                       const std::string &Path);

class FrontierMeasurer {
  Session &S;

public:
  explicit FrontierMeasurer(Session &Sess) : S(Sess) {}

  /// Measures the frontier of an already-profiled program: re-runs the
  /// exploration (timing memoized through the
  /// session EvalCache, so this is cheap after a selection already
  /// ran), then measures every surviving point on the session pool.
  MeasuredFrontier measure(const std::string &ProgramName,
                           const std::vector<Loop> &Loops,
                           const ProgramProfile &Profile) const;
};

} // namespace hcvliw

#endif // HCVLIW_RUNTIME_FRONTIERMEASURER_H
