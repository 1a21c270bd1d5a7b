//===- perfbench/src/Harness.h - Shared benchmark types -------*- C++ -*-===//
///
/// \file
/// The contract between the benchmark main program (main.cpp) and its
/// workloads. A workload generates its inputs from the seed, runs one
/// closed-loop iteration at a time, digests each iteration's result in a
/// canonical order, and runs its untimed checks (oracle pass, thread and
/// order invariance) after the timed loop. Everything is measured from
/// outside the library: main.cpp times calls into public functions
/// and reads the spans and counters the library already records.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Per-thread trace ring size for traced iterations: a fresh session
/// allocates (and faults in) one ring per thread on every traced
/// iteration, so the ring is sized to the largest iteration's events
/// per thread rather than the tracer default. obs.dropped must stay 0.
constexpr size_t TraceBufferEvents = size_t(1) << 14;

/// Named per-layer values. Workloads add per-iteration values; the
/// main program divides by the number of traced iterations.
using Counters = std::map<std::string, double>;

struct IterationOutcome {
  uint64_t Units = 0;  ///< programs, or loop-plan schedules, completed
  uint64_t Failed = 0; ///< SuiteFailures, unschedulable loops
  uint64_t Digest = 0; ///< canonical digest of the iteration's result
  /// Wall time of the iteration itself, excluding the trace export and
  /// counter reads that follow a traced iteration.
  double WallMs = 0;
  std::string TraceJson; ///< Chrome trace of the iteration (traced only)
};

/// Untimed check operations (digests, oracle schedules, self-tests).
struct CheckTally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  void record(bool Ok, const std::string &What);
};

class Workload {
public:
  virtual ~Workload() = default;
  /// What Units counts, for the report.
  virtual const char *unitName() const = 0;
  /// Whether expected_digests.txt holds this workload's digest (else
  /// the warm-up iteration's digest is the reference).
  virtual bool hasCommittedDigest() const = 0;
  /// Input generation and one-time set-up for \p Seed. main.cpp calls
  /// it several times (setup_s is the median); each call replaces the
  /// previous set-up.
  virtual void setup(uint64_t Seed) = 0;
  /// One closed-loop iteration. With \p Traced, spans are recorded and
  /// the iteration's per-layer values are added to \p Layer.
  virtual IterationOutcome iterate(bool Traced, Counters &Layer) = 0;
  /// Digest of the last iteration's result with one value nudged by one
  /// ulp: the self-test that a perturbed result fails the check.
  virtual uint64_t perturbedDigest() const = 0;
  /// Untimed checks after the timed loop. \p Quality receives the exact
  /// end-to-end quality metrics, \p RunLayer run-level per-layer values
  /// (not divided by iterations).
  virtual void check(uint64_t ExpectedDigest, CheckTally &T,
                     Counters &Quality, Counters &RunLayer) = 0;
};

std::unique_ptr<Workload> makeSpecFrontierWorkload();
std::unique_ptr<Workload> makeSpecWarmWorkload(const std::string &OutDir);
std::unique_ptr<Workload> makeBigLoopWorkload();

/// FNV-1a over the bytes a workload feeds it, in canonical order.
class Digest {
  uint64_t H = 1469598103934665603ull;

public:
  void bytes(const void *P, size_t N);
  void str(const std::string &S) { bytes(S.data(), S.size() + 1); }
  void u64(uint64_t V) { bytes(&V, sizeof V); }
  void f64(double V);
  uint64_t value() const { return H; }
};

/// Allocations made so far by this process (operator new is counted).
uint64_t allocationsSoFar();

/// Median of \p V (0 when empty).
double median(std::vector<double> V);
/// Nearest-rank percentile \p P in [0, 100] of \p V (0 when empty).
double percentile(std::vector<double> V, double P);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
