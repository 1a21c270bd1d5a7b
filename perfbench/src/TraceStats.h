//===- perfbench/src/TraceStats.h - Span-family accounting -----*- C++ -*-===//
///
/// \file
/// Reads a Chrome-trace-event export of obs::Tracer and accounts time
/// per span family (the span name up to its first ':', so
/// "loop.schedule:swim_l3" counts as "loop.schedule"):
///
///   - self time: a span's duration minus the durations of its direct
///     children on the same thread;
///   - inclusive time: durations of the spans with no ancestor of the
///     same family (nested same-family spans are not counted twice);
///   - calls: spans recorded.
///
/// Per thread, the self times of all spans under a root span add up to
/// the root's duration exactly (integer nanoseconds), which is how the
/// report shows that the families account for the whole iteration.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACESTATS_H
#define PERFBENCH_TRACESTATS_H

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct FamilyStats {
  int64_t SelfNs = 0;
  int64_t InclNs = 0;
  uint64_t Calls = 0;
};

struct TraceSummary {
  std::map<std::string, FamilyStats> Families;
  /// Sums of integer span args, keyed "<family>/<arg>".
  std::map<std::string, int64_t> ArgSums;
  uint64_t Events = 0;  ///< events the tracer recorded
  uint64_t Dropped = 0; ///< events lost to ring wraps
  uint64_t Parsed = 0;  ///< span events read back from the export
  int64_t RootNs = 0;   ///< duration of the root span(s)
  /// Self times summed over the root span's thread, and over all threads.
  int64_t RootThreadSelfNs = 0;
  int64_t AllThreadsSelfNs = 0;
  unsigned Threads = 0; ///< threads that recorded spans

  void merge(const TraceSummary &O);
  double familySelfMs(const std::string &F) const;
  double familyInclMs(const std::string &F) const;
  uint64_t familyCalls(const std::string &F) const;
  int64_t argSum(const std::string &Key) const;
};

/// Summarizes one exported trace; \p RootFamily names the span the
/// benchmark opens around the whole iteration.
TraceSummary summarizeTrace(const std::string &ChromeJson,
                            const std::string &RootFamily);

/// The traced-run report: one row per family (per-iteration means of
/// self, inclusive and calls) plus the self-time reconciliation.
std::string formatTraceReport(const TraceSummary &S, unsigned Iterations);

} // namespace perfbench

#endif // PERFBENCH_TRACESTATS_H
