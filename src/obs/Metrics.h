//===- obs/Metrics.h - Metrics registry --------------------------*- C++ -*-===//
///
/// \file
/// The metrics half of the observability layer: named counters, gauges
/// and fixed-bucket histograms behind one mutex.
///
/// Recording is rare next to the work it describes (a few records per
/// fresh loop schedule or per config measurement), so one lock does
/// not contend, and TSan sees a clean happens-before edge at every
/// record/snapshot pair (pinned by tests/obs/MetricsTest under the TSan
/// CI job). Counter sums are exact: every increment lands in the one
/// map, with no sampling and no races.
///
/// Metric naming convention (see README "Observability"):
///   <layer>.<thing>.<unit-suffix>   e.g. stage.loop_schedule.ms,
///   cache.eval.hits, sched.placements. Histograms carry a unit suffix
///   (.ms); counters and gauges are raw counts.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_OBS_METRICS_H
#define HCVLIW_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hcvliw {
namespace obs {

/// Fixed-bucket histogram counts: Counts[i] tallies values in
/// [Bounds[i-1], Bounds[i]), with an implicit underflow-to-first and a
/// final overflow bucket; Sum/Count give the exact mean.
struct HistogramData {
  std::vector<double> Bounds; ///< ascending upper bounds, last = +inf bucket
  std::vector<uint64_t> Counts; ///< size = Bounds.size() + 1
  double Sum = 0;
  double Min = 0;
  double Max = 0;
  uint64_t Count = 0;

  void observe(double V);
};

/// Default bucket bounds for wall-time histograms, in milliseconds.
/// Quasi-logarithmic from sub-millisecond scheduler steps up to
/// multi-second whole-program runs.
std::vector<double> defaultMsBounds();

/// An exact point-in-time copy of the registry.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> Gauges;
  std::map<std::string, HistogramData> Histograms;

  /// The snapshot as a JSON object string:
  /// {"counters": {...}, "gauges": {...}, "histograms": {"name":
  ///  {"count","sum","min","max","mean","bounds":[...],
  ///   "counts":[...]}}} — embedded in BENCH_*.json under "obs" and in
  /// tool --metrics output.
  std::string json() const;
};

/// Counters, gauges and histograms keyed by name. Registration is lazy:
/// the first record against a name defines it. Thread-safe throughout.
class MetricsRegistry {
  mutable std::mutex Mutex; ///< guards Data
  MetricsSnapshot Data;

public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Adds \p Delta to counter \p Name (creating it at 0).
  void addCounter(const std::string &Name, uint64_t Delta = 1);
  /// Sets gauge \p Name to \p Value (last write wins; gauges are meant
  /// to be set from one place).
  void setGauge(const std::string &Name, double Value);
  /// Records \p Ms into histogram \p Name (created on first observe
  /// with \p defaultMsBounds()).
  void observeMs(const std::string &Name, double Ms);
  /// Records \p V into histogram \p Name with explicit \p Bounds used
  /// only if the histogram does not exist yet.
  void observe(const std::string &Name, double V,
               const std::vector<double> &Bounds);

  /// Every metric, names sorted. Safe to call while recording
  /// continues; values already recorded are always included.
  MetricsSnapshot snapshot() const;

  /// Drops every metric (names included).
  void reset();
};

} // namespace obs
} // namespace hcvliw

#endif // HCVLIW_OBS_METRICS_H
