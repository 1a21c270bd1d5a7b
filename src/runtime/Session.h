//===- runtime/Session.h - Shared execution substrate ------------*- C++ -*-===//
///
/// \file
/// A Session is the one driver of the paper's flow: the pipeline
/// (pipeline()), the frontier measurer and the exploration tool all run
/// on the long-lived state it owns instead of rebuilding it per call:
///
///   - the PipelineOptions and the MachineDescription they imply,
///   - one WorkerPool, over which both the suite-level program fan-out
///     (SuiteRunner) and each program's design-space exploration run
///     (nested jobs on the same threads, so one thread budget governs
///     both levels),
///   - one EvalCache keyed by (loop structure, frequency shape), so
///     selection no longer rebuilds timing caches per explore() call
///     and structurally identical loops hit across programs, plus the
///     selection memo that skips whole repeated selections,
///   - one ScheduleCache memoizing whole per-loop scheduling runs, so
///     the measurement stage (pipeline step 4, the frontier measurer,
///     the oracle ablation) never schedules the same (loop, machine
///     plan) pair twice — schedules are reused across frontier points,
///     across repeated measurements and across programs,
///   - one ScheduleScratchPool of per-worker ScheduleScratch arenas, so
///     the schedule runs that do happen reuse their working storage
///     (DDG, partitioned graph, tick graphs, reservation tables, ...)
///     instead of hitting malloc per attempt.
///
/// Everything a Session hands out is thread-safe in the ways its users
/// need: runProgram may be called concurrently, explorations may nest
/// under suite fan-outs, and all results are bit-identical for any
/// thread count (tests/runtime/SessionSuiteTest pins the suite against
/// golden digests).
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_RUNTIME_SESSION_H
#define HCVLIW_RUNTIME_SESSION_H

#include "core/HeterogeneousPipeline.h"
#include "explore/EvalCache.h"
#include "fault/Fault.h"
#include "measure/ScheduleCache.h"
#include "runtime/CachePersist.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "partition/ScheduleScratch.h"
#include "runtime/WorkerPool.h"

namespace hcvliw {

class Session {
  PipelineOptions PipeOpts;
  MachineDescription Machine_;
  FrequencyMenu Menu_;
  WorkerPool Pool_;
  EvalCache Cache_;
  ScheduleCache SchedCache_;
  ScheduleScratchPool Scratches_;
  obs::Tracer Tracer_;
  obs::MetricsRegistry Metrics_;
  fault::FaultInjector Fault_;
  CacheLoadStats PersistLoad_;
  CacheSaveStats PersistSave_;
  HeterogeneousPipeline Pipe_;

public:
  /// \p Threads is the pool's total parallelism degree (0 = hardware
  /// concurrency, 1 = fully serial).
  explicit Session(const PipelineOptions &O = PipelineOptions(),
                   unsigned Threads = 0);

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  const PipelineOptions &pipelineOptions() const { return PipeOpts; }
  const MachineDescription &machine() const { return Machine_; }
  const FrequencyMenu &menu() const { return Menu_; }
  WorkerPool &pool() { return Pool_; }
  EvalCache &evalCache() { return Cache_; }
  const EvalCache &evalCache() const { return Cache_; }
  ScheduleCache &scheduleCache() { return SchedCache_; }
  const ScheduleCache &scheduleCache() const { return SchedCache_; }
  /// The per-worker ScheduleScratch arenas every measurement this
  /// session backs schedules through (one arena per thread; results
  /// never depend on which arena serves a run).
  ScheduleScratchPool &scheduleScratchPool() { return Scratches_; }
  const ScheduleScratchPool &scheduleScratchPool() const {
    return Scratches_;
  }

  /// The session span tracer. Off by default: enable it (and export
  /// after the run) to get a Perfetto-loadable timeline of everything
  /// this session executes. Tracing only observes — results are
  /// bit-identical with it on or off (tests/obs/TraceSuiteIdentityTest).
  obs::Tracer &tracer() { return Tracer_; }
  const obs::Tracer &tracer() const { return Tracer_; }

  /// The session metrics registry: stage wall-time histograms, cache
  /// counters, scheduler effort. Recording only observes — results
  /// never depend on it.
  obs::MetricsRegistry &metrics() { return Metrics_; }
  const obs::MetricsRegistry &metrics() const { return Metrics_; }

  /// The session fault injector (deterministic chaos testing; see
  /// fault/Fault.h). Disarmed by default, in which case every fault
  /// site in the session's pipelines is a single predictable branch
  /// and results are bit-identical to a run with no injector. Arm it with
  /// a FaultPlan to replay exact failures; while armed, measurements
  /// bypass the shared ScheduleCache (MeasureOptions::Fault).
  fault::FaultInjector &faultInjector() { return Fault_; }
  const fault::FaultInjector &faultInjector() const { return Fault_; }

  /// The snapshot binding this session's caches persist under (see
  /// runtime/CachePersist.h).
  uint64_t cacheBinding() const {
    return cacheBindingFingerprint(Machine_, Menu_);
  }

  /// Warms the session caches from the persistent snapshot at \p Path.
  /// Refuses version/binding skew (false, \p Err); corrupt frames are
  /// quarantined and counted, never fatal. Accumulates
  /// cachePersistStats() and the cache.persist.loaded /
  /// cache.load_corrupt metrics. The "cache.load" fault site is this
  /// session's injector.
  bool loadCacheFrom(const std::string &Path, std::string *Err = nullptr);

  /// Writes the session caches' persistent snapshot to \p Path
  /// (torn-write-safe, deterministic record order). Accumulates
  /// cachePersistStats() and the cache.persist.saved metric.
  bool saveCacheTo(const std::string &Path, std::string *Err = nullptr);

  /// What loadCacheFrom imported / quarantined so far.
  const CacheLoadStats &cachePersistLoadStats() const {
    return PersistLoad_;
  }
  /// What saveCacheTo wrote so far.
  const CacheSaveStats &cachePersistSaveStats() const {
    return PersistSave_;
  }
  /// Hits served by persisted (snapshot-imported) entries across both
  /// caches — the warm tier's contribution to this run.
  uint64_t cachePersistHits() const {
    return SchedCache_.persistHits() + Cache_.persistHits();
  }

  /// A snapshot of the registry with the session's cache statistics
  /// and scratch-pool state mirrored in as gauges (cache.eval.*,
  /// cache.selection.*, cache.schedule.*, pool.*) — the one call that
  /// aggregates everything this session observed.
  obs::MetricsSnapshot metricsSnapshot() const;

  /// The session's pipeline (selections share the pool and cache).
  const HeterogeneousPipeline &pipeline() const { return Pipe_; }
};

} // namespace hcvliw

#endif // HCVLIW_RUNTIME_SESSION_H
