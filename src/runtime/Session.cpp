//===- runtime/Session.cpp - Shared execution substrate ---------------------===//

#include "runtime/Session.h"

using namespace hcvliw;

Session::Session(const PipelineOptions &O, unsigned Threads)
    : PipeOpts(O),
      Machine_(MachineDescription::paperDefault(O.Buses, O.NumClusters)),
      Menu_(HeterogeneousPipeline::menuFor(O)), Pool_(Threads),
      Cache_(Machine_, Menu_), Pipe_(*this) {}

bool Session::loadCacheFrom(const std::string &Path, std::string *Err) {
  CacheLoadStats Stats;
  if (!loadCacheSnapshot(Path, SchedCache_, Cache_, cacheBinding(), &Fault_,
                         &Stats, Err))
    return false;
  PersistLoad_.SchedLoaded += Stats.SchedLoaded;
  PersistLoad_.EvalLoaded += Stats.EvalLoaded;
  PersistLoad_.SelLoaded += Stats.SelLoaded;
  PersistLoad_.CorruptFrames += Stats.CorruptFrames;
  Metrics_.addCounter("cache.persist.loaded", Stats.loaded());
  Metrics_.addCounter("cache.load_corrupt", Stats.CorruptFrames);
  return true;
}

bool Session::saveCacheTo(const std::string &Path, std::string *Err) {
  CacheSaveStats Stats;
  if (!writeCacheSnapshot(Path, SchedCache_, Cache_, cacheBinding(), &Stats,
                          Err))
    return false;
  PersistSave_.SchedSaved += Stats.SchedSaved;
  PersistSave_.EvalSaved += Stats.EvalSaved;
  PersistSave_.SelSaved += Stats.SelSaved;
  Metrics_.addCounter("cache.persist.saved", Stats.saved());
  return true;
}

obs::MetricsSnapshot Session::metricsSnapshot() const {
  obs::MetricsSnapshot Snap = Metrics_.snapshot();
  // Mirror the shared substrate's own statistics into the snapshot as
  // gauges, so one snapshot carries everything the session observed
  // (the caches keep their deterministic counters; this only reports
  // them).
  Snap.Gauges["cache.eval.hits"] = static_cast<double>(Cache_.hits());
  Snap.Gauges["cache.eval.misses"] = static_cast<double>(Cache_.misses());
  Snap.Gauges["cache.eval.entries"] = static_cast<double>(Cache_.size());
  Snap.Gauges["cache.selection.hits"] =
      static_cast<double>(Cache_.selectionHits());
  Snap.Gauges["cache.selection.misses"] =
      static_cast<double>(Cache_.selectionMisses());
  Snap.Gauges["cache.schedule.hit_total"] =
      static_cast<double>(SchedCache_.hits());
  Snap.Gauges["cache.schedule.miss_total"] =
      static_cast<double>(SchedCache_.misses());
  Snap.Gauges["cache.schedule.entries"] =
      static_cast<double>(SchedCache_.size());
  // Persistent-tier ledger (all zero unless loadCacheFrom/saveCacheTo
  // ran): what the warm tier contributed and whether any frame had to
  // be quarantined (clean runs assert cache.persist.corrupt == 0).
  Snap.Gauges["cache.persist.hits"] =
      static_cast<double>(cachePersistHits());
  Snap.Gauges["cache.persist.loaded"] =
      static_cast<double>(PersistLoad_.loaded());
  Snap.Gauges["cache.persist.corrupt"] =
      static_cast<double>(PersistLoad_.CorruptFrames);
  Snap.Gauges["cache.persist.saved"] =
      static_cast<double>(PersistSave_.saved());
  Snap.Gauges["pool.threads"] = static_cast<double>(Pool_.threads());
  Snap.Gauges["pool.scratch_arenas"] =
      static_cast<double>(Scratches_.threadsSeen());
  Snap.Gauges["obs.trace_events"] = static_cast<double>(Tracer_.totalEvents());
  Snap.Gauges["obs.trace_dropped"] =
      static_cast<double>(Tracer_.droppedEvents());
  // Fault-injection ledger (all zero unless a plan was armed).
  Snap.Gauges["fault.injected"] = static_cast<double>(Fault_.totalInjected());
  Snap.Gauges["fault.injected_throws"] =
      static_cast<double>(Fault_.injectedThrows());
  Snap.Gauges["fault.injected_bad_allocs"] =
      static_cast<double>(Fault_.injectedBadAllocs());
  Snap.Gauges["fault.injected_degrades"] =
      static_cast<double>(Fault_.injectedDegrades());
  return Snap;
}
