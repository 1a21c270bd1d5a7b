//===- runtime/CachePersist.h - Persistent schedule/eval caches --*- C++ -*-===//
///
/// \file
/// The on-disk tier of the session caches: a versioned, checksummed
/// snapshot of every ScheduleCache entry, EvalCache timing entry and
/// selection memo, so a later process can start warm (suite_tool
/// --save-cache / --load-cache; CI's warm-start job).
///
/// Format: a line-oriented text file over the support/RecordIO token
/// codec. Header:
///
///   hcvliw-cache-snapshot v1
///   schema <u32> binding <hex16>
///   build <sha>
///
/// then one framed record per line:
///
///   rec <sched|eval|sel> <crc32-hex8> <body tokens...>
///
/// where the CRC-32 covers the body exactly as written. Safety
/// contract, in order:
///
///   - *Version skew refuses.* A load whose magic, format version,
///     key-schema version or binding fingerprint differs from the
///     loading session returns an error and imports nothing: cache
///     keys are digests, so entries are only meaningful under the
///     exact key schema and (machine, menu) binding that produced
///     them. The build sha is provenance only — semantic changes to
///     the keyed computations must bump CacheKeySchemaVersion.
///   - *Corruption quarantines.* A record whose CRC mismatches, whose
///     body fails to parse, or whose kind is unknown is skipped and
///     counted (CacheLoadStats::CorruptFrames, surfaced as the
///     cache.load_corrupt metric); every intact record before and
///     after it still loads. A torn tail (the writer died mid-line)
///     is one corrupt frame, never UB.
///   - *Partial load is always safe.* Imported entries are
///     first-writer-wins and bit-identical to recomputation (the
///     caches' key contract), so any subset of a snapshot warms the
///     run without changing any result.
///   - *Saves are torn-write-safe.* writeCacheSnapshot writes to a
///     temp file and renames into place, so a killed save leaves the
///     previous snapshot (or nothing), never a half-written one.
///   - *Snapshots are deterministic.* Records are emitted in a
///     canonical order (kind, then key), so equal cache contents save
///     byte-identical files.
///
/// The "cache.load" degrade fault site is consulted once per record in
/// loadCacheSnapshot — a deterministic way to drive the quarantine
/// path in tests without hand-crafting bit-flips.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_RUNTIME_CACHEPERSIST_H
#define HCVLIW_RUNTIME_CACHEPERSIST_H

#include "explore/EvalCache.h"
#include "fault/Fault.h"
#include "measure/ScheduleCache.h"

#include <cstdint>
#include <string>

namespace hcvliw {

/// Version of the *meaning* of persisted cache keys: the fingerprint
/// and key-hash recipes of ScheduleCache / EvalCache and the serialized
/// value layouts. Bump whenever any keyed computation or serde layout
/// changes semantically; old snapshots are then refused instead of
/// silently serving stale values.
constexpr uint32_t CacheKeySchemaVersion = 1;

/// The (machine, menu) identity a snapshot is bound to: FNV over the
/// key-schema version, the timing-relevant machine structure (the same
/// fields EvalCache::compatibleWith compares) and the frequency menu.
/// Everything else the cached computations read is hashed into the
/// entry keys themselves (ScheduleMeasurer::loopScheduleKey, the
/// selection key), so binding + key is a complete identity.
uint64_t cacheBindingFingerprint(const MachineDescription &M,
                                 const FrequencyMenu &Menu);

/// What a load did: entries imported per kind, corrupt frames skipped.
struct CacheLoadStats {
  uint64_t SchedLoaded = 0;
  uint64_t EvalLoaded = 0;
  uint64_t SelLoaded = 0;
  uint64_t CorruptFrames = 0;

  uint64_t loaded() const { return SchedLoaded + EvalLoaded + SelLoaded; }
};

/// What a save wrote, per kind.
struct CacheSaveStats {
  uint64_t SchedSaved = 0;
  uint64_t EvalSaved = 0;
  uint64_t SelSaved = 0;

  uint64_t saved() const { return SchedSaved + EvalSaved + SelSaved; }
};

/// Writes a snapshot of \p Sched and \p Eval to \p Path (temp file +
/// rename; deterministic record order). \p Binding is the session's
/// cacheBindingFingerprint. False (with \p Err filled when non-null)
/// on IO failure. Callers must be quiescent with respect to cache
/// writes.
bool writeCacheSnapshot(const std::string &Path, const ScheduleCache &Sched,
                        const EvalCache &Eval, uint64_t Binding,
                        CacheSaveStats *Stats = nullptr,
                        std::string *Err = nullptr);

/// Loads \p Path into \p Sched and \p Eval. Refuses (false, \p Err)
/// on a missing/empty file or any header skew (see file header);
/// otherwise quarantines corrupt frames into Stats->CorruptFrames and
/// imports every intact record (first-writer-wins). \p Inj (may be
/// null) is consulted at the "cache.load" degrade site once per
/// record, with the snapshot path as context.
bool loadCacheSnapshot(const std::string &Path, ScheduleCache &Sched,
                       EvalCache &Eval, uint64_t Binding,
                       fault::FaultInjector *Inj = nullptr,
                       CacheLoadStats *Stats = nullptr,
                       std::string *Err = nullptr);

} // namespace hcvliw

#endif // HCVLIW_RUNTIME_CACHEPERSIST_H
