//===- runtime/CachePersist.h - Persistent schedule/eval caches --*- C++ -*-===//
///
/// \file
/// The on-disk tier of the session caches, and the runtime's only
/// durable format: a versioned, checksummed snapshot of every
/// ScheduleCache entry, EvalCache timing entry and selection memo, so a
/// later process can start warm (suite_tool --save-cache /
/// --load-cache; CI's warm-start job).
///
/// Format: a line-oriented text file over the support/RecordIO token
/// codec. The record-body serializers (schedules, partitioned graphs,
/// machine plans, selected designs) are file-local to CachePersist.cpp,
/// so the whole format lives in one module. Header:
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
///     is one corrupt frame, never UB. A seeded mutation test
///     (CachePersistTest) re-frames mutated bodies under valid CRCs to
///     hold the body decoder to this.
///   - *Decoded values are checked, not trusted.* A CRC only proves
///     the bytes are the writer's, so the body decoder also refuses
///     (quarantines) a frame with
///       - a field wider than its type: every narrowed field (node
///         units and latencies, edge distances, IT-step and failure
///         counts, component op counts, ...) must fit in 32 bits, an
///         op or copied-value id in [-1, INT32_MAX];
///       - an out-of-range enum, edge endpoint, node domain (a cluster
///         or the bus) or rational;
///       - a schedule whose shape breaks what every LoopScheduler
///         result has, since the warm hit path indexes by it without
///         checking: every run carries its loop's components (recMII
///         >= 0, the largest equal to RecMII); a successful one also
///         has a graph of the loading machine's cluster count, one
///         DomainPlan per cluster and a bus plan, each with II >= 1
///         and a positive period; one placed node at
///         slot >= 0 per graph node; the loop's ops first, op I in
///         cluster ClusterOf[I] < numClusters, then only bus copies;
///         one register-pressure row per cluster; and component op
///         counts summing to the op count.
///     What no decoder can check is that an entry belongs to the loop
///     its key names (keys are digests); that rests on the key.
///   - *Partial load is always safe.* Imported entries are
///     first-writer-wins and bit-identical to recomputation (the
///     caches' key contract), so any subset of a snapshot warms the
///     run without changing any result. A frame whose key is already
///     present imports nothing and is not counted as loaded.
///   - *Saves are torn-write-safe.* writeCacheSnapshot writes to a
///     temp file and renames into place, so a killed save leaves the
///     previous snapshot (or nothing), never a half-written one.
///   - *Snapshots are deterministic.* Records are emitted in a
///     canonical order (kind, then key), so equal cache contents save
///     byte-identical files.
///
/// The read path makes one pass over the file and reads nothing a byte
/// at a time: recio::LineReader reads fixed-size blocks and hands out
/// each line as a view into its buffer; the frame's kind and body stay
/// views of that line; the CRC runs slicing-by-8 over the body; and
/// recio::Source decodes the body in place. Its tokens split on the
/// single spaces the writer emits, integers are strict decimal
/// (std::from_chars: no sign on unsigned fields, no overflow), and
/// doubles are parsed as hex-floats independently of the locale. So
/// the reader refuses tokens the writer never emits, and it is
/// narrower than the older fgetc/istringstream reader: any frame it
/// decodes, that reader decoded to the same values. The
/// writer builds frames in one bounded buffer and writes it a block at
/// a time. Memory stays flat in the snapshot's size both ways; only a
/// line longer than a block grows the reader's buffer.
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
/// silently serving stale values. v3: every schedule record ends with
/// its loop's components (LoopScheduleResult::Components: a count,
/// then per component NumFUKinds op counts and its recMII).
constexpr uint32_t CacheKeySchemaVersion = 3;

/// The (machine, menu) identity a snapshot is bound to: FNV over the
/// key-schema version, the timing-relevant machine structure (the same
/// fields EvalCache::compatibleWith compares) and the frequency menu.
/// Everything else the cached computations read is hashed into the
/// entry keys themselves (ScheduleMeasurer::loopScheduleKey, the
/// selection key), so binding + key is a complete identity.
uint64_t cacheBindingFingerprint(const MachineDescription &M,
                                 const FrequencyMenu &Menu);

/// What a load did: entries imported per kind (a frame whose key was
/// already present imports nothing and counts nowhere), corrupt frames
/// skipped.
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
