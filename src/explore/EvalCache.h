//===- explore/EvalCache.h - Memoized loop-timing evaluation -----*- C++ -*-===//
///
/// \file
/// Memoizes the Section 3.2 timing estimate per (loop structure,
/// frequency shape). For continuous and relative frequency menus the
/// estimator is exactly scale-invariant in Rational arithmetic:
/// multiplying every domain period by a factor s multiplies the IT by s
/// and leaves every per-domain II (and hence feasibility, packing, and
/// the cluster capacity shares) unchanged, because all menu decisions
/// depend only on the products IT * fmax. The cache therefore keys
/// those menus on the slow/fast *ratio* alone, evaluates once at a
/// normalized fast period of 1 ns, and rescales exactly — candidates
/// sharing a ratio never re-run the estimator. Absolute menus pin
/// actual frequencies, so the key falls back to the exact (fast, slow)
/// period pair.
///
/// Loops are identified by LoopProfile::timingFingerprint(), not by
/// their index in some profile, so one cache instance is shareable
/// across programs and across explore() calls: structurally identical
/// loops in different programs (common in the synthetic SPECfp suite)
/// hit the same entries. A Session owns one such cache per
/// (machine, menu) pair and threads it through every selection.
///
/// The cache also carries a selection memo: whole SelectedDesigns
/// keyed by a caller-computed hash of the full selection inputs, so a
/// Session can skip re-running a selection it has already performed
/// (repeated runProgram calls, oracle re-ranking, series sweeps).
///
/// Rescaling is bit-identical to direct evaluation: the cache stores
/// the estimator's scale-free LoopTimingCore, and a hit goes through
/// the same loopTimingAt that estimateLoopTiming ends in (the IT is an
/// exact Rational product).
///
/// Each table (timings, selections) is a MemoTable
/// (support/MemoTable.h) of shared, immutable values. The estimate is
/// computed, and a hit's value read, outside the table's locks.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_EXPLORE_EVALCACHE_H
#define HCVLIW_EXPLORE_EVALCACHE_H

#include "configsel/DesignSpace.h"
#include "configsel/TimingEstimator.h"
#include "support/MemoTable.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <tuple>

namespace hcvliw {

class EvalCache {
  struct Key {
    uint64_t LoopFP = 0;                ///< LoopProfile::timingFingerprint()
    uint32_t NumFast = 0;
    int64_t RatioNum = 1, RatioDen = 1; ///< slow/fast period ratio
    int64_t FastNum = 1, FastDen = 1;   ///< 1/1 under scale invariance

    bool operator==(const Key &O) const {
      return LoopFP == O.LoopFP && NumFast == O.NumFast &&
             RatioNum == O.RatioNum && RatioDen == O.RatioDen &&
             FastNum == O.FastNum && FastDen == O.FastDen;
    }
    /// Export order (snapshots list entries keys ascending).
    bool operator<(const Key &O) const {
      return std::tie(LoopFP, NumFast, RatioNum, RatioDen, FastNum,
                      FastDen) < std::tie(O.LoopFP, O.NumFast, O.RatioNum,
                                          O.RatioDen, O.FastNum, O.FastDen);
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      uint64_t H = 0xcbf29ce484222325ull;
      auto mix = [&H](uint64_t V) {
        H ^= V;
        H *= 0x100000001b3ull;
      };
      mix(K.LoopFP);
      mix(K.NumFast);
      mix(static_cast<uint64_t>(K.RatioNum));
      mix(static_cast<uint64_t>(K.RatioDen));
      mix(static_cast<uint64_t>(K.FastNum));
      mix(static_cast<uint64_t>(K.FastDen));
      return static_cast<size_t>(H);
    }
  };

  const MachineDescription &Machine;
  FrequencyMenu Menu;
  bool ScaleInvariant;

  /// Each value's ITNs is the IT at the key's normalized fast period.
  MemoTable<Key, LoopTimingCore, KeyHash> Timings;
  MemoTable<uint64_t, SelectedDesign> Selections;

  LoopTimingCore compute(const Key &K, const LoopProfile &LP,
                         const Rational &FastPeriod,
                         const Rational &SlowPeriod) const;

public:
  /// A cache is bound to one machine and one frequency menu; every user
  /// must evaluate against an equivalent pair (checked by
  /// compatibleWith / asserted by the engine).
  EvalCache(const MachineDescription &M, const FrequencyMenu &Menu);

  /// Timing of \p LP with the first \p NumFast clusters at
  /// \p FastPeriod, the rest at \p SlowPeriod, ICN and cache at
  /// \p FastPeriod (the paper's candidate shape). Memoized; safe to
  /// call from multiple threads (duplicate concurrent computes are
  /// allowed and produce identical values, so insertion is
  /// first-writer-wins). \p WasHit (when non-null) reports whether
  /// this call was served from the cache, so concurrent users can
  /// keep exact private statistics.
  LoopTimingEstimate loopTiming(const LoopProfile &LP,
                                const Rational &FastPeriod,
                                const Rational &SlowPeriod,
                                unsigned NumFast, bool *WasHit = nullptr);

  const MachineDescription &machine() const { return Machine; }
  const FrequencyMenu &menu() const { return Menu; }

  /// Whether this cache may serve evaluations against (\p M, \p Mn):
  /// the timing-relevant machine structure and the menu must be equal
  /// (same values, not same objects).
  bool compatibleWith(const MachineDescription &M,
                      const FrequencyMenu &Mn) const;

  /// Selection memo: a whole SelectedDesign keyed by the caller's hash
  /// of the complete selection inputs (profile fingerprint, design
  /// space, technology, het/hom kind). Thread-safe,
  /// first-writer-wins.
  std::optional<SelectedDesign> findSelection(uint64_t SelKey);
  void storeSelection(uint64_t SelKey, const SelectedDesign &D);

  /// One timing entry in persistable form — the private Key fields plus
  /// the scale-free cached value (runtime/CachePersist round-trips
  /// these bit-exactly).
  struct TimingRecord {
    uint64_t LoopFP = 0;
    uint32_t NumFast = 0;
    int64_t RatioNum = 1, RatioDen = 1;
    int64_t FastNum = 1, FastDen = 1;
    bool Feasible = false;
    Rational ITNorm;
    std::vector<double> ClusterShare;
  };

  /// Invokes \p Fn for every timing entry, keys sorted. Callers that
  /// want a stable set stay quiescent with respect to loopTiming().
  void exportTimings(const std::function<void(const TimingRecord &)> &Fn)
      const;
  /// Inserts a timing entry loaded from a persistent snapshot
  /// (first-writer-wins, flagged persisted). False when already present.
  bool importTiming(const TimingRecord &R);

  /// Selection-memo analogues of exportTimings / importTiming.
  void exportSelections(
      const std::function<void(uint64_t, const SelectedDesign &)> &Fn) const;
  bool importSelection(uint64_t SelKey, const SelectedDesign &D);

  /// Hits served by imported (persisted) timing + selection entries —
  /// the warm tier's contribution (subset of hits() + selectionHits()).
  uint64_t persistHits() const {
    return Timings.persistHits() + Selections.persistHits();
  }

  uint64_t hits() const { return Timings.hits(); }
  uint64_t misses() const { return Timings.misses(); }
  uint64_t selectionHits() const { return Selections.hits(); }
  uint64_t selectionMisses() const { return Selections.misses(); }
  size_t size() const { return Timings.size(); }
};

} // namespace hcvliw

#endif // HCVLIW_EXPLORE_EVALCACHE_H
