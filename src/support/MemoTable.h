//===- support/MemoTable.h - Lock-striped memo of shared values --*- C++ -*-===//
///
/// \file
/// The shape every session memo shares (ScheduleCache, EvalCache's
/// timing and selection tables): a map from key to a shared, immutable
/// value, split by key hash over a fixed set of stripes, each one map
/// behind one mutex that also guards the stripe's hit/miss counters.
///
/// The stripes exist for EvalCache's timing table: during exploration
/// every worker looks up every loop of every candidate, and one lock
/// serializes those lookups. A lookup or an insert holds its stripe's
/// lock only to touch the map and copy a pointer; values are built
/// before store() and read after find(), outside the lock. Concurrent
/// duplicate computes are allowed and insertion is first-writer-wins
/// (every writer of a key holds an identical value). Entries imported
/// from a persistent snapshot (runtime/CachePersist) are flagged, so
/// the hits they serve count toward persistHits() — the warm tier's
/// contribution.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SUPPORT_MEMOTABLE_H
#define HCVLIW_SUPPORT_MEMOTABLE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hcvliw {

template <typename K, typename V, typename Hash = std::hash<K>>
class MemoTable {
public:
  using Ptr = std::shared_ptr<const V>;

private:
  struct Entry {
    Ptr Value;
    bool Persisted = false;
  };

  struct Stripe {
    mutable std::mutex Mutex; ///< guards everything below
    std::unordered_map<K, Entry, Hash> Entries;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t PersistHits = 0;
  };

  mutable std::array<Stripe, 16> Stripes;

  Stripe &stripeOf(const K &Key) const {
    // Fold the high bits in: std::hash of an integer key is the
    // identity, whose low bits alone need not spread.
    uint64_t H = Hash{}(Key);
    H ^= H >> 32;
    H ^= H >> 16;
    return Stripes[H % Stripes.size()];
  }

  template <typename Field> uint64_t sum(Field F) const {
    uint64_t Total = 0;
    for (const Stripe &S : Stripes) {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      Total += F(S);
    }
    return Total;
  }

public:
  MemoTable() = default;
  MemoTable(const MemoTable &) = delete;
  MemoTable &operator=(const MemoTable &) = delete;

  /// The entry under \p Key, or null. Counts a hit or a miss.
  Ptr find(const K &Key) const {
    Stripe &S = stripeOf(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Entries.find(Key);
    if (It == S.Entries.end()) {
      ++S.Misses;
      return nullptr;
    }
    ++S.Hits;
    if (It->second.Persisted)
      ++S.PersistHits;
    return It->second.Value;
  }

  /// Stores \p Value under \p Key (first-writer-wins).
  void store(const K &Key, Ptr Value) {
    Stripe &S = stripeOf(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    S.Entries.emplace(Key, Entry{std::move(Value), /*Persisted=*/false});
  }

  /// Inserts an entry loaded from a persistent snapshot
  /// (first-writer-wins, flagged persisted). Returns false when the key
  /// was already present.
  bool importEntry(const K &Key, V Value) {
    auto Shared = std::make_shared<const V>(std::move(Value));
    Stripe &S = stripeOf(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    return S.Entries
        .emplace(Key, Entry{std::move(Shared), /*Persisted=*/true})
        .second;
  }

  /// Invokes \p Fn(key, value) for every entry, keys ascending. The
  /// (key, pointer) pairs are gathered under the stripe locks and
  /// visited after they are released; callers that want a stable set
  /// stay quiescent with respect to store().
  template <typename Fn> void exportEntries(Fn &&F) const {
    std::vector<std::pair<K, Ptr>> Sorted;
    for (const Stripe &S : Stripes) {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      for (const auto &KV : S.Entries)
        Sorted.emplace_back(KV.first, KV.second.Value);
    }
    std::sort(Sorted.begin(), Sorted.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    for (const auto &KV : Sorted)
      F(KV.first, *KV.second);
  }

  /// Hits served by entries importEntry() installed (subset of hits()).
  uint64_t persistHits() const {
    return sum([](const Stripe &S) { return S.PersistHits; });
  }
  uint64_t hits() const {
    return sum([](const Stripe &S) { return S.Hits; });
  }
  uint64_t misses() const {
    return sum([](const Stripe &S) { return S.Misses; });
  }
  size_t size() const {
    return sum([](const Stripe &S) { return S.Entries.size(); });
  }
};

} // namespace hcvliw

#endif // HCVLIW_SUPPORT_MEMOTABLE_H
