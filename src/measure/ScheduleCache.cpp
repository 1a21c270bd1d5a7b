//===- measure/ScheduleCache.cpp - Memoized per-loop schedules --------------===//

#include "measure/ScheduleCache.h"

#include <algorithm>
#include <vector>

using namespace hcvliw;

std::optional<LoopScheduleResult> ScheduleCache::find(uint64_t Key,
                                                      bool *WasHit) const {
  const Shard &S = Shards[shardOf(Key)];
  std::optional<LoopScheduleResult> R;
  bool Persisted = false;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Entries.find(Key);
    if (It != S.Entries.end()) {
      R = It->second.R;
      Persisted = It->second.Persisted;
    }
  }
  (R ? S.Hits : S.Misses).fetch_add(1, std::memory_order_relaxed);
  if (Persisted)
    S.PersistHits.fetch_add(1, std::memory_order_relaxed);
  if (WasHit)
    *WasHit = R.has_value();
  return R;
}

void ScheduleCache::store(uint64_t Key, const LoopScheduleResult &R) {
  Shard &S = Shards[shardOf(Key)];
  // Every store was a fresh Figure 5 run: account its effort even when
  // a concurrent duplicate compute loses the emplace race below.
  S.Placements.fetch_add(R.Placements, std::memory_order_relaxed);
  S.Ejections.fetch_add(R.Ejections, std::memory_order_relaxed);
  S.BudgetUsed.fetch_add(R.BudgetUsed, std::memory_order_relaxed);
  S.ITSteps.fetch_add(R.ITSteps, std::memory_order_relaxed);
  S.PartLevels.fetch_add(R.PartStats.Levels, std::memory_order_relaxed);
  S.PartMatchedPairs.fetch_add(R.PartStats.MatchedPairs,
                               std::memory_order_relaxed);
  S.PartRefineMoves.fetch_add(R.PartStats.RefineMoves,
                              std::memory_order_relaxed);
  S.PartFMMoves.fetch_add(R.PartStats.FMMoves, std::memory_order_relaxed);
  S.PartScoreEvals.fetch_add(R.PartStats.ScoreEvals,
                             std::memory_order_relaxed);
  S.PartBoundRejects.fetch_add(R.PartStats.BoundRejects,
                               std::memory_order_relaxed);
  S.PartCapacityRejects.fetch_add(R.PartStats.CapacityRejects,
                                  std::memory_order_relaxed);
  S.PartCoarsenMemoHits.fetch_add(R.PartStats.CoarsenMemoHits,
                                  std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  // First-writer-wins: emplace keeps the old value.
  S.Entries.emplace(Key, Entry{R, /*Persisted=*/false});
}

bool ScheduleCache::importEntry(uint64_t Key, const LoopScheduleResult &R) {
  Shard &S = Shards[shardOf(Key)];
  std::lock_guard<std::mutex> Lock(S.Mutex);
  return S.Entries.emplace(Key, Entry{R, /*Persisted=*/true}).second;
}

void ScheduleCache::exportEntries(
    const std::function<void(uint64_t, const LoopScheduleResult &)> &Fn)
    const {
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    std::vector<uint64_t> Keys;
    Keys.reserve(S.Entries.size());
    for (const auto &KV : S.Entries)
      Keys.push_back(KV.first);
    std::sort(Keys.begin(), Keys.end());
    for (uint64_t K : Keys)
      Fn(K, S.Entries.find(K)->second.R);
  }
}

size_t ScheduleCache::size() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    N += S.Entries.size();
  }
  return N;
}
