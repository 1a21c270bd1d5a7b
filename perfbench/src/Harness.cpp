//===- perfbench/src/Harness.cpp - Shared benchmark helpers ---------------===//

#include "Harness.h"

#include "obs/AllocHook.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {
std::atomic<uint64_t> AllocCounter{0};
} // namespace perfbench

// Counts every operator new of the process; spans in exported traces
// then carry their allocation deltas too.
HCVLIW_INSTRUMENT_ALLOCS(perfbench::AllocCounter)

namespace perfbench {

void CheckTally::record(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "check failed: %s\n", What.c_str());
  }
}

void Digest::bytes(const void *P, size_t N) {
  const unsigned char *B = static_cast<const unsigned char *>(P);
  for (size_t I = 0; I < N; ++I) {
    H ^= B[I];
    H *= 1099511628211ull;
  }
}

void Digest::f64(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof Bits);
  u64(Bits);
}

uint64_t allocationsSoFar() {
  return AllocCounter.load(std::memory_order_relaxed);
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  size_t Ix = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Ix, V.size() - 1)];
}

} // namespace perfbench
