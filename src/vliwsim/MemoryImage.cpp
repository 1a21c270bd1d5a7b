//===- vliwsim/MemoryImage.cpp - Simulated array memory ---------------------===//

#include "vliwsim/MemoryImage.h"

#include <cassert>
#include <cmath>

using namespace hcvliw;

MemoryImage MemoryImage::initial(const Loop &L, uint64_t Iterations) {
  MemoryImage M;
  M.Arrays.resize(L.Arrays.size());

  // Size each array to cover the densest access over all iterations
  // plus a *fixed* margin: the size must depend only on the iteration
  // span (scale * trip), not on offsets, so that unrolling -- which
  // rewrites offsets but covers the same addresses -- produces an
  // identical image and wrap-around indices stay comparable.
  constexpr int64_t Margin = 64;
  for (unsigned A = 0; A < L.Arrays.size(); ++A) {
    int64_t MaxScale = 1;
    for (const Operation &O : L.Ops)
      if (O.Array == static_cast<int>(A))
        MaxScale = std::max(MaxScale, O.IndexScale);
    size_t Size = static_cast<size_t>(
        MaxScale * static_cast<int64_t>(Iterations) + Margin);
    auto &Data = M.Arrays[A];
    Data.resize(Size);
    for (size_t K = 0; K < Size; ++K) {
      uint64_t H = K * 2654435761ull + static_cast<uint64_t>(A) * 40503ull;
      H ^= H >> 16;
      // Values in [0.5, 1.5): avoids zero divisors and keeps products
      // numerically tame over thousands of iterations.
      Data[K] = 0.5 + static_cast<double>(H % 1024) / 1024.0;
    }
  }
  return M;
}

size_t MemoryImage::elementIndex(int64_t Address, size_t Size) {
  assert(Size > 0 && "indexing an empty array");
  int64_t S = static_cast<int64_t>(Size);
  int64_t R = Address % S;
  if (R < 0)
    R += S;
  return static_cast<size_t>(R);
}

double MemoryImage::load(unsigned Array, int64_t Address) const {
  const auto &Data = Arrays[Array];
  return Data[elementIndex(Address, Data.size())];
}

void MemoryImage::store(unsigned Array, int64_t Address, double Value) {
  auto &Data = Arrays[Array];
  Data[elementIndex(Address, Data.size())] = Value;
}

bool hcvliw::sameBits(double A, double B) {
  uint64_t BitsA, BitsB;
  static_assert(sizeof(BitsA) == sizeof(A));
  __builtin_memcpy(&BitsA, &A, sizeof(BitsA));
  __builtin_memcpy(&BitsB, &B, sizeof(BitsB));
  return BitsA == BitsB;
}

bool MemoryImage::operator==(const MemoryImage &O) const {
  if (Arrays.size() != O.Arrays.size())
    return false;
  for (size_t A = 0; A < Arrays.size(); ++A) {
    if (Arrays[A].size() != O.Arrays[A].size())
      return false;
    for (size_t K = 0; K < Arrays[A].size(); ++K)
      if (!sameBits(Arrays[A][K], O.Arrays[A][K]))
        return false;
  }
  return true;
}

uint64_t MemoryImage::digest() const {
  uint64_t H = 1469598103934665603ull;
  for (const auto &Arr : Arrays)
    for (double V : Arr) {
      uint64_t Bits;
      static_assert(sizeof(Bits) == sizeof(V));
      __builtin_memcpy(&Bits, &V, sizeof(Bits));
      H = (H ^ Bits) * 1099511628211ull;
    }
  return H;
}

double hcvliw::evalOpcode(Opcode Op, double A, double B) {
  switch (Op) {
  case Opcode::IntAdd:
  case Opcode::FAdd:
    return A + B;
  case Opcode::IntSub:
  case Opcode::FSub:
    return A - B;
  case Opcode::IntMul:
  case Opcode::FMul:
    return A * B;
  case Opcode::IntDiv:
  case Opcode::FDiv:
    return std::fabs(B) < 1e-12 ? 0.0 : A / B;
  case Opcode::FSqrt:
    return std::sqrt(std::fabs(A));
  case Opcode::Copy:
    return A;
  case Opcode::Load:
  case Opcode::Store:
    break; // handled by the memory system
  }
  assert(false && "evalOpcode on a memory operation");
  return 0;
}
