//===- vliwsim/MemoryImage.h - Simulated array memory ------------*- C++ -*-===//
///
/// \file
/// The array memory both simulators execute against. Arrays are sized
/// from the loop's trip count and access patterns and filled with a
/// deterministic hash of (array, element), so any two executions of the
/// same loop observe identical initial state and can be compared for
/// exact equality.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_VLIWSIM_MEMORYIMAGE_H
#define HCVLIW_VLIWSIM_MEMORYIMAGE_H

#include "ir/Loop.h"

#include <cstdint>
#include <vector>

namespace hcvliw {

class MemoryImage {
public:
  std::vector<std::vector<double>> Arrays;

  /// Deterministic initial image for \p Iterations executions of \p L.
  static MemoryImage initial(const Loop &L, uint64_t Iterations);

  /// Wrap-around element index for a raw affine address (addresses may
  /// be negative through negative offsets).
  static size_t elementIndex(int64_t Address, size_t Size);

  double load(unsigned Array, int64_t Address) const;
  void store(unsigned Array, int64_t Address, double Value);

  /// Bitwise equality of every element: a NaN equals the same NaN and
  /// +0.0 differs from -0.0, so two executions that store the same bits
  /// compare equal and no others do.
  bool operator==(const MemoryImage &O) const;

  /// Order-insensitive FNV-style digest, for quick test assertions.
  uint64_t digest() const;
};

/// Bitwise equality of two doubles (the simulators' comparison: a
/// floating-point == would call every NaN result a divergence).
bool sameBits(double A, double B);

/// Evaluates one opcode on up to two operands (shared by both
/// simulators so results are bitwise identical).
double evalOpcode(Opcode Op, double A, double B);

/// Initial value of op \p O for (negative) iteration \p Iter:
/// InitValue + InitStep * Iter.
inline double initialValue(const Operation &O, int64_t Iter) {
  return O.InitValue + O.InitStep * static_cast<double>(Iter);
}

} // namespace hcvliw

#endif // HCVLIW_VLIWSIM_MEMORYIMAGE_H
