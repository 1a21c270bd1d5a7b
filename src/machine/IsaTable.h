//===- machine/IsaTable.h - Table 1: latency and energy ---------*- C++ -*-===//
///
/// \file
/// The paper's Table 1: per instruction category (memory, arithmetic,
/// multiply, division/modulo/sqrt) and type (integer / floating point),
/// the latency in cycles and the average energy of one execution,
/// relative to an integer add.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_MACHINE_ISATABLE_H
#define HCVLIW_MACHINE_ISATABLE_H

#include "ir/Loop.h"
#include "ir/Opcode.h"

#include <vector>

namespace hcvliw {

struct LatencyEnergy {
  unsigned Latency = 1; ///< cycles, frequency-independent (Section 3.1.1)
  double Energy = 1.0;  ///< relative to one integer add
};

/// Latency/energy lookup per opcode; defaults to the paper's Table 1.
class IsaTable {
  // Indexed by [category][isFloat].
  LatencyEnergy Table[4][2];

public:
  /// Constructs the paper's Table 1:
  ///   Memory      INT 2/1.0   FP 2/1.0
  ///   Arithmetic  INT 1/1.0   FP 3/1.2
  ///   Multiply    INT 2/1.1   FP 6/1.5
  ///   Div/sqrt    INT 6/1.4   FP 18/2.0
  IsaTable();

  LatencyEnergy get(Opcode Op) const;
  unsigned latency(Opcode Op) const { return get(Op).Latency; }
  double energy(Opcode Op) const { return get(Op).Energy; }

  /// Overrides one Table 1 entry. Throws std::invalid_argument for
  /// OpCategory::Copy (its latency is fixed) and for a zero latency.
  void set(OpCategory Cat, bool IsFloat, LatencyEnergy LE);

  /// Latency of every operation of \p L, in program order; the vector
  /// the DDG analyses consume.
  std::vector<unsigned> nodeLatencies(const Loop &L) const;

  /// In-place form of nodeLatencies: reuses \p Lat's buffer (the
  /// per-loop scheduling chain calls this once per Figure 5 run).
  void nodeLatenciesInto(std::vector<unsigned> &Lat, const Loop &L) const;

  /// Mean relative energy of one executed instruction of \p L (used to
  /// weight the per-instruction unit energy of the Section 3.1 model).
  double meanInstructionEnergy(const Loop &L) const;
};

} // namespace hcvliw

#endif // HCVLIW_MACHINE_ISATABLE_H
