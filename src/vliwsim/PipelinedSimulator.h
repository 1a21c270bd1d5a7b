//===- vliwsim/PipelinedSimulator.h - MCD pipelined execution ----*- C++ -*-===//
///
/// \file
/// Cycle-level execution of a modulo schedule on the heterogeneous
/// multi-clock-domain machine. Instance (node n, iteration i) issues at
/// slot(n) * period(domain(n)) + i * IT; instances execute in global
/// time order; memory effects apply at issue. The simulator
///
///   - re-validates every dependence at runtime under the exact
///     cross-domain timing rule (sync queues included),
///   - computes functional values and final memory, to be compared
///     bit-for-bit against the sequential FunctionalSimulator,
///   - measures execution time and the activity counts (per-cluster
///     energy-weighted instructions, communications, memory accesses)
///     the Section 3.1 energy model consumes.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_VLIWSIM_PIPELINEDSIMULATOR_H
#define HCVLIW_VLIWSIM_PIPELINEDSIMULATOR_H

#include "power/EnergyModel.h"
#include "sched/Schedule.h"
#include "vliwsim/FunctionalSimulator.h"

#include <string>

namespace hcvliw {

struct PipelinedResult {
  bool Ok = false;
  std::string Error;

  uint64_t Iterations = 0;
  Rational TexecNs;

  MemoryImage Memory;
  std::vector<double> LastValues; ///< per original op, final iteration

  /// Whole-run activity (energy-weighted instructions include every
  /// cluster op; copies count as communications only).
  ActivityCounts Activity;
  std::vector<double> WInsPerCluster;
};

/// Executes \p Iterations iterations of \p L under schedule \p S.
PipelinedResult runPipelined(const Loop &L, const PartitionedGraph &PG,
                             const Schedule &S, const MachineDescription &M,
                             uint64_t Iterations);

/// Convenience: runs both simulators and reports the first divergence
/// (empty string when the pipelined execution is exact). Final memory
/// and final values are compared bitwise (sameBits), so identical NaNs
/// agree.
std::string checkFunctionalEquivalence(const Loop &L,
                                       const PartitionedGraph &PG,
                                       const Schedule &S,
                                       const MachineDescription &M,
                                       uint64_t Iterations);

} // namespace hcvliw

#endif // HCVLIW_VLIWSIM_PIPELINEDSIMULATOR_H
