//===- workloads/SyntheticLoops.h - Parametric loop generators ---*- C++ -*-===//
///
/// \file
/// Parametric generators for the loop shapes that dominate SPECfp2000's
/// software-pipelined regions (the substrate replacing ORC + SPECfp,
/// whose compiled loop bodies the paper does not publish):
///
///  - *stream* loops: independent load/compute/store lanes; purely
///    resource-constrained (swim/mgrid style).
///  - *stencil* loops: multi-tap reads, reduction tree, store; resource
///    constrained with heavy memory pressure.
///  - *chain recurrence* loops: one long-latency arithmetic cycle plus
///    independent side lanes; recurrence-constrained with few critical
///    instructions (sixtrack/facerec style).
///  - *wide recurrence* loops: recurrences containing many instructions
///    (fma3d/apsi style: speedups possible, smaller energy savings).
///  - *borderline* loops: recMII slightly above resMII (wupwise style).
///  - *random* loops: seed-reproducible property-test inputs.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_WORKLOADS_SYNTHETICLOOPS_H
#define HCVLIW_WORKLOADS_SYNTHETICLOOPS_H

#include "ir/Loop.h"
#include "support/RNG.h"

#include <string>

namespace hcvliw {

/// Independent lanes of load+load+fmul+fadd+store. resMII grows with
/// \p Lanes (memory-port bound); recMII stays 1.
Loop makeStreamLoop(const std::string &Name, unsigned Lanes, uint64_t Trip,
                    double Weight);

/// \p Taps loads of A around i, an fadd reduction tree scaled by a
/// live-in, one store to B.
Loop makeStencilLoop(const std::string &Name, unsigned Taps, uint64_t Trip,
                     double Weight);

/// A single recurrence cycle of \p ChainMuls fmul and \p ChainAdds fadd
/// at carry distance \p Dist, with \p SideLanes independent
/// load/fmul/fadd/store lanes feeding nothing back into the cycle.
/// recMII = ceil((6*ChainMuls + 3*ChainAdds) / Dist).
Loop makeChainRecurrenceLoop(const std::string &Name, unsigned ChainMuls,
                             unsigned ChainAdds, unsigned Dist,
                             unsigned SideLanes, uint64_t Trip,
                             double Weight);

/// A recurrence of \p RecAdds fadd ops at distance \p Dist (many
/// instructions inside the cycle) plus \p SideLanes side lanes.
Loop makeWideRecurrenceLoop(const std::string &Name, unsigned RecAdds,
                            unsigned Dist, unsigned SideLanes,
                            uint64_t Trip, double Weight);

/// \p Lanes stream lanes plus a recurrence of \p RecAdds fadds tuned so
/// recMII lands in [resMII, 1.3 * resMII).
Loop makeBorderlineLoop(const std::string &Name, unsigned Lanes,
                        unsigned RecAdds, uint64_t Trip, double Weight);

struct RandomLoopParams {
  unsigned MinOps = 8;
  unsigned MaxOps = 40;
  double MemFraction = 0.3;
  double RecurrenceProb = 0.5;
  unsigned MaxRecDepth = 4;
  unsigned MaxDist = 3;
  /// When nonzero, operands are drawn from the last OperandWindow
  /// defined values instead of uniformly over every earlier value.
  /// Unrolled/fused kernel bodies — the shape of real big loops — keep
  /// consumers near their producers; an unwindowed draw over hundreds
  /// of earlier ops manufactures values whose earliest and latest
  /// consumers are separated by most of the loop body, i.e. register
  /// lifetimes no schedule can make short. 0 = unlimited (historical
  /// behavior, same RNG draw sequence).
  unsigned OperandWindow = 0;
  uint64_t Trip = 32;
};

/// Seed-reproducible random loop; always valid (Loop::validate passes).
Loop makeRandomLoop(RNG &Rng, const RandomLoopParams &P,
                    const std::string &Name);

/// The shared big-loop fixture of the size-series bench and the
/// partition tests: an unrolled/fused-kernel-shaped body of exactly
/// \p Ops operations — windowed operand locality (consumers stay near
/// their producers, as in a real unrolled body), sparse distance-1
/// recurrences, memory-light op mix. \p Try varies the seed so a size
/// can be sampled more than once; the result is a pure function of
/// (Ops, Try).
Loop makeUnrolledKernelLoop(const std::string &Name, unsigned Ops,
                            unsigned Try = 0);

/// Per-cluster register count for a machine running \p Ops-operation
/// unrolled bodies: max(16, Ops / 4). The paper machine's 16 registers
/// per cluster legitimately hold only its ~100-op SPECfp loop
/// population — an unroller that multiplies the body also multiplies
/// the live values per iteration, and real large-body targets scale
/// the (rotating) register file with the unroll factor. Growing
/// nothing else keeps FU pressure and the II physics unchanged.
unsigned bigLoopRegisters(unsigned Ops);

} // namespace hcvliw

#endif // HCVLIW_WORKLOADS_SYNTHETICLOOPS_H
