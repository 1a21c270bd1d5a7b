//===- workloads/SpecFPSuite.h - Synthetic SPECfp2000 programs ---*- C++ -*-===//
///
/// \file
/// The synthetic stand-in for the paper's >4000 SPECfp2000 Fortran loops
/// (the paper publishes their statistics, not their bodies). Each of the
/// ten benchmark programs is a weighted set of generated loops whose
/// resource- vs recurrence-constraint mix reproduces the paper's
/// Table 2: e.g.
/// 171.swim is 100% resource-constrained streams, 200.sixtrack spends
/// 99.9% of its time in a long, thin recurrence, 191.fma3d's recurrences
/// contain many instructions. Loop weights are the target
/// execution-time shares; the profiler realizes them as invocation
/// counts, and the Table 2 bench then *measures* the shares through the
/// full scheduling stack.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_WORKLOADS_SPECFPSUITE_H
#define HCVLIW_WORKLOADS_SPECFPSUITE_H

#include "ir/Loop.h"

#include <string>
#include <vector>

namespace hcvliw {

struct BenchmarkProgram {
  std::string Name;
  std::vector<Loop> Loops;
};

/// The ten SPECfp2000 program names of the paper's evaluation, in the
/// paper's order.
const std::vector<std::string> &specFPProgramNames();

/// Builds one program by name (asserts the name exists).
BenchmarkProgram buildSpecFPProgram(const std::string &Name);

/// Builds the whole suite.
std::vector<BenchmarkProgram> buildSpecFPSuite();

} // namespace hcvliw

#endif // HCVLIW_WORKLOADS_SPECFPSUITE_H
