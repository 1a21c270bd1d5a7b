//===- ir/RecurrenceAnalysis.h - Recurrences and recMII ---------*- C++ -*-===//
///
/// \file
/// Recurrence (dependence-cycle) analysis of a DDG. Recurrences are the
/// strongly connected components of the graph; each contributes a
/// recurrence-constrained lower bound on the initiation interval:
///
///   recMII(R) = min integer II such that no cycle in R has
///               sum(latency) - II * sum(distance) > 0.
///
/// The paper's heterogeneous extension (Section 2.2) multiplies recMII by
/// the fastest cluster's cycle time to obtain recMIT; the partitioner
/// (Section 4.1.1) pre-places the most critical recurrences in the
/// slowest cluster whose II still accommodates them.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_IR_RECURRENCEANALYSIS_H
#define HCVLIW_IR_RECURRENCEANALYSIS_H

#include "ir/DDG.h"

#include <vector>

namespace hcvliw {

/// One recurrence: an SCC of the DDG with at least one cycle.
struct Recurrence {
  std::vector<unsigned> Nodes;
  /// Minimum II (cycles) imposed by this recurrence alone.
  int64_t RecMII = 0;
};

struct RecurrenceInfo {
  std::vector<Recurrence> Recurrences;
  /// max over recurrences (0 when the loop has no cycles).
  int64_t RecMII = 0;
  /// Recurrence id per node, or -1 for nodes outside every recurrence.
  std::vector<int> RecurrenceOf;
};

/// Analyzes \p G with per-node latencies \p NodeLatency (cycles).
RecurrenceInfo analyzeRecurrences(const DDG &G,
                                  const std::vector<unsigned> &NodeLatency);

/// The strongly connected components of a DDG, numbered in a
/// topological order of the condensation (every edge runs from a
/// component to itself or to a later one). Reusable: recomputing keeps
/// every buffer's capacity.
struct DDGComponents {
  std::vector<unsigned> CompOf;  ///< component of each node
  std::vector<unsigned> Start;   ///< [count() + 1] offsets into Members
  std::vector<unsigned> Members; ///< nodes by component, ascending id
  /// Per component: holds a cycle (two or more nodes, or a self-edge).
  std::vector<char> Cyclic;
  unsigned count() const { return static_cast<unsigned>(Start.size()) - 1; }

  // Tarjan's working buffers.
  std::vector<unsigned> Index, Low, Stack;
  struct Frame {
    unsigned Node;
    unsigned Next; ///< next out-edge of Node to explore
  };
  std::vector<Frame> DFS;
};

/// Fills \p C with the SCCs of \p G, straight on its CSR (iterative
/// Tarjan).
void computeComponents(const DDG &G, DDGComponents &C);

/// Minimum integer II such that the *whole graph* (restricted to the
/// given nodes, or all nodes when empty) has no positive cycle under
/// weights latency(e) - II * distance(e). Returns 0 for acyclic graphs.
int64_t computeRecMII(const DDG &G, const std::vector<unsigned> &NodeLatency);

} // namespace hcvliw

#endif // HCVLIW_IR_RECURRENCEANALYSIS_H
