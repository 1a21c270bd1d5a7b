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
/// This file owns the SCCs themselves (computeComponents, straight on
/// the DDG's CSR) and the weakly-connected components. Each
/// recurrence's recMII is a binary search over II on the longest-path
/// kernel of ir/MinDist, the same relaxation that computes the
/// coarsening slack.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_IR_RECURRENCEANALYSIS_H
#define HCVLIW_IR_RECURRENCEANALYSIS_H

#include "ir/DDG.h"

#include <array>
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

/// Analyzes \p G with per-node latencies \p NodeLatency (cycles, one
/// per node, each >= 1). The recMII comes from the longest-path kernel
/// (ir/MinDist), whose overload also takes caller-owned buffers; this
/// form allocates its own. Throws std::invalid_argument when
/// \p NodeLatency does not have one entry per node.
RecurrenceInfo analyzeRecurrences(const DDG &G,
                                  const std::vector<unsigned> &NodeLatency);

/// One weakly-connected component of a loop's DDG: the indivisible unit
/// the Section 3.2 timing estimator packs into clusters (splitting a
/// component costs communications, so the estimator treats components
/// as atomic).
struct LoopComponent {
  std::array<unsigned, NumFUKinds> FUCounts{}; ///< per FUKind
  int64_t RecMII = 0; ///< max recurrence inside (0 if none)
};

/// The weakly-connected components of \p G, the DDG of \p L, ordered
/// by their lowest node id: each with its per-FUKind op counts and the
/// largest recMII of a recurrence of \p Recs inside it. A pure function
/// of (loop, node latencies), like \p Recs itself. Throws
/// std::invalid_argument when \p G has not one node per op of \p L.
std::vector<LoopComponent> computeLoopComponents(const Loop &L, const DDG &G,
                                                 const RecurrenceInfo &Recs);

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

} // namespace hcvliw

#endif // HCVLIW_IR_RECURRENCEANALYSIS_H
