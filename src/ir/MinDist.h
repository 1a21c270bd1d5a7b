//===- ir/MinDist.h - Modulo-scheduling longest paths -----------*- C++ -*-===//
///
/// \file
/// The classic MinDist relation of modulo scheduling: for a candidate
/// II, MinDist(i, j) is the longest-path weight from i to j under edge
/// weights latency(e) - II * distance(e). If i and j are both scheduled,
/// start(j) - start(i) >= MinDist(i, j) must hold.
///
/// One kernel computes it: a single-source longest path per source node
/// over the SCC condensation of the DDG, walked in topological order.
/// An acyclic component takes one relaxation; a recurrence is relaxed
/// to its fixpoint, which at II >= recMII takes at most |C| rounds. A
/// component still changing after |C| rounds holds a positive cycle,
/// i.e. II is below recMII, and the kernel throws
/// std::invalid_argument. Two views are built on it:
///
///   - computeEdgeSlack: the coarsening slack of every DDG edge, the
///     only thing the partitioner reads. It stops each source's walk at
///     the last component it needs, so it never touches N^2 storage.
///   - MinDistMatrix: the dense N x N view, for tests and benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_IR_MINDIST_H
#define HCVLIW_IR_MINDIST_H

#include "ir/DDG.h"
#include "ir/RecurrenceAnalysis.h"

#include <cstdint>
#include <vector>

namespace hcvliw {

/// Reusable buffers of the longest-path kernel. The kernel works in
/// *position* space: a node's position is its index in SCC.Members, so
/// each component occupies a contiguous run and the runs follow a
/// topological order of the condensation; the weighted out-arcs are in
/// a matching CSR. Owners that recompute per loop keep one, so
/// steady-state runs never allocate.
struct LongestPathScratch {
  DDGComponents SCC;
  std::vector<unsigned> PosOf;     ///< position of each node
  std::vector<unsigned> CompOf;    ///< component of each position
  std::vector<unsigned> ArcStart;  ///< [N + 1] per position
  std::vector<unsigned> ArcDst;    ///< target position
  std::vector<int64_t> ArcWeight;  ///< latency - II * distance
  // Per-source walk state; Dist is NegInf and Reached zero between
  // sources.
  std::vector<int64_t> Dist;      ///< per position
  std::vector<uint64_t> Reached;  ///< bitset of components to visit
  std::vector<unsigned> Visited;  ///< components the walk visited
};

/// The coarsening slack of every DDG edge at \p II (callers pass
/// max(recMII, 1)): for edge e = (s -> d),
///
///   EdgeSlack[e] = -(MinDist(s, d) + (d reaches s ? MinDist(d, s) : 0))
///
/// which is MinDistMatrix::slack(s, d, 0); a self-edge counts the
/// heaviest cycle through s twice. Lower slack = more critical.
/// Throws std::invalid_argument when \p II is below recMII.
void computeEdgeSlack(std::vector<int64_t> &EdgeSlack, const DDG &G,
                      const std::vector<unsigned> &NodeLatency, int64_t II,
                      LongestPathScratch &Scratch);

class MinDistMatrix {
  unsigned N = 0;
  std::vector<int64_t> Data; // row-major, NegInf when unreachable

public:
  static constexpr int64_t NegInf = INT64_MIN / 4;

  /// Dense longest paths, one kernel run per source row. The diagonal
  /// holds the heaviest cycle through each node, or NegInf. Throws
  /// std::invalid_argument when \p II is below recMII.
  static MinDistMatrix compute(const DDG &G,
                               const std::vector<unsigned> &NodeLatency,
                               int64_t II);

  /// In-place form of compute: reuses \p M's O(N^2) buffer.
  static void computeInto(MinDistMatrix &M, const DDG &G,
                          const std::vector<unsigned> &NodeLatency,
                          int64_t II);

  unsigned size() const { return N; }
  int64_t at(unsigned I, unsigned J) const { return Data[I * N + J]; }
  bool reaches(unsigned I, unsigned J) const {
    return at(I, J) != NegInf;
  }

  /// Longest-path height of node I over all reachable J (>= 0).
  int64_t height(unsigned I) const;

  /// Slack between I and J given their schedule-time difference bound:
  /// II - MinDist(i,j) - MinDist(j,i) style freedom; NegInf-aware.
  int64_t slack(unsigned I, unsigned J, int64_t II) const;
};

} // namespace hcvliw

#endif // HCVLIW_IR_MINDIST_H
