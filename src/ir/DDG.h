//===- ir/DDG.h - Data dependence graph -------------------------*- C++ -*-===//
///
/// \file
/// The data dependence graph of a loop body. Nodes are the loop's
/// operations; edges carry a dependence *distance* (iterations) and a
/// kind. Register flow edges come straight from operands; memory edges
/// are inferred from the affine addresses of loads/stores (exact when
/// two accesses share an index scale, conservative otherwise).
///
/// Latencies are *not* stored on edges: they depend on the machine's ISA
/// table, so analyses take a per-node latency vector (see edgeLatency).
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_IR_DDG_H
#define HCVLIW_IR_DDG_H

#include "ir/Loop.h"

#include <vector>

namespace hcvliw {

enum class DepKind : uint8_t {
  Flow,      ///< register true dependence (producer -> consumer)
  MemFlow,   ///< store -> load on the same address
  MemAnti,   ///< load -> store on the same address
  MemOutput, ///< store -> store on the same address
};

/// Flow kinds propagate a value (and may require an inter-cluster copy);
/// memory-ordering kinds only constrain time.
inline bool isValueCarrying(DepKind K) { return K == DepKind::Flow; }

/// A borrowed, contiguous run of edge indices (one node's adjacency row
/// in a CSR graph). Iterates like the std::vector<unsigned> it
/// replaced; valid as long as the owning graph.
class EdgeIxSpan {
  const unsigned *B = nullptr;
  const unsigned *E = nullptr;

public:
  EdgeIxSpan() = default;
  EdgeIxSpan(const unsigned *Begin, const unsigned *End) : B(Begin), E(End) {}
  const unsigned *begin() const { return B; }
  const unsigned *end() const { return E; }
  size_t size() const { return static_cast<size_t>(E - B); }
  bool empty() const { return B == E; }
};

class DDG {
public:
  struct Edge {
    unsigned Src;
    unsigned Dst;
    unsigned Distance;
    DepKind Kind;
  };

private:
  unsigned NumNodes = 0;
  std::vector<Edge> Edges;
  /// CSR adjacency (built once per buildInto, after all edges exist):
  /// node N's out-edge indices are OutIx[OutStart[N] .. OutStart[N+1]),
  /// in edge-insertion order. Flat arrays instead of two heap rows per
  /// node, so cycling loops of very different sizes through one reused
  /// DDG never reallocates rows in steady state (a resize-down of a
  /// vector<vector> destroys the tail rows' capacity; flat arrays only
  /// ever keep their high-water capacity).
  std::vector<unsigned> OutStart, OutIx, InStart, InIx;

  void addEdge(unsigned Src, unsigned Dst, unsigned Distance, DepKind Kind);
  void finalizeAdjacency();
  static void addAliasEdges(DDG &G, const Loop &L, unsigned IxA, unsigned IxB);

public:
  DDG() = default;

  /// Builds the DDG of \p L: register flow edges from operands plus
  /// memory-ordering edges between may-alias accesses. \p L must be
  /// valid (Loop::validate).
  static DDG build(const Loop &L);

  /// In-place form of build: reuses \p G's node and edge buffers, so
  /// drivers scheduling one loop after another (the measurement layer's
  /// per-loop chain) stop reallocating the graph per loop.
  static void buildInto(DDG &G, const Loop &L);

  unsigned size() const { return NumNodes; }
  unsigned numEdges() const { return static_cast<unsigned>(Edges.size()); }
  const std::vector<Edge> &edges() const { return Edges; }
  const Edge &edge(unsigned Ix) const { return Edges[Ix]; }
  EdgeIxSpan outEdges(unsigned Node) const {
    return {OutIx.data() + OutStart[Node], OutIx.data() + OutStart[Node + 1]};
  }
  EdgeIxSpan inEdges(unsigned Node) const {
    return {InIx.data() + InStart[Node], InIx.data() + InStart[Node + 1]};
  }
};

/// Latency in (producer-domain) cycles an edge imposes between the start
/// of Src and the start of Dst. Flow-like edges wait for the producer's
/// full latency; pure ordering edges (anti/output) require one cycle.
unsigned edgeLatency(const DDG::Edge &E,
                     const std::vector<unsigned> &NodeLatency);

} // namespace hcvliw

#endif // HCVLIW_IR_DDG_H
