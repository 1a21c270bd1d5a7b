//===- sched/PartitionedGraph.h - DDG + cluster assignment + copies -*-C++-*-===//
///
/// \file
/// The scheduling-level graph: the loop's DDG specialized by a cluster
/// assignment, with one explicit *copy node* per (produced value,
/// consuming cluster) pair whose flow edges cross clusters. Copy nodes
/// execute on the bus domain; every node therefore has a clock domain
/// (its cluster, or the bus) and the scheduler treats all nodes
/// uniformly. Memory-ordering edges never materialize copies (no value
/// moves; they only constrain time).
///
/// Edge timing rule (absolute nanoseconds, Section 2.2 + sync queues):
///
///   ready(u)  = start(u) + latency(u) * period(domain(u))
///   arrive(v) = crossDomainArrival(ready(u), period(u), period(v))
///   start(v) >= arrive(v) - distance * IT
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SCHED_PARTITIONEDGRAPH_H
#define HCVLIW_SCHED_PARTITIONEDGRAPH_H

#include "ir/DDG.h"
#include "machine/IsaTable.h"
#include "sched/Partition.h"

#include <vector>

namespace hcvliw {

/// One schedulable node: an original operation or a materialized copy.
struct PGNode {
  /// Cluster id, or numClusters() for the bus domain.
  unsigned Domain = 0;
  Opcode Op = Opcode::IntAdd;
  /// Execution latency in cycles of this node's own domain.
  unsigned LatencyCycles = 1;
  FUKind Kind = FUKind::IntFU;
  /// Original DDG node id; -1 for copies.
  int OrigOp = -1;
  /// For copies: the DDG node whose value is transported.
  int CopiedValue = -1;
};

struct PGEdge {
  unsigned Src = 0;
  unsigned Dst = 0;
  unsigned Distance = 0;
  /// Cycles (of Src's domain) between start(Src) and the time this
  /// dependence is satisfied: the producer latency for value/mem-flow
  /// edges, 1 for anti/output ordering edges.
  unsigned LatencyCycles = 1;
  /// Whether the edge carries a register value (defines lifetimes).
  bool CarriesValue = true;
};

class PartitionedGraph {
  unsigned NumClustersVal = 0;
  std::vector<PGNode> Nodes;
  std::vector<PGEdge> Edges;
  /// CSR adjacency (built once per buildInto, after all edges exist):
  /// node N's out-edge indices are OutIx[OutStart[N] .. OutStart[N+1]),
  /// in insertion order — identical iteration order to the per-node
  /// rows this replaces, but four flat arrays instead of two
  /// heap-allocated rows per node, so a graph that escapes into a
  /// LoopScheduleResult costs O(1) allocations to rebuild, not O(N).
  std::vector<unsigned> OutStart, OutIx, InStart, InIx;

  void finalizeAdjacency();

public:
  /// Builds the graph for \p L under assignment \p P. \p BusLatency is
  /// the transfer latency of one copy in bus cycles.
  static PartitionedGraph build(const Loop &L, const DDG &G,
                                const IsaTable &Isa, const Partition &P,
                                unsigned NumClusters, unsigned BusLatency);

  /// In-place form of build: reuses \p PG's node/edge/adjacency buffers
  /// and (when given) \p CopyScratch, a flat (value, cluster) -> copy
  /// index table sized G.size() * NumClusters, and \p NodeLatencies,
  /// the Isa.nodeLatencies(L) vector callers usually already hold. The
  /// partitioner scores hundreds of candidate assignments per loop and
  /// the Figure 5 driver rebuilds per attempt; this keeps all of that
  /// allocation-free in steady state. Identical output to build().
  static void buildInto(PartitionedGraph &PG, const Loop &L, const DDG &G,
                        const IsaTable &Isa, const Partition &P,
                        unsigned NumClusters, unsigned BusLatency,
                        std::vector<int> *CopyScratch = nullptr,
                        const std::vector<unsigned> *NodeLatencies = nullptr);

  /// Rebuilds a graph from raw node/edge lists — the persistent
  /// schedule-cache loader's path (runtime/CachePersist): the CSR
  /// adjacency is rederived from \p Edges exactly as buildInto derives
  /// it, so a deserialized graph is indistinguishable from the one
  /// that was serialized. Every edge endpoint must be < Nodes.size().
  static PartitionedGraph fromRaw(unsigned NumClusters,
                                  std::vector<PGNode> Nodes,
                                  std::vector<PGEdge> Edges);

  unsigned numClusters() const { return NumClustersVal; }
  unsigned busDomain() const { return NumClustersVal; }
  unsigned size() const { return static_cast<unsigned>(Nodes.size()); }
  unsigned numCopies() const;

  const PGNode &node(unsigned N) const { return Nodes[N]; }
  const std::vector<PGEdge> &edges() const { return Edges; }
  const PGEdge &edge(unsigned E) const { return Edges[E]; }
  EdgeIxSpan outEdges(unsigned N) const {
    return {OutIx.data() + OutStart[N], OutIx.data() + OutStart[N + 1]};
  }
  EdgeIxSpan inEdges(unsigned N) const {
    return {InIx.data() + InStart[N], InIx.data() + InStart[N + 1]};
  }
};

} // namespace hcvliw

#endif // HCVLIW_SCHED_PARTITIONEDGRAPH_H
