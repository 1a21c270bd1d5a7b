//===- sched/TickGraph.h - Tick-domain view of a partitioned graph -*-C++-*-===//
///
/// \file
/// The scheduling hot path's integer view of one (PartitionedGraph,
/// MachinePlan) pair: the plan lowered onto its PlanGrid plus per-node
/// and per-edge tick constants precomputed once --
///
///   PeriodTicks[n]  running period of n's domain, in ticks
///   IIs[n]          II of n's domain (slots per IT)
///   EdgeLatTicks[e] LatencyCycles(e) * period(src(e)), in ticks
///   EdgeDistTicks[e] Distance(e) * IT, in ticks
///
/// so the ASAP/ALAP fixpoints, edgeStartBound, the placement/ejection
/// loop, stage compaction, the validator and the register-pressure
/// computation are pure integer arithmetic -- with the pseudo-schedule
/// kernel, which applies the same rules on the same PlanGrid without
/// building a graph (sched/PseudoScheduler), the only clock arithmetic
/// of the scheduling chain.
///
/// The ASAP fixpoint is the scheduling chain's one relaxation
/// (sched/AsapFixpoint, which proves its verdict): sweeps that visit
/// each original node, and each copy right after the edge from its
/// producer, until a sweep raises no node it already visited. It gives
/// the least fixpoint, or "recurrence infeasible" exactly when none
/// exists, whatever the visit order.
///
/// Every tick quantity is the exact Rational time times ticksPerNs;
/// tests/sched/TickDomainTest checks the ASAP fixpoint against a
/// Rational oracle and pins the driver's output to golden digests.
///
/// A plan with no grid has no TickGraph. The Figure 5 driver refuses
/// such IT steps (LoopScheduler), so every consumer downstream takes a
/// valid lowering as a precondition.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SCHED_TICKGRAPH_H
#define HCVLIW_SCHED_TICKGRAPH_H

#include "mcd/PlanGrid.h"
#include "mcd/SyncModel.h"
#include "sched/PartitionedGraph.h"

#include <optional>
#include <vector>

namespace hcvliw {

class TickGraph {
  const PartitionedGraph *PG = nullptr;
  PlanGrid Grid;
  std::vector<int64_t> PeriodTicksVec; ///< per node
  std::vector<int64_t> IIsVec;         ///< per node
  std::vector<int64_t> EdgeLatTicks;   ///< per edge: latency * period(src)
  std::vector<int64_t> EdgeDistTicks;  ///< per edge: distance * IT
  /// Nodes before this index are original operations; the copies
  /// follow them (PartitionedGraph::buildInto's layout).
  unsigned NumOps = 0;
  /// The ASAP fixpoint's per-node depths, reused across calls (a
  /// TickGraph lives in a per-thread scratch arena; mutable because the
  /// fixpoint is logically const).
  mutable std::vector<uint64_t> AsapDepth;

public:
  /// Lowers \p Graph under \p Plan; std::nullopt when the plan has no
  /// valid grid (LCM overflow).
  static std::optional<TickGraph> build(const PartitionedGraph &Graph,
                                        const MachinePlan &Plan);

  /// In-place form of build: reuses \p T's per-node/per-edge vectors.
  /// Returns false (leaving T invalid) when the plan has no valid grid.
  /// The scheduling chain lowers one TickGraph per (partition, IT)
  /// attempt, so sweep drivers pass one scratch object instead of
  /// reallocating the four vectors every attempt.
  static bool buildInto(TickGraph &T, const PartitionedGraph &Graph,
                        const MachinePlan &Plan);

  /// Whether this object holds a lowered graph (buildInto succeeded).
  bool valid() const { return PG != nullptr && Grid.valid(); }

  /// The lowering of (\p Graph, \p Plan) a consumer should use:
  /// \p Prebuilt when the caller passes one (its validity decides),
  /// else a fresh lowering held in \p Own. Returns nullptr when the
  /// plan has no grid; throws std::invalid_argument when a valid
  /// \p Prebuilt lowers a different graph.
  static const TickGraph *resolve(const TickGraph *Prebuilt,
                                  const PartitionedGraph &Graph,
                                  const MachinePlan &Plan,
                                  std::optional<TickGraph> &Own);

  const PlanGrid &grid() const { return Grid; }
  const PartitionedGraph &graph() const { return *PG; }
  int64_t itTicks() const { return Grid.itTicks(); }
  int64_t periodTicks(unsigned Node) const { return PeriodTicksVec[Node]; }
  int64_t iiOf(unsigned Node) const { return IIsVec[Node]; }
  int64_t edgeLatTicks(unsigned EIx) const { return EdgeLatTicks[EIx]; }
  int64_t edgeDistTicks(unsigned EIx) const { return EdgeDistTicks[EIx]; }

  /// start(n) in ticks when n issues at \p Slot of its own domain.
  int64_t startTicks(unsigned Node, int64_t Slot) const {
    return Slot * PeriodTicksVec[Node];
  }

  /// Lower bound on start(Dst) of edge \p EIx when its source starts
  /// at \p SrcStartTicks (the Section 2.2 + sync-queue timing rule).
  int64_t edgeStartBound(unsigned EIx, int64_t SrcStartTicks) const {
    const PGEdge &E = PG->edge(EIx);
    int64_t Ready = SrcStartTicks + EdgeLatTicks[EIx];
    int64_t Arrive = crossDomainArrival(Ready, PeriodTicksVec[E.Src],
                                        PeriodTicksVec[E.Dst]);
    return Arrive - EdgeDistTicks[EIx];
  }

  /// Earliest starts of every node ignoring resources, the least
  /// fixpoint of the cross-domain timing rule, into \p Start (resized
  /// to the node count). Returns false when no fixpoint exists: a
  /// dependence cycle cannot meet the IT.
  bool computeAsapTicksInto(std::vector<int64_t> &Start) const;

  /// The scheduler's ALAP priorities: the greatest fixpoint, into
  /// \p Late (resized to the node count), of
  ///
  ///   Late[src(e)] <= Late[dst(e)] + Distance(e) * IT
  ///                                - Latency(e) * period(src(e))
  ///
  /// over every edge, with every Late at most the largest of \p Asap
  /// (the ASAP fixpoint of this graph). Returns the relaxation rounds
  /// it ran, the last of which changed nothing.
  unsigned computeAlapTicksInto(const std::vector<int64_t> &Asap,
                                std::vector<int64_t> &Late) const;
};

} // namespace hcvliw

#endif // HCVLIW_SCHED_TICKGRAPH_H
