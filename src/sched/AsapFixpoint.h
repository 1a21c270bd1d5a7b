//===- sched/AsapFixpoint.h - The ASAP fixpoint and its verdict --*- C++ -*-===//
///
/// \file
/// The one relaxation behind every "can this partition's recurrences
/// meet the IT?" question of the scheduling chain. It computes the
/// least ASAP fixpoint of a loop's dependences on the plan's tick grid,
/// or the verdict "recurrence infeasible" exactly when no fixpoint
/// exists. The scheduler runs it over its TickGraph, where every copy
/// is a node; refinement runs it through the pseudo-schedule kernel,
/// which has no copy nodes and folds each copy hop into the value edges
/// it feeds. The sweep driver below is shared. Each caller supplies
/// only its per-node step, which walks that node's out-edges.
///
/// The edge rule. Every start is a multiple of its domain's period P.
/// An edge into v maps its source's start x to
///   f(x) = alignUp(crossDomainArrival(x + c, P_src, P_v) - d * IT, P_v),
/// with c the edge latency in ticks and d its distance. Each f is
/// monotone. Let H be the lcm of the cluster and bus period ticks
/// (PlanGrid::hyperperiodTicks). Every P divides H, so
/// f(x + H) = f(x) + H.
///
/// A folded copy hop. A copy of u's value has one in-edge, from u, so
/// at any fixpoint its start is the arrival of u's value on the bus, a
/// function of u's start alone. A cross-cluster value edge u -> v that
/// leaves through that copy maps u's start x to
///   g(x) = alignUp(crossDomainArrival(
///              crossDomainArrival(x + c, P_u, P_bus) + L * P_bus,
///              P_bus, P_v) - d * IT, P_v),
/// with L the bus latency in cycles. Each stage is monotone and
/// commutes with + H, so g is too, and the argument below holds with
/// g as an edge over the loop's nodes alone: the least fixpoint over
/// the nodes is the materialized graph's, restricted to them, and the
/// verdict is the same "no fixpoint exists". Both the nodes' starts and
/// the verdict are therefore unchanged by the folding; only the depths
/// (one edge per hop instead of two) and D differ.
///
/// The relaxation. Starts begin at 0, with causal-chain depth 0. A
/// sweep visits every node once. The visit reads the node's start x
/// and depth k, and raises each successor v to f(x) when f(x) is
/// later, setting v's depth to k + 1. So a depth is the edge count of
/// the chain of raises that set the start. Values only grow, and by
/// induction every value stays at or below any fixpoint. A sweep that
/// raises no node it has already visited leaves every edge satisfied.
/// That is a fixpoint, and therefore the least one.
///
/// The verdict. Node v has H / P_v residues mod H. Let
/// D = sum over v of H / P_v, over the step's nodes (the kernel's
/// copies are not nodes, so they add nothing).
///   - Sound: a chain of D edges passes D + 1 (node, residue) pairs,
///     so some pair repeats. The later raise of that node came after
///     the earlier one, so it is strictly higher, by some k * H with
///     k >= 1. The closed walk C between the two has
///     F_C(y) = y + k * H, and so F_C^m(y) = y + m * k * H for every
///     m. A fixpoint would have to lie above all of these, so none
///     exists.
///   - Complete: with no fixpoint, raises never stop. Every raise has
///     one cause, and a raise causes at most one raise per out-edge of
///     its node (after the first, the successor is already that
///     high). By König's lemma some chain is unbounded, so some depth
///     reaches D.
/// So infeasible <=> some depth reaches D, whatever the visit order.
///
/// The work bound. A raise in sweep s >= 2 reads a value set after its
/// edge was last relaxed, so after the source's visit in sweep s - 1.
/// By induction a raise in sweep s has depth at least s - 1. The driver
/// checks the deepest start after each sweep that raised a node
/// backward; after sweep D + 1 the nodes that sweep raised hold depths
/// of at least D. So it stops within D + 1 sweeps, each one pass over
/// the nodes and edges. When the first sweep raises nothing backward,
/// every chain follows the visit order, and no depth exceeds the node
/// count (at most D). So the driver only counts D after a backward
/// raise.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SCHED_ASAPFIXPOINT_H
#define HCVLIW_SCHED_ASAPFIXPOINT_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hcvliw {

/// One sweep of an ASAP relaxation: the starts and depths a step
/// raises, and what the sweep has seen so far.
struct AsapSweep {
  int64_t *Start = nullptr;
  uint64_t *Depth = nullptr;
  /// Whether the sweep raised a node it had already visited.
  bool Backward = false;

  /// Raises node \p V to \p Bound, a tick of its domain, when that is
  /// later than its start. \p D is the raise's depth, and \p Behind
  /// says whether the sweep has already visited \p V.
  void raise(unsigned V, int64_t Bound, uint64_t D, bool Behind) {
    if (Start[V] >= Bound)
      return;
    Start[V] = Bound;
    Depth[V] = D;
    Backward |= Behind;
  }
};

/// Sweeps \p Step to the least ASAP fixpoint of \p Nodes nodes, whose
/// starts land in \p Start. Each sweep calls Step.visit(Sweep, V) for
/// V in [0, Visits), in order; the step relaxes its nodes' out-edges
/// through AsapSweep::raise. After a backward raise the driver asks
/// Step.depthLimit() for D, once. Returns false when some depth
/// reaches it: the recurrence cannot meet the IT. \p Depth is scratch,
/// and \p Sweeps gets the sweep count.
template <class StepT>
bool sweepAsapFixpoint(StepT &Step, std::vector<int64_t> &Start,
                       std::vector<uint64_t> &Depth, unsigned Nodes,
                       unsigned Visits, unsigned &Sweeps) {
  Start.assign(Nodes, 0);
  Depth.assign(Nodes, 0);
  AsapSweep Sweep;
  Sweep.Start = Start.data();
  Sweep.Depth = Depth.data();
  uint64_t Limit = 0;
  for (Sweeps = 1;; ++Sweeps) {
    Sweep.Backward = false;
    for (unsigned V = 0; V < Visits; ++V)
      Step.visit(Sweep, V);
    if (!Sweep.Backward)
      return true;
    if (Limit == 0)
      Limit = Step.depthLimit();
    if (*std::max_element(Depth.begin(), Depth.end()) >= Limit)
      return false;
  }
}

} // namespace hcvliw

#endif // HCVLIW_SCHED_ASAPFIXPOINT_H
