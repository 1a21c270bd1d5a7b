//===- sched/PseudoScheduler.h - Fast schedule estimates ---------*- C++ -*-===//
///
/// \file
/// Pseudo-schedules (Section 4.1.2, after [3]): a cheap approximation of
/// the schedule a partition would obtain, used to compare candidate
/// partitions during refinement without running the full scheduler.
/// The estimate checks
///   - per-cluster functional-unit capacity at the plan's IIs,
///   - bus capacity against the partition's communication count,
///   - recurrence feasibility through the exact ASAP fixpoint,
///   - a sum-of-lifetimes register proxy (Section 3.2's third bullet),
/// and reports the activity distribution the energy model needs (the
/// paper's p_Ci) plus an it_length approximation from the ASAP times.
///
/// The timing kernel (pseudoScheduleAsap) builds no graph: it reads the
/// DDG's CSR, the cluster assignment and the plan's tick grid, and
/// treats the inter-cluster copies as virtual nodes numbered as a
/// materialized PartitionedGraph would number them. It runs the one
/// ASAP relaxation of the scheduling chain (sched/AsapFixpoint) with a
/// step that visits each node, then its copies, then its out-edges.
/// So its answer is the scheduler's TickGraph answer on that graph: the
/// least ASAP fixpoint, or "recurrence infeasible" exactly when none
/// exists, whatever the visit order.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SCHED_PSEUDOSCHEDULER_H
#define HCVLIW_SCHED_PSEUDOSCHEDULER_H

#include "ir/DDG.h"
#include "mcd/PlanGrid.h"
#include "sched/Partition.h"

#include <string>
#include <vector>

namespace hcvliw {

struct PseudoSchedule {
  bool Feasible = false;
  std::string Reason;
  /// Graded infeasibility: total normalized violation over all checks
  /// (0 when feasible). Refinement uses this as a gradient so greedy
  /// moves can walk *out* of an infeasible region instead of stalling
  /// on a flat "infinite" score.
  double Overflow = 0;

  /// Inter-cluster transfers per iteration: one copy per (value,
  /// consuming cluster) pair.
  unsigned Comms = 0;
  /// Energy-weighted instructions per cluster (normalizes to p_Ci).
  std::vector<double> WInsPerCluster;
  /// Approximate time for one iteration to complete.
  Rational ItLengthNs;
  /// Sum-of-lifetimes register proxy per cluster, in cluster cycles.
  std::vector<int64_t> LifetimeProxy;
};

/// The integer tallies the schedule-free checks of a pseudo-schedule
/// read. The estimator counts them from scratch per call; the
/// partitioner's refinement bound keeps them as deltas across candidate
/// moves. Both grade them through gradePartitionBudgets, so the two
/// agree bit for bit.
struct PartitionTally {
  std::vector<unsigned> Counts;    ///< flat [cluster][kind] op counts
  unsigned Comms = 0;              ///< copies, one per (value, cluster)
  std::vector<unsigned> CopiesIn;  ///< [cluster] copies landing there
  std::vector<unsigned> Defs;      ///< [cluster] value-defining ops
  std::vector<int64_t> DefLatency; ///< [cluster] their summed latency

  /// Sizes every per-cluster vector for \p NumClusters, all zero.
  void clear(unsigned NumClusters);
};

/// Slot capacity per IT of every (cluster, FU kind) under \p Plan — the
/// cluster's II times its unit count — into \p Cap, flat
/// [cluster][kind]. The one capacity table the partitioner's placement
/// policies and the budget checks below all read.
void slotCapacityInto(std::vector<int64_t> &Cap, const MachineDescription &M,
                      const MachinePlan &Plan);

/// The capacity term gradePartitionBudgets adds for \p Cnt ops of one
/// FU kind on a cluster with \p Slots slots of it per IT: 0 when they
/// fit, else the overload normalized by the slots, or the whole count
/// when the cluster has no such unit.
inline double capacityOverflow(unsigned Cnt, int64_t Slots) {
  if (Cnt == 0)
    return 0;
  if (Slots <= 0)
    return Cnt;
  if (static_cast<int64_t>(Cnt) <= Slots)
    return 0;
  return (static_cast<double>(Cnt) - static_cast<double>(Slots)) /
         static_cast<double>(Slots);
}

/// Grades the budgets of \p T that need no schedule: per-cluster,
/// per-kind FU capacity at the plan's IIs, bus capacity, and the
/// register lifetime proxy (\p Cap is slotCapacityInto's table for \p M
/// and \p Plan). Each violation adds its normalized size to
/// \p Overflow, in that fixed order; \p RecurrenceInfeasible inserts
/// the recurrence penalty between the bus and the register terms,
/// where the estimator has always summed it. Returns the reason of the
/// first violated check, or nullptr when every check passes.
const char *gradePartitionBudgets(const MachineDescription &M,
                                  const MachinePlan &Plan,
                                  const std::vector<int64_t> &Cap,
                                  const PartitionTally &T,
                                  bool RecurrenceInfeasible, double &Overflow);

/// Reusable buffers for the pseudo-schedule kernel. Partition
/// refinement scores one pseudo-schedule per candidate move — hundreds
/// per loop — so with a scratch the whole refinement runs
/// allocation-free in steady state. Contents carry nothing between
/// calls.
struct PseudoScratch {
  PlanGrid Grid;
  std::vector<unsigned> NodeLat;
  /// Virtual copies: flat [value][cluster] -> copy id (-1: none), and
  /// per copy (id - node count) its value and destination cluster.
  std::vector<int> CopySlots;
  std::vector<unsigned> CopyValue, CopyCluster;
  /// ASAP start ticks of the nodes, then the copies.
  std::vector<int64_t> Asap;
  /// Per node and copy, the causal-chain depth of its start, and per
  /// cluster the SweepCluster below.
  std::vector<uint64_t> Depth;
  struct SweepCluster {
    int64_t Period = 0;
    /// The IT is not a multiple of Period, so a loop-carried bound can
    /// fall between the cluster's ticks and needs rounding up.
    bool OffGrid = false;
    /// The visited node's copy into this cluster: when its value
    /// arrives, and that arrival's depth.
    int64_t Arrive = 0;
    uint64_t ArriveDepth = 0;
  };
  std::vector<SweepCluster> SweepClusters;
  /// The sweeps the last pseudoScheduleAsap call ran. A result for
  /// tests; nothing reads it back.
  unsigned LastSweeps = 0;
  PartitionTally Tally;
  std::vector<int64_t> Cap; ///< slotCapacityInto table
  PseudoSchedule Result; ///< reused by scorePartition
};

/// The pseudo-schedule's timing kernel on assignment \p ClusterOf (one
/// cluster per DDG node), with \p NodeLat the ISA latency of every node
/// (IsaTable::nodeLatencies): materializes the copies virtually into
/// \p S (one per (value, consuming cluster) pair, numbered after the
/// nodes in DDG edge order, as PartitionedGraph numbers them), runs the
/// exact ASAP fixpoint on \p Plan's tick grid and returns false when a
/// recurrence cannot meet the IT (no fixpoint exists). Otherwise writes the iteration length
/// (latest ASAP completion) to \p ItLengthNs. Throws
/// std::invalid_argument when \p Plan has no tick grid.
bool pseudoScheduleAsap(PseudoScratch &S, const DDG &G,
                        const MachineDescription &M, const MachinePlan &Plan,
                        const std::vector<unsigned> &NodeLat,
                        const std::vector<unsigned> &ClusterOf,
                        Rational &ItLengthNs);

/// Estimates the schedule quality of \p P for \p L under \p Plan.
/// \p Scratch provides reusable buffers (optional; identical results).
/// Throws std::invalid_argument when \p Plan has no tick grid.
PseudoSchedule estimatePseudoSchedule(const Loop &L, const DDG &G,
                                      const MachineDescription &M,
                                      const MachinePlan &Plan,
                                      const Partition &P,
                                      PseudoScratch *Scratch = nullptr);

/// In-place form: writes the estimate into \p PS, reusing its vectors
/// (refinement scores hundreds of candidates; with this plus a scratch
/// the whole scoring loop is allocation-free in steady state). Same
/// precondition: a plan with no tick grid throws std::invalid_argument.
void estimatePseudoScheduleInto(PseudoSchedule &PS, const Loop &L,
                                const DDG &G, const MachineDescription &M,
                                const MachinePlan &Plan, const Partition &P,
                                PseudoScratch *Scratch = nullptr);

} // namespace hcvliw

#endif // HCVLIW_SCHED_PSEUDOSCHEDULER_H
