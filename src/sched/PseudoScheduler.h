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
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SCHED_PSEUDOSCHEDULER_H
#define HCVLIW_SCHED_PSEUDOSCHEDULER_H

#include "sched/PartitionedGraph.h"
#include "sched/Schedule.h"
#include "sched/TickGraph.h"

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

  /// Inter-cluster transfers per iteration (copy nodes materialized).
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

/// Reusable buffers for estimatePseudoSchedule. Partition refinement
/// scores one pseudo-schedule per candidate move — hundreds per loop —
/// and each estimate materializes a PartitionedGraph plus a tick
/// lowering; with a scratch, the whole refinement runs allocation-free
/// in steady state. Contents carry nothing between calls.
struct PseudoScratch {
  PartitionedGraph PG;
  std::vector<int> CopySlots;
  std::vector<unsigned> NodeLat;
  TickGraph Ticks;
  std::vector<int64_t> Asap;
  PartitionTally Tally;
  std::vector<int64_t> Cap; ///< slotCapacityInto table
  PseudoSchedule Result; ///< reused by scorePartition
};

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
