//===- sched/HeteroModuloScheduler.h - Heterogeneous IMS ---------*- C++ -*-===//
///
/// \file
/// Iterative modulo scheduling for heterogeneous clustered machines
/// (the "Schedule" box of the paper's Figure 5). Given a partitioned
/// graph and a machine plan (IT plus per-domain II/frequency), nodes are
/// placed in absolute time: node n at slot s of domain d issues at
/// s * period(d), and its modulo resource reservation is slot mod II_d.
///
/// The algorithm follows Rau's iterative modulo scheduling adapted to
/// absolute-time dependences: nodes are ordered by slack (ALAP - ASAP);
/// each node is placed at the first resource-feasible slot in a window
/// of II_d slots above its predecessor-induced earliest start; when the
/// window is full the node is force-placed and conflicting occupants /
/// violated successors are ejected, bounded by an operation budget.
///
/// All clock arithmetic runs on the plan's integer tick grid
/// (mcd/PlanGrid.h, sched/TickGraph.h): every start, bound and period is
/// an exact int64 tick count. A plan with no grid is not scheduled; the
/// Figure 5 driver refuses such IT steps before calling in.
///
/// The placement loop's effort is bounded by a budget that grows
/// linearly in the node count up to 256 nodes and like sqrt(N) past
/// it, and by a cap of 64 IIs on any slot (HeteroModuloScheduler.cpp).
///
/// The scheduler does not check register pressure; the driver validates
/// it afterwards (sched/RegisterPressure.h), salvages an overflow with
/// compactScheduleLifetimes, and grows the IT when that fails too.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SCHED_HETEROMODULOSCHEDULER_H
#define HCVLIW_SCHED_HETEROMODULOSCHEDULER_H

#include "obs/Trace.h"
#include "sched/ModuloReservationTable.h"
#include "sched/Schedule.h"

#include <string>

namespace hcvliw {

struct SchedulerResult {
  bool Success = false;
  Schedule Sched;
  std::string FailureReason;
  /// Effort counters of the placement loop.
  uint64_t Placements = 0; ///< successful node placements
  uint64_t Ejections = 0;  ///< evictions + dependence ejections
  uint64_t BudgetUsed = 0; ///< placement-loop iterations consumed
};

class TickGraph;

/// Reusable buffers for HeteroModuloScheduler::run. One scheduling run
/// allocates ~a dozen per-node/per-edge vectors plus the reservation
/// table; an IT sweep runs the scheduler many times per loop, so sweep
/// drivers (LoopScheduler via ScheduleScratch) pass one of these and
/// the steady state stops hitting malloc. Contents carry no information
/// between runs — results are bit-identical with or without a scratch.
struct SchedulerScratch {
  struct TickEntry {
    unsigned Node;
    int64_t Slack;
    int64_t Asap;
  };
  std::vector<int64_t> Asap, Alap, Slot, LastSlot;
  std::vector<unsigned> Unit, Rank, NodeOfRank;
  std::vector<uint8_t> Placed;
  std::vector<uint64_t> ReadyWords;
  std::vector<TickEntry> TickOrder;
  ModuloReservationTable MRT;
};

/// Stage compaction: slide every node with a consumer later by whole
/// multiples of its domain II, up against its consumers' dependence
/// bounds, iterated to a fixpoint. Whole-II moves keep the modulo
/// reservation (same slot mod II, same unit) and only relax in-edge
/// bounds, so a valid \p S stays valid by construction while long
/// lifetimes stop crossing full IIs — typically a large register-
/// pressure reduction on wide graphs, at the cost of deeper stages
/// (longer per-iteration makespan). Pure function of (T, S),
/// independent of thread count and of how S was produced, so warm-start
/// replays and cold runs compact identically. \p T is the valid tick
/// lowering of (graph, S.Plan). Returns the number of nodes moved.
///
/// The sweep driver (LoopScheduler) runs it only as a rescue, on a
/// placement whose register pressure overflows: earliest-feasible
/// placement leaves early-produced values live for many IIs on wide
/// graphs, and each full II a lifetime spans costs one register in
/// *every* modulo slot, which is what compaction removes. Schedules that
/// already fit are left untouched.
unsigned compactScheduleLifetimes(const TickGraph &T, Schedule &S,
                                  SchedulerScratch *Scratch = nullptr);

class HeteroModuloScheduler {
  const MachineDescription &Machine;
  const PartitionedGraph &PG;
  const MachinePlan &Plan; ///< borrowed; must outlive run()

  SchedulerResult runTicks(const TickGraph &T, SchedulerScratch &S);

public:
  HeteroModuloScheduler(const MachineDescription &M,
                        const PartitionedGraph &Graph,
                        const MachinePlan &ThePlan);

  /// Runs the placement loop on the plan's tick grid. \p Ticks:
  /// nullptr = lower (Graph, ThePlan) internally; otherwise the
  /// caller's lowering of exactly (Graph, ThePlan), whose validity
  /// decides. A plan with no grid fails with PlanGrid::NoGridReason; a
  /// valid TickGraph of another graph throws std::invalid_argument.
  /// \p Scratch provides reusable buffers (optional). \p Trace, when
  /// enabled, records one "sched.place" span per run (observation only;
  /// results never depend on it).
  SchedulerResult run(const TickGraph *Ticks = nullptr,
                      SchedulerScratch *Scratch = nullptr,
                      obs::Tracer *Trace = nullptr);
};

} // namespace hcvliw

#endif // HCVLIW_SCHED_HETEROMODULOSCHEDULER_H
