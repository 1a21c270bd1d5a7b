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
/// The scheduler does not check register pressure; the driver validates
/// it afterwards (sched/RegisterPressure.h) and grows the IT on failure.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SCHED_HETEROMODULOSCHEDULER_H
#define HCVLIW_SCHED_HETEROMODULOSCHEDULER_H

#include "obs/Trace.h"
#include "sched/ModuloReservationTable.h"
#include "sched/Schedule.h"

#include <string>

namespace hcvliw {

struct SchedulerOptions {
  /// Placement attempts allowed, as a multiple of the node count (for
  /// loops up to BudgetRefOps nodes; see budgetFor).
  unsigned BudgetFactor = 12;
  /// Node count past which the ejection budget stops growing linearly.
  /// Up to this size the budget is BudgetFactor * N + 64 (unchanged
  /// from the historical policy); above it the per-node allowance
  /// decays as sqrt(BudgetRefOps / N), so the total grows like
  /// sqrt(N) — sublinear, which keeps 1000+-op sweeps from spending
  /// minutes in ejection storms at hopeless IIs. Growing the IT makes
  /// scheduling strictly easier, so a budget miss only defers success
  /// to a later (cheaper) IT step, never to failure of the sweep.
  unsigned BudgetRefOps = 256;
  /// Fail when any slot exceeds this multiple of its domain's II
  /// (runaway ejection chains).
  int64_t MaxSlotMultiple = 64;
  /// Let the sweep driver (LoopScheduler) salvage a placement whose
  /// register pressure overflows by running compactScheduleLifetimes
  /// before giving up on the IT step. Earliest-feasible placement
  /// leaves early-produced values live for many IIs on wide graphs, and
  /// each full II a lifetime spans costs one register in *every* modulo
  /// slot — compaction removes exactly those crossings. It trades
  /// per-iteration makespan for pressure, so it only runs as a rescue
  /// (schedules that already fit are left untouched and bit-identical
  /// to the historical output). Changes the emitted schedule when it
  /// fires, hence part of the ScheduleCache key.
  bool CompactLifetimes = true;

  /// The placement-loop budget for an \p NumOps-node partitioned graph
  /// (copy nodes included). Integer sqrt keeps it exact and
  /// platform-independent.
  int64_t budgetFor(size_t NumOps) const {
    int64_t N = static_cast<int64_t>(NumOps);
    int64_t Ref = static_cast<int64_t>(BudgetRefOps);
    int64_t F = static_cast<int64_t>(BudgetFactor);
    if (Ref <= 0 || N <= Ref)
      return F * N + 64;
    int64_t X = Ref * N, R = 0;
    for (int64_t Bit = int64_t(1) << 31; Bit > 0; Bit >>= 1) {
      int64_t T = R + Bit;
      if (T * T <= X)
        R = T;
    }
    return F * R + 64; // floor(sqrt(Ref * N)); continuous at N == Ref
  }
};

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
  std::vector<int64_t> Asap, Alap, EdgeBack, Slot, LastSlot;
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
unsigned compactScheduleLifetimes(const TickGraph &T, Schedule &S,
                                  int64_t MaxSlotMultiple,
                                  SchedulerScratch *Scratch = nullptr);

class HeteroModuloScheduler {
  const MachineDescription &Machine;
  const PartitionedGraph &PG;
  const MachinePlan &Plan; ///< borrowed; must outlive run()
  SchedulerOptions Opts;

  SchedulerResult runTicks(const TickGraph &T, SchedulerScratch &S);

public:
  HeteroModuloScheduler(const MachineDescription &M,
                        const PartitionedGraph &Graph,
                        const MachinePlan &ThePlan,
                        const SchedulerOptions &O = SchedulerOptions());

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
