//===- sched/Schedule.h - Modulo schedule artifact ---------------*- C++ -*-===//
///
/// \file
/// The result of modulo scheduling one loop on the heterogeneous
/// machine: a slot (in the node's own clock domain), a functional unit,
/// and the derived absolute start time for every node of the partitioned
/// graph, together with the machine plan (IT and per-domain II/freq).
///
/// Execution time follows the paper's Section 2.2:
///   Texec = (N - 1) * IT + it_length
/// where it_length is the absolute time one iteration takes to drain.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SCHED_SCHEDULE_H
#define HCVLIW_SCHED_SCHEDULE_H

#include "mcd/DomainPlanner.h"
#include "sched/PartitionedGraph.h"

#include <string>
#include <vector>

namespace hcvliw {

struct ScheduledNode {
  bool Placed = false;
  int64_t Slot = 0; ///< issue cycle in the node's own domain
  unsigned Unit = 0;
};

class Schedule {
public:
  MachinePlan Plan;
  std::vector<ScheduledNode> Nodes;

  /// Plan of clock domain \p Domain: a cluster, or PG's bus domain.
  const DomainPlan &domainPlan(const PartitionedGraph &PG,
                               unsigned Domain) const;

  /// Running period of \p Node's domain under Plan.
  Rational periodOf(const PartitionedGraph &PG, unsigned Node) const;

  /// II of \p Node's domain under Plan.
  int64_t iiOf(const PartitionedGraph &PG, unsigned Node) const;

  Rational startNs(const PartitionedGraph &PG, unsigned Node) const;

  /// Completion time of \p Node (start + latency cycles in its domain).
  Rational readyNs(const PartitionedGraph &PG, unsigned Node) const;

  /// Time one iteration needs from the first issue to the last
  /// completion (the paper's it_length, in ns): the latest readyNs of a
  /// placed node. Computed per domain (each cluster and the bus) as
  /// the largest integer Slot + LatencyCycles times the domain's
  /// period, so it costs one Rational multiply per domain instead of
  /// Rational arithmetic per node; exact, by the same Section 2.2
  /// integrality the tick grid rests on. Periods must be positive (a
  /// planned schedule's always are). Throws std::overflow_error when
  /// Slot + LatencyCycles overflows.
  Rational itLengthNs(const PartitionedGraph &PG) const;

  /// Stage count of \p Cluster: how many iterations overlap there.
  int64_t stageCount(const PartitionedGraph &PG, unsigned Domain) const;

  /// (N - 1) * IT + it_length.
  Rational execTimeNs(const PartitionedGraph &PG, uint64_t TripCount) const;
  /// (N - 1) * IT + \p ItLengthNs, for a caller that already holds
  /// itLengthNs(PG).
  Rational execTimeNs(const Rational &ItLengthNs, uint64_t TripCount) const;

  /// Human-readable table of the schedule.
  std::string str(const PartitionedGraph &PG) const;
};

} // namespace hcvliw

#endif // HCVLIW_SCHED_SCHEDULE_H
