//===- sched/Schedule.cpp - Modulo schedule artifact ------------------------===//

#include "sched/Schedule.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

using namespace hcvliw;

const DomainPlan &Schedule::domainPlan(const PartitionedGraph &PG,
                                       unsigned Domain) const {
  return Domain == PG.busDomain() ? Plan.Bus : Plan.Clusters[Domain];
}

Rational Schedule::periodOf(const PartitionedGraph &PG, unsigned Node) const {
  return domainPlan(PG, PG.node(Node).Domain).PeriodNs;
}

int64_t Schedule::iiOf(const PartitionedGraph &PG, unsigned Node) const {
  return domainPlan(PG, PG.node(Node).Domain).II;
}

Rational Schedule::startNs(const PartitionedGraph &PG, unsigned Node) const {
  assert(Nodes[Node].Placed && "querying an unplaced node");
  return Rational(Nodes[Node].Slot) * periodOf(PG, Node);
}

Rational Schedule::readyNs(const PartitionedGraph &PG, unsigned Node) const {
  return startNs(PG, Node) +
         Rational(PG.node(Node).LatencyCycles) * periodOf(PG, Node);
}

Rational Schedule::itLengthNs(const PartitionedGraph &PG) const {
  // readyNs(N) is (Slot + LatencyCycles) periods of N's domain, and
  // every period is positive, so a domain's latest ready time is its
  // largest integer Slot + LatencyCycles times its period: one Rational
  // multiply per domain, exactly the per-node maximum.
  std::vector<int64_t> Last(PG.numClusters() + 1, 0);
  for (unsigned N = 0; N < PG.size(); ++N) {
    if (!Nodes[N].Placed)
      continue;
    const PGNode &Node = PG.node(N);
    int64_t Ready;
    if (__builtin_add_overflow(Nodes[N].Slot,
                               static_cast<int64_t>(Node.LatencyCycles),
                               &Ready))
      throw std::overflow_error("it_length: slot + latency overflows");
    Last[Node.Domain] = std::max(Last[Node.Domain], Ready);
  }
  Rational End(0);
  for (unsigned D = 0; D < Last.size(); ++D)
    if (Last[D] > 0)
      End = Rational::max(End,
                          Rational(Last[D]) * domainPlan(PG, D).PeriodNs);
  return End;
}

int64_t Schedule::stageCount(const PartitionedGraph &PG,
                             unsigned Domain) const {
  int64_t II = domainPlan(PG, Domain).II;
  int64_t MaxSlot = -1;
  for (unsigned N = 0; N < PG.size(); ++N)
    if (Nodes[N].Placed && PG.node(N).Domain == Domain)
      MaxSlot = std::max(MaxSlot, Nodes[N].Slot);
  if (MaxSlot < 0)
    return 0;
  return MaxSlot / II + 1;
}

Rational Schedule::execTimeNs(const PartitionedGraph &PG,
                              uint64_t TripCount) const {
  return execTimeNs(itLengthNs(PG), TripCount);
}

Rational Schedule::execTimeNs(const Rational &ItLengthNs,
                              uint64_t TripCount) const {
  assert(TripCount >= 1 && "empty loop execution");
  return Rational(static_cast<int64_t>(TripCount) - 1) * Plan.ITNs +
         ItLengthNs;
}

std::string Schedule::str(const PartitionedGraph &PG) const {
  std::string Out = formatString("IT = %s ns\n", Plan.ITNs.str().c_str());
  for (unsigned C = 0; C < PG.numClusters(); ++C)
    Out += formatString("  cluster %u: II=%lld period=%s ns\n", C,
                        static_cast<long long>(Plan.Clusters[C].II),
                        Plan.Clusters[C].PeriodNs.str().c_str());
  Out += formatString("  bus: II=%lld period=%s ns\n",
                      static_cast<long long>(Plan.Bus.II),
                      Plan.Bus.PeriodNs.str().c_str());
  for (unsigned N = 0; N < PG.size(); ++N) {
    const PGNode &Node = PG.node(N);
    Out += formatString(
        "  n%-3u %-6s dom=%u slot=%lld unit=%u start=%s ns\n", N,
        opcodeName(Node.Op), Node.Domain,
        static_cast<long long>(Nodes[N].Slot), Nodes[N].Unit,
        Nodes[N].Placed ? startNs(PG, N).str().c_str() : "-");
  }
  return Out;
}
