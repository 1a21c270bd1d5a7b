//===- sched/RegisterPressure.cpp - MaxLive computation ---------------------===//

#include "sched/RegisterPressure.h"
#include "mcd/SyncModel.h"
#include "sched/TickGraph.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

using namespace hcvliw;

bool RegisterPressureResult::fits(const MachineDescription &M) const {
  for (unsigned C = 0; C < MaxLive.size(); ++C)
    if (MaxLive[C] > static_cast<int64_t>(M.Clusters[C].Registers))
      return false;
  return true;
}

namespace {

/// True when node \p N defines a register and, for copies, resolves the
/// (unique) consumer cluster the payload lands in.
bool valueHome(const PartitionedGraph &PG, unsigned N, unsigned &Home,
               bool &IsCopy) {
  const PGNode &Node = PG.node(N);
  bool DefinesRegister = Node.Op != Opcode::Store &&
                         (Node.OrigOp >= 0 || Node.CopiedValue >= 0);
  if (!DefinesRegister)
    return false;
  if (Node.Domain != PG.busDomain()) {
    Home = Node.Domain;
    IsCopy = false;
    return true;
  }
  // A copy's payload lands in the (unique) cluster of its consumers.
  int HomeInt = -1;
  for (unsigned EIx : PG.outEdges(N)) {
    unsigned DstDom = PG.node(PG.edge(EIx).Dst).Domain;
    assert(DstDom != PG.busDomain() && "copy feeding a copy");
    assert((HomeInt < 0 || HomeInt == static_cast<int>(DstDom)) &&
           "copy with consumers in several clusters");
    HomeInt = static_cast<int>(DstDom);
  }
  if (HomeInt < 0)
    return false; // dead copy: nothing to hold
  Home = static_cast<unsigned>(HomeInt);
  IsCopy = true;
  return true;
}

} // namespace

RegisterPressureResult
hcvliw::computeRegisterPressure(const PartitionedGraph &PG, const Schedule &S,
                                const TickGraph *Ticks,
                                PressureScratch *Scratch) {
  unsigned NC = PG.numClusters();
  RegisterPressureResult R;
  R.MaxLive.assign(NC, 0);
  R.SumLifetimes.assign(NC, 0);

  std::optional<TickGraph> Own;
  const TickGraph *T = TickGraph::resolve(Ticks, PG, S.Plan, Own);
  if (!T)
    throw std::invalid_argument(std::string("register pressure: ") +
                                PlanGrid::NoGridReason);
  const PlanGrid &G = T->grid();

  // A node's value occupies a register in cluster Home from its write
  // time until the latest read among its value-carrying out-edges.
  PressureScratch Local;
  PressureScratch &SS = Scratch ? *Scratch : Local;
  std::vector<RegLifetime> &Lifetimes = SS.Lifetimes;
  Lifetimes.clear();
  Lifetimes.reserve(PG.size());
  for (unsigned N = 0; N < PG.size(); ++N) {
    unsigned Home;
    bool IsCopy;
    if (!valueHome(PG, N, Home, IsCopy))
      continue;

    int64_t Write = T->startTicks(N, S.Nodes[N].Slot) +
                    static_cast<int64_t>(PG.node(N).LatencyCycles) *
                        T->periodTicks(N);
    if (IsCopy)
      Write = crossDomainArrival(Write, G.busPeriodTicks(),
                                 G.clusterPeriodTicks(Home));
    bool HasUse = false;
    int64_t LastRead = 0;
    for (unsigned EIx : PG.outEdges(N)) {
      const PGEdge &E = PG.edge(EIx);
      if (!E.CarriesValue)
        continue;
      int64_t Read = T->startTicks(E.Dst, S.Nodes[E.Dst].Slot) +
                     static_cast<int64_t>(E.Distance) * G.itTicks();
      if (!HasUse || LastRead < Read)
        LastRead = Read;
      HasUse = true;
    }
    if (!HasUse)
      continue;
    int64_t P = G.clusterPeriodTicks(Home);
    int64_t DefSlot = floorDivTick(Write, P);
    int64_t EndSlot = ceilDivTick(LastRead, P);

    int64_t Len = std::max<int64_t>(1, EndSlot - DefSlot);
    R.SumLifetimes[Home] += Len;
    Lifetimes.push_back({Home, DefSlot, Len});
  }

  moduloMaxLiveInto(R.MaxLive, Lifetimes, S.Plan, SS);
  return R;
}

void hcvliw::moduloMaxLiveInto(std::vector<int64_t> &MaxLive,
                               const std::vector<RegLifetime> &Lifetimes,
                               const MachinePlan &Plan,
                               PressureScratch &Scratch) {
  // Per cluster, the floor(Len / II) every lifetime adds at every slot,
  // and a difference array of the cyclic runs of one more.
  const unsigned NC = static_cast<unsigned>(Plan.Clusters.size());
  std::vector<int64_t> &Base = Scratch.Base;
  std::vector<std::vector<int64_t>> &Diff = Scratch.Pressure;
  Base.assign(NC, 0);
  Diff.resize(NC);
  for (unsigned C = 0; C < NC; ++C)
    Diff[C].assign(static_cast<size_t>(Plan.Clusters[C].II) + 1, 0);
  for (const RegLifetime &L : Lifetimes) {
    const int64_t II = Plan.Clusters[L.Home].II;
    Base[L.Home] += L.Len / II;
    const int64_t Rem = L.Len % II;
    if (Rem == 0)
      continue;
    // The run [DefSlot mod II, + Rem), wrapping past slot II - 1 (the
    // entry at II is never summed).
    int64_t First = L.DefSlot % II;
    if (First < 0)
      First += II;
    int64_t *D = Diff[L.Home].data();
    ++D[First];
    if (First + Rem <= II) {
      --D[First + Rem];
    } else {
      ++D[0];
      --D[First + Rem - II];
    }
  }
  MaxLive.assign(NC, 0);
  for (unsigned C = 0; C < NC; ++C) {
    const int64_t II = Plan.Clusters[C].II;
    int64_t Live = Base[C], Peak = 0;
    for (int64_t M = 0; M < II; ++M) {
      Live += Diff[C][static_cast<size_t>(M)];
      Peak = std::max(Peak, Live);
    }
    MaxLive[C] = Peak;
  }
}
