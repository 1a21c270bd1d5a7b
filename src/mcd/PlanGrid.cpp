//===- mcd/PlanGrid.cpp - Integer tick grid of a machine plan --------------===//

#include "mcd/PlanGrid.h"

#include <cassert>

using namespace hcvliw;

int64_t hcvliw::lcm64Checked(int64_t A, int64_t B) {
  assert(A > 0 && B > 0 && "lcm64Checked expects positive operands");
  int64_t G = gcd64(A, B);
  __int128 R = static_cast<__int128>(A / G) * B;
  if (R > INT64_MAX)
    return 0;
  return static_cast<int64_t>(R);
}

/// Lowers \p R at scale \p TicksPerNs, or -1 when the product leaves
/// the headroom bound (periods and the IT are always positive).
static int64_t lowerChecked(const Rational &R, int64_t TicksPerNs) {
  __int128 T = static_cast<__int128>(R.num()) * (TicksPerNs / R.den());
  if (T <= 0 || T > PlanGrid::MaxTicks)
    return -1;
  return static_cast<int64_t>(T);
}

PlanGrid PlanGrid::compute(const MachinePlan &Plan) {
  PlanGrid G;
  computeInto(G, Plan);
  return G;
}

void PlanGrid::computeInto(PlanGrid &G, const MachinePlan &Plan) {
  G.TicksPerNsVal = 0; // invalid until the lowering fully succeeds
  int64_t L = Plan.ITNs.den();
  for (const DomainPlan &C : Plan.Clusters) {
    L = lcm64Checked(L, C.PeriodNs.den());
    if (L == 0 || L > MaxTicks)
      return;
  }
  L = lcm64Checked(L, Plan.Bus.PeriodNs.den());
  if (L == 0 || L > MaxTicks)
    return;

  int64_t IT = lowerChecked(Plan.ITNs, L);
  int64_t Bus = lowerChecked(Plan.Bus.PeriodNs, L);
  if (IT < 0 || Bus < 0)
    return;
  int64_t Hyper = Bus;
  G.ClusterPeriodTicks.clear();
  G.ClusterPeriodTicks.reserve(Plan.Clusters.size());
  for (const DomainPlan &C : Plan.Clusters) {
    int64_t P = lowerChecked(C.PeriodNs, L);
    if (P < 0)
      return;
    Hyper = lcm64Checked(Hyper, P);
    if (Hyper == 0 || Hyper > MaxTicks)
      return;
    G.ClusterPeriodTicks.push_back(P);
  }

  G.TicksPerNsVal = L;
  G.ITTicksVal = IT;
  G.BusPeriodTicksVal = Bus;
  G.HyperTicksVal = Hyper;
}

int64_t PlanGrid::toTicks(const Rational &R) const {
  assert(valid() && "lowering onto an invalid grid");
  assert(TicksPerNsVal % R.den() == 0 && "value off the plan's tick grid");
  return R.num() * (TicksPerNsVal / R.den());
}
