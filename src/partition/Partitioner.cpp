//===- partition/Partitioner.cpp - Multilevel DDG partitioning --------------===//

#include "partition/Partitioner.h"
#include "fault/Fault.h"
#include "ir/MinDist.h"
#include "partition/MultilevelGraph.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <new>
#include <stdexcept>

using namespace hcvliw;

namespace {

/// Greedy exact-refinement passes per level.
constexpr unsigned MaxRefinePasses = 2;
/// Levels with more macros than this skip the exact greedy refinement
/// (every move costs a pseudo-schedule) and run boundary FM passes on
/// the surrogate objective instead.
constexpr unsigned MaxRefineMacros = 48;
/// Boundary FM passes per level (levels above MaxRefineMacros).
constexpr unsigned MaxFMPasses = 4;

/// The objective of a partition that passed every pseudo-schedule
/// check, from its copy count, per-cluster activity and iteration
/// length; \p MemOps is the loop's memory-operation count. The ED2
/// objective reads Ctx.Energy and Ctx.Scaling, which the public entry
/// points check (requireEnergyModel). scorePartition feeds it the
/// pseudo-schedule; PartitionBound feeds it the same counts, with the
/// iteration length taken as 0 for its bound (every term is
/// non-decreasing in ItLengthNs).
double feasibleScore(const PartitionContext &Ctx,
                     const PartitionerOptions &Opts, unsigned MemOps,
                     unsigned Comms, const std::vector<double> &WInsPerCluster,
                     double ItLengthNs) {
  double N = static_cast<double>(Ctx.TripCount);
  double TexecNs = (N - 1) * Ctx.Plan->ITNs.toDouble() + ItLengthNs;

  if (Opts.ED2Objective) {
    std::vector<double> LocalW;
    std::vector<double> &WIns = Ctx.Scratch ? Ctx.Scratch->WInsTmp : LocalW;
    WIns.assign(WInsPerCluster.begin(), WInsPerCluster.end());
    for (double &W : WIns)
      W *= N;
    double E = Ctx.Energy->heteroEnergy(WIns, Comms * N,
                                        static_cast<double>(MemOps) * N,
                                        TexecNs, *Ctx.Scaling);
    return computeED2(E, TexecNs);
  }

  // Homogeneous baseline objective [2][3]: fewest communications, then
  // balance, then shorter iterations. Folded lexicographically.
  double MaxLoad = 0;
  for (unsigned C = 0; C < Ctx.M->numClusters(); ++C) {
    double Cap = static_cast<double>(Ctx.Plan->Clusters[C].II);
    double Load = WInsPerCluster[C] / std::max(1.0, Cap);
    MaxLoad = std::max(MaxLoad, Load);
  }
  return Comms * 1e6 + MaxLoad * 1e3 + ItLengthNs;
}

/// The ED2 objective scores with the energy model and its scaling; a
/// context that lacks either cannot be scored under it.
void requireEnergyModel(const PartitionContext &Ctx,
                        const PartitionerOptions &Opts) {
  if (Opts.ED2Objective && !(Ctx.Energy && Ctx.Scaling))
    throw std::invalid_argument(
        "partition: the ED2 objective needs an energy model and scaling");
}

/// Memory operations of \p L (the energy model's cache accesses).
unsigned countMemoryOps(const Loop &L) {
  unsigned Mem = 0;
  for (const auto &O : L.Ops)
    Mem += isMemoryOpcode(O.Op);
  return Mem;
}

/// scorePartition with the memory-operation count already taken.
double scoreEstimate(const PartitionContext &Ctx,
                     const PartitionerOptions &Opts, unsigned MemOps,
                     const Partition &P) {
  if (Ctx.Stats)
    ++Ctx.Stats->ScoreEvals;
  // With a scratch, both the estimate's working set and its result
  // vectors are reused — the scoring loop is allocation-free.
  PseudoSchedule Local;
  PseudoSchedule &PS = Ctx.Scratch ? Ctx.Scratch->PS.Result : Local;
  estimatePseudoScheduleInto(PS, *Ctx.L, *Ctx.G, *Ctx.M, *Ctx.Plan, P,
                             Ctx.Scratch ? &Ctx.Scratch->PS : nullptr);
  if (!PS.Feasible) {
    // Graded penalty: any feasible partition beats every infeasible
    // one, but among infeasible partitions smaller violations win, so
    // greedy refinement can walk out of an infeasible region.
    return InfeasiblePartitionScore * (1.0 + PS.Overflow);
  }
  return feasibleScore(Ctx, Opts, MemOps, PS.Comms, PS.WInsPerCluster,
                       PS.ItLengthNs.toDouble());
}

} // namespace

double hcvliw::scorePartition(const PartitionContext &Ctx,
                              const PartitionerOptions &Opts,
                              const Partition &P) {
  requireEnergyModel(Ctx, Opts);
  return scoreEstimate(Ctx, Opts, countMemoryOps(*Ctx.L), P);
}

void PartitionBound::reset(const PartitionContext &TheCtx,
                           const Partition &P) {
  Ctx = &TheCtx;
  const Loop &L = *Ctx->L;
  const DDG &G = *Ctx->G;
  const MachineDescription &M = *Ctx->M;
  const unsigned N = G.size();
  const unsigned NC = M.numClusters();

  ClusterOf.assign(P.ClusterOf.begin(), P.ClusterOf.end());
  slotCapacityInto(Cap, M, *Ctx->Plan);
  Tally.clear(NC);
  MemOps = 0;
  M.Isa.nodeLatenciesInto(NodeLat, L);
  Kind.resize(N);
  DefLat.resize(N);
  Energy.resize(N);
  for (unsigned I = 0; I < N; ++I) {
    Opcode Op = L.Ops[I].Op;
    unsigned C = ClusterOf[I];
    Kind[I] = static_cast<uint8_t>(fuKindOf(Op));
    DefLat[I] = L.Ops[I].definesValue()
                    ? static_cast<int64_t>(M.Isa.latency(Op))
                    : int64_t(-1);
    Energy[I] = M.Isa.energy(Op);
    MemOps += isMemoryOpcode(Op);
    ++Tally.Counts[C * NumFUKinds + Kind[I]];
    if (DefLat[I] >= 0) {
      ++Tally.Defs[C];
      Tally.DefLatency[C] += DefLat[I];
    }
  }

  // Value in-edges as CSR (counting sort by destination; the start
  // array doubles as the fill cursor and is shifted back afterwards).
  ValStart.assign(N + 1, 0);
  for (const auto &E : G.edges())
    if (isValueCarrying(E.Kind))
      ++ValStart[E.Dst + 1];
  for (unsigned I = 0; I < N; ++I)
    ValStart[I + 1] += ValStart[I];
  ValSrc.resize(ValStart[N]);
  for (const auto &E : G.edges())
    if (isValueCarrying(E.Kind))
      ValSrc[ValStart[E.Dst]++] = E.Src;
  for (unsigned I = N; I > 0; --I)
    ValStart[I] = ValStart[I - 1];
  ValStart[0] = 0;

  Uses.assign(static_cast<size_t>(N) * NC, 0);
  for (unsigned Dst = 0; Dst < N; ++Dst)
    for (unsigned I = ValStart[Dst]; I < ValStart[Dst + 1]; ++I)
      ++Uses[static_cast<size_t>(ValSrc[I]) * NC + ClusterOf[Dst]];
  for (unsigned Src = 0; Src < N; ++Src)
    countCopies(Src, +1);

  TouchStamp.assign(N, 0);
  Stamp = 0;
}

void PartitionBound::countCopies(unsigned N, int Sign) {
  const unsigned NC = static_cast<unsigned>(Tally.CopiesIn.size());
  const unsigned *U = &Uses[static_cast<size_t>(N) * NC];
  // One copy per cluster, other than the producer's own, that holds a
  // consumer of the value (PartitionedGraph's copy rule).
  for (unsigned C = 0; C < NC; ++C) {
    if (C == ClusterOf[N] || U[C] == 0)
      continue;
    if (Sign > 0) {
      ++Tally.CopiesIn[C];
      ++Tally.Comms;
    } else {
      --Tally.CopiesIn[C];
      --Tally.Comms;
    }
  }
}

void PartitionBound::move(const unsigned *Nodes, size_t Count, unsigned To) {
  const unsigned NC = static_cast<unsigned>(Tally.CopiesIn.size());
  // The copies that can change are those of the moved nodes (their
  // cluster changes) and of their value producers (a consumer changes
  // cluster): retract them, move, and count them again.
  ++Stamp;
  Touched.clear();
  auto touch = [&](unsigned N) {
    if (TouchStamp[N] != Stamp) {
      TouchStamp[N] = Stamp;
      Touched.push_back(N);
    }
  };
  for (size_t I = 0; I < Count; ++I) {
    touch(Nodes[I]);
    for (unsigned E = ValStart[Nodes[I]]; E < ValStart[Nodes[I] + 1]; ++E)
      touch(ValSrc[E]);
  }
  for (unsigned N : Touched)
    countCopies(N, -1);

  for (size_t I = 0; I < Count; ++I) {
    unsigned N = Nodes[I];
    unsigned From = ClusterOf[N];
    if (From == To)
      continue;
    for (unsigned E = ValStart[N]; E < ValStart[N + 1]; ++E) {
      --Uses[static_cast<size_t>(ValSrc[E]) * NC + From];
      ++Uses[static_cast<size_t>(ValSrc[E]) * NC + To];
    }
    --Tally.Counts[From * NumFUKinds + Kind[N]];
    ++Tally.Counts[To * NumFUKinds + Kind[N]];
    if (DefLat[N] >= 0) {
      --Tally.Defs[From];
      ++Tally.Defs[To];
      Tally.DefLatency[From] -= DefLat[N];
      Tally.DefLatency[To] += DefLat[N];
    }
    ClusterOf[N] = To;
  }

  for (unsigned N : Touched)
    countCopies(N, +1);
}

double PartitionBound::grade(const PartitionerOptions &Opts,
                             bool RecurrenceInfeasible, double ItLengthNs) {
  double Overflow = 0;
  if (gradePartitionBudgets(*Ctx->M, *Ctx->Plan, Cap, Tally,
                            RecurrenceInfeasible, Overflow))
    return InfeasiblePartitionScore * (1.0 + Overflow);
  // Activity in node order, the estimator's summation order, so the
  // doubles match bit for bit.
  WIns.assign(Tally.CopiesIn.size(), 0.0);
  for (size_t I = 0; I < ClusterOf.size(); ++I)
    WIns[ClusterOf[I]] += Energy[I];
  return feasibleScore(*Ctx, Opts, MemOps, Tally.Comms, WIns, ItLengthNs);
}

double PartitionBound::bound(const PartitionerOptions &Opts) {
  return grade(Opts, /*RecurrenceInfeasible=*/false, /*ItLengthNs=*/0.0);
}

double PartitionBound::score(const PartitionerOptions &Opts) {
  if (Ctx->Stats)
    ++Ctx->Stats->ScoreEvals;
  // The kept tally is the one the estimator would count (one copy
  // rule), so only the timing kernel runs.
  Rational ItLengthNs(0);
  bool Feasible = pseudoScheduleAsap(Pseudo, *Ctx->G, *Ctx->M, *Ctx->Plan,
                                     NodeLat, ClusterOf, ItLengthNs);
  return grade(Opts, !Feasible, ItLengthNs.toDouble());
}

double PartitionBound::capacityBound(const unsigned *Need, unsigned From,
                                     unsigned To) const {
  // The capacity terms of every cluster after the move (only From's and
  // To's counts change), in gradePartitionBudgets' (cluster, kind)
  // order: a prefix of the bound's sum of non-negative overflow terms,
  // so (round-to-nearest being monotone) it never exceeds the bound's.
  const unsigned NC = static_cast<unsigned>(Tally.CopiesIn.size());
  double Overflow = 0;
  bool Over = false;
  for (unsigned C = 0; C < NC; ++C)
    for (unsigned K = 0; K < NumFUKinds; ++K) {
      if (static_cast<FUKind>(K) == FUKind::Bus)
        continue;
      unsigned Cnt = Tally.Counts[C * NumFUKinds + K];
      if (C == From)
        Cnt -= Need[K];
      else if (C == To)
        Cnt += Need[K];
      double Term = capacityOverflow(Cnt, Cap[C * NumFUKinds + K]);
      if (Term > 0) {
        Overflow += Term;
        Over = true;
      }
    }
  return Over ? InfeasiblePartitionScore * (1.0 + Overflow) : 0.0;
}

namespace {

/// Expands a macro-level assignment into the node-level partition \p P
/// (in place; the refinement loop reuses two partition buffers).
void expandInto(Partition &P, const CoarseLevel &Lvl,
                const std::vector<unsigned> &ClusterOfMacro,
                unsigned NumNodes) {
  P.ClusterOf.resize(NumNodes);
  for (unsigned N = 0; N < NumNodes; ++N)
    P.ClusterOf[N] = ClusterOfMacro[Lvl.MacroOf[N]];
}

/// Lists every macro's member nodes of \p Lvl as CSR (counting sort by
/// macro, so members stay ascending): the members of macro M are
/// Members[Start[M] .. Start[M+1]).
void buildMemberLists(const CoarseLevel &Lvl, unsigned NumNodes,
                      std::vector<unsigned> &Start,
                      std::vector<unsigned> &Members) {
  unsigned LN = Lvl.NumMacros;
  Start.assign(LN + 1, 0);
  for (unsigned N = 0; N < NumNodes; ++N)
    ++Start[Lvl.MacroOf[N] + 1];
  for (unsigned Mac = 0; Mac < LN; ++Mac)
    Start[Mac + 1] += Start[Mac];
  Members.resize(NumNodes);
  for (unsigned N = 0; N < NumNodes; ++N)
    Members[Start[Lvl.MacroOf[N]]++] = N;
  for (unsigned Mac = LN; Mac > 0; --Mac)
    Start[Mac] = Start[Mac - 1];
  Start[0] = 0;
}

/// Pre-places critical recurrences; returns initial groups + pins for
/// coarsening (into the caller's reusable key buffers), or false when
/// some recurrence fits nowhere.
bool prePlaceRecurrences(const PartitionContext &Ctx, bool EnablePinning,
                         CoarsenMemoKey &Key, std::vector<int64_t> &Free) {
  const MachineDescription &M = *Ctx.M;
  const MachinePlan &Plan = *Ctx.Plan;
  unsigned NC = M.numClusters();

  // Remaining per-cluster, per-kind slot capacity (flat [C][K]).
  slotCapacityInto(Free, M, Plan);

  int64_t MinII = Plan.Clusters[0].II;
  for (const auto &D : Plan.Clusters)
    MinII = std::min(MinII, D.II);

  size_t NG = 0;
  auto appendGroup = [&](const std::vector<unsigned> &Nodes, int Pin) {
    if (NG < Key.Groups.size())
      Key.Groups[NG].assign(Nodes.begin(), Nodes.end());
    else
      Key.Groups.push_back(Nodes);
    if (NG < Key.Pins.size())
      Key.Pins[NG] = Pin;
    else
      Key.Pins.push_back(Pin);
    ++NG;
  };

  // Recurrences arrive sorted by descending recMII (most critical first).
  for (const Recurrence &R : Ctx.Recs->Recurrences) {
    unsigned Need[NumFUKinds] = {0};
    for (unsigned N : R.Nodes)
      ++Need[static_cast<unsigned>(fuKindOf(Ctx.L->Ops[N].Op))];

    bool MustPin = EnablePinning && R.RecMII > MinII;
    if (!MustPin) {
      appendGroup(R.Nodes, -1);
      continue;
    }

    // Slowest feasible cluster: maximum running period whose II admits
    // the recurrence and whose capacity can still hold its operations.
    int Best = -1;
    for (unsigned C = 0; C < NC; ++C) {
      if (Plan.Clusters[C].II < R.RecMII)
        continue;
      bool Fits = true;
      for (unsigned K = 0; K < NumFUKinds; ++K)
        if (static_cast<int64_t>(Need[K]) > Free[C * NumFUKinds + K])
          Fits = false;
      if (!Fits)
        continue;
      if (Best < 0 ||
          Plan.Clusters[C].PeriodNs > Plan.Clusters[Best].PeriodNs)
        Best = static_cast<int>(C);
    }
    if (Best < 0)
      return false; // grow the IT
    for (unsigned K = 0; K < NumFUKinds; ++K)
      Free[static_cast<unsigned>(Best) * NumFUKinds + K] -= Need[K];
    appendGroup(R.Nodes, Best);
  }
  Key.Groups.resize(NG);
  Key.Pins.resize(NG);
  return true;
}

/// Boundary FM-style refinement of one level on the surrogate objective
///
///   1e6 * (total per-cluster per-kind capacity overload)
///   + (DDG edges cut between clusters)
///   + 1e-3 * (sum of squared per-cluster energy weights)
///
/// evaluated incrementally: each pass picks the highest-gain unlocked
/// boundary macro from a max-heap, applies the move when its recomputed
/// gain is strictly positive, locks the macro, and refreshes its
/// neighbors, until no improving move remains. Every applied move
/// strictly decreases the surrogate, so the passes terminate; the
/// caller only keeps the result when the *exact* objective did not get
/// worse. Deterministic: ties break toward the lowest macro id and
/// lowest cluster id.
uint64_t refineLevelFM(const PartitionContext &Ctx, PartitionScratch &S,
                       const CoarseLevel &Lvl, std::vector<unsigned> &Assign,
                       PartitionStats *Stats) {
  const MachineDescription &M = *Ctx.M;
  const MachinePlan &Plan = *Ctx.Plan;
  const unsigned NC = M.numClusters();
  const unsigned LN = Lvl.NumMacros;

  slotCapacityInto(S.FMCap, M, Plan);
  S.FMLoad.assign(static_cast<size_t>(NC) * NumFUKinds, 0);
  S.FMWeight.assign(NC, 0.0);
  for (unsigned Mac = 0; Mac < LN; ++Mac) {
    unsigned C = Assign[Mac];
    for (unsigned K = 0; K < NumFUKinds; ++K)
      S.FMLoad[C * NumFUKinds + K] += Lvl.fuCount(Mac, K);
    S.FMWeight[C] += Lvl.Weight[Mac];
  }
  S.FMCutTo.resize(NC);
  S.FMLocked.assign(LN, 0);

  // Overload reduction of moving Mac from Home to C (positive = less).
  auto capGain = [&](unsigned Mac, unsigned Home, unsigned C) {
    int64_t D = 0;
    for (unsigned K = 0; K < NumFUKinds; ++K) {
      int64_t W = Lvl.fuCount(Mac, K);
      if (!W)
        continue;
      int64_t LH = S.FMLoad[Home * NumFUKinds + K];
      int64_t CH = S.FMCap[Home * NumFUKinds + K];
      int64_t LC = S.FMLoad[C * NumFUKinds + K];
      int64_t CC = S.FMCap[C * NumFUKinds + K];
      D += std::max<int64_t>(0, LH - CH) - std::max<int64_t>(0, LH - W - CH);
      D -= std::max<int64_t>(0, LC + W - CC) - std::max<int64_t>(0, LC - CC);
    }
    return D;
  };

  auto bestMove = [&](unsigned Mac, double &BestGain, unsigned &BestC) {
    unsigned Home = Assign[Mac];
    // Cut mass of Mac toward every cluster.
    int64_t *Cut = S.FMCutTo.data();
    std::fill(Cut, Cut + NC, int64_t(0));
    for (unsigned I = Lvl.AdjStart[Mac]; I < Lvl.AdjStart[Mac + 1]; ++I)
      Cut[Assign[Lvl.AdjMacro[I]]] += Lvl.AdjWeight[I];
    double WMac = Lvl.Weight[Mac];
    double WH = S.FMWeight[Home];
    BestGain = -std::numeric_limits<double>::infinity();
    BestC = Home;
    for (unsigned C = 0; C < NC; ++C) {
      if (C == Home)
        continue;
      double WC = S.FMWeight[C];
      double DW2 = (WH - WMac) * (WH - WMac) + (WC + WMac) * (WC + WMac) -
                   WH * WH - WC * WC;
      double G = 1e6 * static_cast<double>(capGain(Mac, Home, C)) +
                 static_cast<double>(Cut[C] - Cut[Home]) - 1e-3 * DW2;
      if (G > BestGain) { // strict: ties keep the lowest cluster id
        BestGain = G;
        BestC = C;
      }
    }
  };

  auto apply = [&](unsigned Mac, unsigned C) {
    unsigned Home = Assign[Mac];
    for (unsigned K = 0; K < NumFUKinds; ++K) {
      int64_t W = Lvl.fuCount(Mac, K);
      S.FMLoad[Home * NumFUKinds + K] -= W;
      S.FMLoad[C * NumFUKinds + K] += W;
    }
    S.FMWeight[Home] -= Lvl.Weight[Mac];
    S.FMWeight[C] += Lvl.Weight[Mac];
    Assign[Mac] = C;
  };

  auto HeapLess = [](const PartitionScratch::FMHeapEntry &A,
                     const PartitionScratch::FMHeapEntry &B) {
    if (A.Gain != B.Gain)
      return A.Gain < B.Gain; // max-heap on gain
    return A.Mac > B.Mac;     // ties: lowest macro id on top
  };

  uint64_t Moves = 0;
  unsigned PassesRun = 0;
  for (unsigned Pass = 0; Pass < MaxFMPasses; ++Pass) {
    std::fill(S.FMLocked.begin(), S.FMLocked.end(), uint8_t(0));
    uint64_t MovesThisPass = 0;
    while (true) {
      // Fill: every unlocked, unpinned macro with a positive best gain.
      S.FMHeap.clear();
      for (unsigned Mac = 0; Mac < LN; ++Mac) {
        if (S.FMLocked[Mac] || Lvl.Pin[Mac] >= 0)
          continue;
        double G;
        unsigned C;
        bestMove(Mac, G, C);
        if (G > 0)
          S.FMHeap.push_back({G, Mac});
      }
      if (S.FMHeap.empty())
        break;
      std::make_heap(S.FMHeap.begin(), S.FMHeap.end(), HeapLess);
      // Drain: lazy invalidation — a popped entry whose gain is stale
      // is re-inserted at its current value instead of applied.
      while (!S.FMHeap.empty()) {
        std::pop_heap(S.FMHeap.begin(), S.FMHeap.end(), HeapLess);
        PartitionScratch::FMHeapEntry E = S.FMHeap.back();
        S.FMHeap.pop_back();
        if (S.FMLocked[E.Mac])
          continue;
        double G;
        unsigned C;
        bestMove(E.Mac, G, C);
        if (G != E.Gain) {
          if (G > 0) {
            S.FMHeap.push_back({G, E.Mac});
            std::push_heap(S.FMHeap.begin(), S.FMHeap.end(), HeapLess);
          }
          continue;
        }
        if (G <= 0)
          continue;
        apply(E.Mac, C);
        S.FMLocked[E.Mac] = 1;
        ++MovesThisPass;
        for (unsigned I = Lvl.AdjStart[E.Mac]; I < Lvl.AdjStart[E.Mac + 1];
             ++I) {
          unsigned Nb = Lvl.AdjMacro[I];
          if (S.FMLocked[Nb] || Lvl.Pin[Nb] >= 0)
            continue;
          double NG;
          unsigned NbC;
          bestMove(Nb, NG, NbC);
          if (NG > 0) {
            S.FMHeap.push_back({NG, Nb});
            std::push_heap(S.FMHeap.begin(), S.FMHeap.end(), HeapLess);
          }
        }
      }
    }
    ++PassesRun;
    Moves += MovesThisPass;
    if (MovesThisPass == 0)
      break;
  }
  if (Stats) {
    Stats->FMPasses += PassesRun;
    Stats->FMMoves += Moves;
  }
  return Moves;
}

/// The initial-assignment policy of the coarsest level and of the flat
/// rung: units in \p Order, each pinned unit (\p Pin >= 0) at its pin,
/// every other unit onto the cluster with the most remaining slack
/// among those that fit it, or with the least overflow when none does
/// (ties: lowest cluster id). \p Need is the per-unit demand, flat
/// [unit][kind]; \p Free is slot capacity, flat [cluster][kind], and
/// is consumed. Writes every unit's cluster to \p ClusterOfUnit.
void bestFitAssign(const std::vector<unsigned> &Order,
                   const std::vector<unsigned> &Need,
                   const std::vector<int> &Pin, unsigned NC,
                   std::vector<int64_t> &Free,
                   std::vector<unsigned> &ClusterOfUnit) {
  ClusterOfUnit.assign(Pin.size(), 0);
  auto place = [&](unsigned U, unsigned C) {
    ClusterOfUnit[U] = C;
    for (unsigned K = 0; K < NumFUKinds; ++K)
      Free[C * NumFUKinds + K] -= Need[U * NumFUKinds + K];
  };
  for (unsigned U : Order) {
    if (Pin[U] >= 0) {
      place(U, static_cast<unsigned>(Pin[U]));
      continue;
    }
    int BestFit = -1;
    int64_t BestFitSlack = 0;
    int BestOverflow = -1;
    int64_t LeastOverflow = 0;
    for (unsigned C = 0; C < NC; ++C) {
      bool Fits = true;
      int64_t Slk = 0, Overflow = 0;
      for (unsigned K = 0; K < NumFUKinds; ++K) {
        int64_t Rem = Free[C * NumFUKinds + K] -
                      static_cast<int64_t>(Need[U * NumFUKinds + K]);
        if (Rem < 0) {
          Fits = false;
          Overflow -= Rem;
        } else {
          Slk += Rem;
        }
      }
      if (Fits && (BestFit < 0 || Slk > BestFitSlack)) {
        BestFit = static_cast<int>(C);
        BestFitSlack = Slk;
      }
      if (!Fits && (BestOverflow < 0 || Overflow < LeastOverflow)) {
        BestOverflow = static_cast<int>(C);
        LeastOverflow = Overflow;
      }
    }
    place(U, BestFit >= 0 ? static_cast<unsigned>(BestFit)
                          : static_cast<unsigned>(BestOverflow));
  }
}

/// The graceful-degradation rung behind the multilevel path: a flat,
/// coarsening-free partition built directly from the pre-placement
/// groups (recurrences stay whole) plus singleton nodes, assigned by
/// the same pins-first / weight-descending capacity best-fit as the
/// coarsest-level initial assignment, with no refinement. Runs when an
/// armed injector degrades "part.coarsen" or when the multilevel path
/// itself runs out of memory. Allocation-light and a pure function of
/// (loop, plan, options), so degraded runs stay deterministic; the
/// usual feasibility gate still applies, so an infeasible flat
/// partition reports std::nullopt and the IT sweep grows the IT
/// normally.
std::optional<Partition> flatPartition(const PartitionContext &Ctx,
                                       const PartitionerOptions &Opts,
                                       unsigned MemOps) {
  const MachineDescription &M = *Ctx.M;
  const MachinePlan &Plan = *Ctx.Plan;
  unsigned NC = M.numClusters();
  unsigned NumNodes = Ctx.G->size();
  if (Ctx.Stats)
    ++Ctx.Stats->FlatFallbacks;

  // Recompute the pre-placement into local buffers (pure function):
  // the scratch copy may be mid-mutation when the multilevel path
  // threw, and this rung must not depend on partial state.
  CoarsenMemoKey Key;
  std::vector<int64_t> Free;
  if (!prePlaceRecurrences(Ctx, Opts.PrePlaceRecurrences, Key, Free))
    return std::nullopt;

  // Units: one per pre-placement group (recurrences are never split),
  // plus a singleton unit per node outside every group.
  std::vector<std::vector<unsigned>> Units = Key.Groups;
  std::vector<int> Pin = Key.Pins;
  std::vector<uint8_t> Grouped(NumNodes, 0);
  for (const auto &Gp : Key.Groups)
    for (unsigned N : Gp)
      Grouped[N] = 1;
  for (unsigned N = 0; N < NumNodes; ++N)
    if (!Grouped[N]) {
      Units.push_back({N});
      Pin.push_back(-1);
    }

  // Per-unit FU demand (flat [unit][kind]).
  std::vector<unsigned> Need(Units.size() * NumFUKinds, 0);
  for (size_t U = 0; U < Units.size(); ++U)
    for (unsigned N : Units[U])
      ++Need[U * NumFUKinds +
             static_cast<unsigned>(fuKindOf(Ctx.L->Ops[N].Op))];

  // Fresh capacity, then the coarse initial-assignment policy, units
  // largest first.
  std::vector<unsigned> Order(Units.size());
  for (unsigned I = 0; I < Units.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
    if (Units[A].size() != Units[B].size())
      return Units[A].size() > Units[B].size();
    return A < B;
  });
  slotCapacityInto(Free, M, Plan);
  std::vector<unsigned> ClusterOfUnit;
  bestFitAssign(Order, Need, Pin, NC, Free, ClusterOfUnit);

  Partition P;
  P.ClusterOf.assign(NumNodes, 0);
  for (size_t U = 0; U < Units.size(); ++U)
    for (unsigned N : Units[U])
      P.ClusterOf[N] = ClusterOfUnit[U];

  double Score = scoreEstimate(Ctx, Opts, MemOps, P);
  if (Ctx.Stats) {
    Ctx.Stats->InitialScore = Score;
    Ctx.Stats->FinalScore = Score;
  }
  if (Score >= InfeasiblePartitionScore)
    return std::nullopt; // still infeasible: grow the IT normally
  return P;
}

/// The normal multilevel path (file header steps 2-4); \p S holds the
/// pre-placement result in S.Key / S.Free, and \p MemOps is the loop's
/// memory-operation count.
std::optional<Partition> multilevelPartition(const PartitionContext &Ctx,
                                             const PartitionerOptions &Opts,
                                             PartitionScratch &S,
                                             unsigned MemOps) {
  const MachineDescription &M = *Ctx.M;
  unsigned NC = M.numClusters();
  unsigned NumNodes = Ctx.G->size();
  // Coarsest target: one macro per cluster. It keeps each coarsest
  // macro a connected low-slack blob, which the ED2-quality pins of
  // PipelineTest show beats a finer coarsest level: the weight-sorted
  // initial best-fit ignores connectivity, and with many macros it
  // scatters connected work across clusters into a local optimum the
  // refinement cannot escape.
  S.Key.TargetMacros = NC;

  // Per-edge slack for the coarsening order, on reference latencies at
  // the recurrence-safe II; IT-independent, so drivers that retry IT
  // steps pass one precomputed vector through the context.
  std::vector<int64_t> OwnSlack;
  const std::vector<int64_t> *Slack = Ctx.EdgeSlack;
  if (!Slack) {
    LongestPathScratch Paths;
    computeEdgeSlack(OwnSlack, *Ctx.G, M.Isa.nodeLatencies(*Ctx.L),
                     std::max<int64_t>(Ctx.Recs->RecMII, 1), Paths);
    Slack = &OwnSlack;
  }

  // Coarsening: reuse the previous attempt's level stack when the
  // CoarsenMemoKey matches exactly (hash first, then the full
  // comparison) — the other build inputs (loop, DDG, machine, slack)
  // are fixed for the whole Figure 5 run, so the key match makes the
  // reuse exact.
  size_t KeyHash = CoarsenMemoKeyHash{}(S.Key);
  bool ReuseML =
      S.MLValid && KeyHash == S.MemoHashVal && S.Key == S.MemoKey;
  if (!ReuseML) {
    S.ML.build(*Ctx.L, *Ctx.G, M, S.Key.Groups, S.Key.Pins, *Slack,
               S.Key.TargetMacros, Ctx.Trace);
    if (Ctx.Stats) {
      ++Ctx.Stats->CoarsenBuilds;
      Ctx.Stats->Levels += S.ML.buildStats().Levels;
      Ctx.Stats->MatchedPairs += S.ML.buildStats().MatchedPairs;
    }
    std::swap(S.MemoKey, S.Key); // keep both buffers' capacity alive
    S.MemoHashVal = KeyHash;
    S.MLValid = true;
  } else if (Ctx.Stats) {
    ++Ctx.Stats->CoarsenMemoHits;
  }
  const MultilevelGraph &ML = S.ML;

  // Initial assignment of the coarsest macros: pins first, then largest
  // macros onto the cluster with the most remaining per-kind slot
  // capacity (capacity-aware best fit keeps the starting point feasible
  // whenever the coarse macros allow it).
  const CoarseLevel &Coarsest = ML.coarsest();
  unsigned NumMac = Coarsest.NumMacros;
  std::vector<unsigned> &ByWeight = S.ByWeight;
  ByWeight.resize(NumMac);
  for (unsigned I = 0; I < NumMac; ++I)
    ByWeight[I] = I;
  std::sort(ByWeight.begin(), ByWeight.end(), [&](unsigned A, unsigned B) {
    if (Coarsest.Weight[A] != Coarsest.Weight[B])
      return Coarsest.Weight[A] > Coarsest.Weight[B];
    return A < B;
  });
  slotCapacityInto(S.Free, M, *Ctx.Plan);
  std::vector<unsigned> &ClusterOfMacro = S.ClusterOfMacro;
  bestFitAssign(ByWeight, Coarsest.FUCounts, Coarsest.Pin, NC, S.Free,
                ClusterOfMacro);

  // Refinement, coarsest to finest. Small levels get the exact greedy
  // (pseudo-schedule-scored) moves; big levels get boundary FM passes
  // whose result is kept only when the exact score did not get worse —
  // so CurrentScore is non-increasing across the whole uncoarsening.
  Partition &Current = S.Current;
  Partition &Cand = S.Cand;
  expandInto(Current, Coarsest, ClusterOfMacro, NumNodes);
  double CurrentScore = scoreEstimate(Ctx, Opts, MemOps, Current);
  if (Ctx.Stats)
    Ctx.Stats->InitialScore = CurrentScore;

  for (int LvlIx = static_cast<int>(ML.numLevels()) - 1; LvlIx >= 0;
       --LvlIx) {
    const CoarseLevel &Lvl = ML.level(static_cast<unsigned>(LvlIx));
    unsigned LN = Lvl.NumMacros;
    char LvlBuf[16];
    std::snprintf(LvlBuf, sizeof LvlBuf, "%u", LvlIx);
    obs::Span RefineSp(Ctx.Trace, "part.refine:", LvlBuf);

    // Project the current node-level partition onto this level's macros
    // (members of one macro share a cluster by construction).
    std::vector<unsigned> &Assign = S.Assign;
    Assign.resize(LN);
    for (unsigned Mac = 0; Mac < LN; ++Mac)
      Assign[Mac] = Current.ClusterOf[Lvl.Rep[Mac]];

    if (LN > MaxRefineMacros) {
      // Boundary FM on the surrogate objective; guarded acceptance.
      uint64_t FMMoves = refineLevelFM(Ctx, S, Lvl, Assign, Ctx.Stats);
      if (RefineSp.active()) {
        RefineSp.arg("macros", LN);
        RefineSp.arg("fm_moves", static_cast<int64_t>(FMMoves));
      }
      if (FMMoves == 0)
        continue;
      expandInto(Cand, Lvl, Assign, NumNodes);
      double Sc = scoreEstimate(Ctx, Opts, MemOps, Cand);
      if (Sc < CurrentScore) {
        CurrentScore = Sc;
        std::swap(Current, Cand);
      }
      continue;
    }

    // Unchanged-candidate skip (exact): a candidate move (Mac -> C)
    // re-scores identically unless some move was accepted since its last
    // evaluation at this level — the assignment vector, and hence the
    // expanded partition and its pure-function score, are unchanged, so
    // the greedy rejection repeats. Stamp each eval with the level's
    // accepted-move count and skip on a stamp match.
    std::vector<uint64_t> &EvalStamp = S.EvalStamp;
    EvalStamp.assign(static_cast<size_t>(LN) * NC, ~uint64_t(0));
    uint64_t Accepts = 0;

    // Bound-first scoring (exact; see PartitionBound): a candidate whose
    // lower bound is not below CurrentScore would be rejected by its
    // full score too, so it is rejected without the pseudo-schedule.
    // The capacity terms after the move, read from the kept tally and
    // the level's per-macro op counts, already bound the bound from
    // below, so most over-capacity candidates are rejected before any
    // node moves. The bound tracks Assign through single-macro moves
    // over the level's member lists and scores the survivors from its
    // own state.
    buildMemberLists(Lvl, NumNodes, S.MemberStart, S.Members);
    PartitionBound &Bound = S.Bound;
    Bound.reset(Ctx, Current);
    auto moveMacro = [&](unsigned Mac, unsigned To) {
      Bound.move(S.Members.data() + S.MemberStart[Mac],
                 S.MemberStart[Mac + 1] - S.MemberStart[Mac], To);
    };
    uint64_t CapacityRejects = 0;

    for (unsigned Pass = 0; Pass < MaxRefinePasses; ++Pass) {
      bool Improved = false;
      if (Ctx.Stats)
        ++Ctx.Stats->RefinePasses;
      for (unsigned Mac = 0; Mac < LN; ++Mac) {
        if (Lvl.Pin[Mac] >= 0)
          continue;
        unsigned Home = Assign[Mac];
        for (unsigned C = 0; C < NC; ++C) {
          if (C == Home)
            continue;
          if (EvalStamp[Mac * NC + C] == Accepts)
            continue; // unchanged candidate: same score, same rejection
          EvalStamp[Mac * NC + C] = Accepts;
          if (Bound.capacityBound(&Lvl.FUCounts[Mac * NumFUKinds], Home, C) >=
              CurrentScore) {
            ++CapacityRejects;
            continue;
          }
          Assign[Mac] = C;
          moveMacro(Mac, C);
          if (Bound.bound(Opts) >= CurrentScore) {
            if (Ctx.Stats)
              ++Ctx.Stats->BoundRejects;
            moveMacro(Mac, Home);
            Assign[Mac] = Home;
            continue;
          }
          double Sc = Bound.score(Opts);
          if (Sc < CurrentScore) {
            CurrentScore = Sc;
            Home = C;
            Improved = true;
            ++Accepts;
            if (Ctx.Stats)
              ++Ctx.Stats->RefineMoves;
          } else {
            moveMacro(Mac, Home);
            Assign[Mac] = Home;
          }
        }
        Assign[Mac] = Home;
      }
      if (!Improved)
        break;
    }
    Current.ClusterOf.assign(Bound.clusterOf().begin(),
                             Bound.clusterOf().end());
    if (Ctx.Stats) {
      Ctx.Stats->BoundRejects += CapacityRejects;
      Ctx.Stats->CapacityRejects += CapacityRejects;
    }
    if (RefineSp.active()) {
      RefineSp.arg("macros", LN);
      RefineSp.arg("accepts", static_cast<int64_t>(Accepts));
      RefineSp.arg("capacity_rejects", static_cast<int64_t>(CapacityRejects));
    }
  }

  if (Ctx.Stats)
    Ctx.Stats->FinalScore = CurrentScore;
  if (CurrentScore >= InfeasiblePartitionScore)
    return std::nullopt; // nothing feasible found at this IT
  return Current;
}

} // namespace

std::optional<Partition>
hcvliw::partitionLoop(const PartitionContext &Ctx,
                      const PartitionerOptions &Opts) {
  unsigned NC = Ctx.M->numClusters();
  unsigned NumNodes = Ctx.G->size();

  // One cluster: the trivial assignment, which nothing scores.
  if (NC == 1)
    return Partition::allInCluster(NumNodes, 0);
  requireEnergyModel(Ctx, Opts);

  PartitionScratch Local;
  PartitionScratch &S = Ctx.Scratch ? *Ctx.Scratch : Local;
  if (Ctx.Stats)
    ++Ctx.Stats->Runs;

  if (!prePlaceRecurrences(Ctx, Opts.PrePlaceRecurrences, S.Key, S.Free))
    return std::nullopt;

  const unsigned MemOps = countMemoryOps(*Ctx.L);
  // Graceful degradation (the "flat partition" rung): forced by an
  // armed injector, or taken for real when coarsening cannot allocate.
  // Partition quality drops; determinism and the feasibility gate do
  // not.
  if (HCVLIW_FAULT_DEGRADE(Ctx.Fault, "part.coarsen", Ctx.FaultCtx))
    return flatPartition(Ctx, Opts, MemOps);
  try {
    return multilevelPartition(Ctx, Opts, S, MemOps);
  } catch (const std::bad_alloc &) {
    // The scratch may hold a partially built level stack; drop the
    // memo so no later attempt reuses it.
    S.MLValid = false;
    return flatPartition(Ctx, Opts, MemOps);
  }
}
