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
/// (every move costs a pseudo-schedule) and run FM passes on the
/// surrogate objective instead.
constexpr unsigned MaxRefineMacros = 48;
/// FM passes per level (levels above MaxRefineMacros).
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

} // namespace

double hcvliw::scorePartition(const PartitionContext &Ctx,
                              const PartitionerOptions &Opts,
                              const Partition &P) {
  requireEnergyModel(Ctx, Opts);
  if (Ctx.Stats)
    ++Ctx.Stats->ScoreEvals;
  PseudoSchedule PS = estimatePseudoSchedule(*Ctx.L, *Ctx.G, *Ctx.M,
                                             *Ctx.Plan, P);
  if (!PS.Feasible) {
    // Graded penalty: any feasible partition beats every infeasible
    // one, but among infeasible partitions smaller violations win, so
    // greedy refinement can walk out of an infeasible region.
    return InfeasiblePartitionScore * (1.0 + PS.Overflow);
  }
  return feasibleScore(Ctx, Opts, countMemoryOps(*Ctx.L), PS.Comms,
                       PS.WInsPerCluster, PS.ItLengthNs.toDouble());
}

void PartitionBound::bind(const PartitionContext &TheCtx) {
  Ctx = &TheCtx;
  const Loop &L = *Ctx->L;
  const DDG &G = *Ctx->G;
  const MachineDescription &M = *Ctx->M;
  const unsigned N = G.size();

  slotCapacityInto(Cap, M, *Ctx->Plan);
  Edges.build(L, G, M.Isa);
  PlanGrid::computeInto(Grid, *Ctx->Plan);
  MemOps = 0;
  Kind.resize(N);
  DefLat.resize(N);
  Energy.resize(N);
  for (unsigned I = 0; I < N; ++I) {
    Opcode Op = L.Ops[I].Op;
    Kind[I] = static_cast<uint8_t>(fuKindOf(Op));
    DefLat[I] = L.Ops[I].definesValue()
                    ? static_cast<int64_t>(M.Isa.latency(Op))
                    : int64_t(-1);
    Energy[I] = M.Isa.energy(Op);
    MemOps += isMemoryOpcode(Op);
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
}

void PartitionBound::load(const Partition &P) {
  const unsigned N = static_cast<unsigned>(Kind.size());
  const unsigned NC = Ctx->M->numClusters();

  ClusterOf.assign(P.ClusterOf.begin(), P.ClusterOf.end());
  Tally.clear(NC);
  for (unsigned I = 0; I < N; ++I) {
    unsigned C = ClusterOf[I];
    ++Tally.Counts[C * NumFUKinds + Kind[I]];
    if (DefLat[I] >= 0) {
      ++Tally.Defs[C];
      Tally.DefLatency[C] += DefLat[I];
    }
  }

  Uses.assign(static_cast<size_t>(N) * NC, 0);
  for (unsigned Dst = 0; Dst < N; ++Dst)
    for (unsigned I = ValStart[Dst]; I < ValStart[Dst + 1]; ++I)
      ++Uses[static_cast<size_t>(ValSrc[I]) * NC + ClusterOf[Dst]];
  for (unsigned Src = 0; Src < N; ++Src)
    countCopies(Src);
}

void PartitionBound::countCopies(unsigned N) {
  const unsigned NC = static_cast<unsigned>(Tally.CopiesIn.size());
  const unsigned *U = &Uses[static_cast<size_t>(N) * NC];
  // One copy per cluster, other than the producer's own, that holds a
  // consumer of the value (PartitionedGraph's copy rule).
  for (unsigned C = 0; C < NC; ++C) {
    if (C == ClusterOf[N] || U[C] == 0)
      continue;
    ++Tally.CopiesIn[C];
    ++Tally.Comms;
  }
}

void PartitionBound::move(const unsigned *Nodes, size_t Count, unsigned To) {
  const unsigned NC = static_cast<unsigned>(Tally.CopiesIn.size());
  // One node at a time, each step keeping the copy tally equal to the
  // copy rule over (ClusterOf, Uses): first the node's own copies
  // follow its new cluster, then each of its value producers sees one
  // consumer leave From and one arrive in To. Only a (value, cluster)
  // pair whose use count leaves or reaches 0 changes a copy, so a
  // self-edge or a producer that is itself a moved node (already at
  // To, or still at From) is counted against its current cluster.
  for (size_t I = 0; I < Count; ++I) {
    const unsigned N = Nodes[I];
    const unsigned From = ClusterOf[N];
    if (From == To)
      continue;
    const unsigned *UN = &Uses[static_cast<size_t>(N) * NC];
    if (UN[From] > 0) {
      ++Tally.CopiesIn[From];
      ++Tally.Comms;
    }
    if (UN[To] > 0) {
      --Tally.CopiesIn[To];
      --Tally.Comms;
    }
    ClusterOf[N] = To;
    for (unsigned E = ValStart[N]; E < ValStart[N + 1]; ++E) {
      const unsigned Src = ValSrc[E];
      unsigned *US = &Uses[static_cast<size_t>(Src) * NC];
      const unsigned SrcC = ClusterOf[Src];
      if (--US[From] == 0 && From != SrcC) {
        --Tally.CopiesIn[From];
        --Tally.Comms;
      }
      if (US[To]++ == 0 && To != SrcC) {
        ++Tally.CopiesIn[To];
        ++Tally.Comms;
      }
    }
    --Tally.Counts[From * NumFUKinds + Kind[N]];
    ++Tally.Counts[To * NumFUKinds + Kind[N]];
    if (DefLat[N] >= 0) {
      --Tally.Defs[From];
      ++Tally.Defs[To];
      Tally.DefLatency[From] -= DefLat[N];
      Tally.DefLatency[To] += DefLat[N];
    }
  }
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
  bool Feasible = pseudoScheduleAsap(Pseudo, Edges, Grid, Ctx->M->BusLatency,
                                     ClusterOf, ItLengthNs);
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

void FMSurrogate::init(const CoarseLevel &TheLvl,
                       std::vector<unsigned> &TheAssign,
                       const MachineDescription &M, const MachinePlan &Plan) {
  Lvl = &TheLvl;
  Assign = &TheAssign;
  NC = M.numClusters();
  const unsigned LN = Lvl->NumMacros;
  slotCapacityInto(Cap, M, Plan);
  Load.assign(static_cast<size_t>(NC) * NumFUKinds, 0);
  Weight.assign(NC, 0.0);
  Cut.assign(static_cast<size_t>(LN) * NC, 0);
  KindMask.assign(LN, 0);
  static_assert(NumFUKinds <= 8, "KindMask holds one bit per kind");
  for (unsigned Mac = 0; Mac < LN; ++Mac) {
    unsigned C = TheAssign[Mac];
    for (unsigned K = 0; K < NumFUKinds; ++K) {
      unsigned W = Lvl->fuCount(Mac, K);
      Load[C * NumFUKinds + K] += W;
      KindMask[Mac] |= static_cast<uint8_t>(W ? 1u << K : 0u);
    }
    Weight[C] += Lvl->Weight[Mac];
    int64_t *Row = &Cut[static_cast<size_t>(Mac) * NC];
    for (unsigned I = Lvl->AdjStart[Mac]; I < Lvl->AdjStart[Mac + 1]; ++I)
      Row[TheAssign[Lvl->AdjMacro[I]]] += Lvl->AdjWeight[I];
  }
  OverKinds.assign(NC, 0);
  for (unsigned C = 0; C < NC; ++C)
    refreshCluster(C);
  LightestOther.resize(NC);
  refreshLightest();
  CutTied.resize(LN);
  for (unsigned Mac = 0; Mac < LN; ++Mac)
    refreshCutTied(Mac);
}

void FMSurrogate::refreshCluster(unsigned C) {
  uint8_t Over = 0;
  for (unsigned K = 0; K < NumFUKinds; ++K)
    if (Load[C * NumFUKinds + K] > Cap[C * NumFUKinds + K])
      Over |= static_cast<uint8_t>(1u << K);
  OverKinds[C] = Over;
}

void FMSurrogate::refreshLightest() {
  for (unsigned H = 0; H < NC; ++H) {
    double Min = std::numeric_limits<double>::infinity();
    for (unsigned C = 0; C < NC; ++C)
      if (C != H)
        Min = std::min(Min, Weight[C]);
    LightestOther[H] = Min;
  }
}

void FMSurrogate::refreshCutTied(unsigned Mac) {
  const int64_t *Row = &Cut[static_cast<size_t>(Mac) * NC];
  const unsigned Home = (*Assign)[Mac];
  bool Tied = false;
  for (unsigned C = 0; C < NC; ++C)
    Tied |= C != Home && Row[C] >= Row[Home];
  CutTied[Mac] = Tied;
}

double FMSurrogate::bestMove(unsigned Mac, unsigned &BestC) const {
  const unsigned Home = (*Assign)[Mac];
  const int64_t *Row = &Cut[static_cast<size_t>(Mac) * NC];
  const unsigned *Need = &Lvl->FUCounts[static_cast<size_t>(Mac) * NumFUKinds];
  // Overload reduction of moving Mac from Home to C (positive = less):
  // Home's relief, the same for every C, less C's added overload. A
  // kind Mac lacks adds exactly 0 to both sums.
  int64_t Relief = 0;
  for (unsigned K = 0; K < NumFUKinds; ++K) {
    int64_t W = Need[K];
    int64_t LH = Load[Home * NumFUKinds + K];
    int64_t CH = Cap[Home * NumFUKinds + K];
    Relief += std::max<int64_t>(0, LH - CH) - std::max<int64_t>(0, LH - W - CH);
  }
  const double WMac = Lvl->Weight[Mac];
  const double WH = Weight[Home];
  double BestGain = -std::numeric_limits<double>::infinity();
  BestC = Home;
  for (unsigned C = 0; C < NC; ++C) {
    if (C == Home)
      continue;
    int64_t CapGain = Relief;
    for (unsigned K = 0; K < NumFUKinds; ++K) {
      int64_t W = Need[K];
      int64_t LC = Load[C * NumFUKinds + K];
      int64_t CC = Cap[C * NumFUKinds + K];
      CapGain -=
          std::max<int64_t>(0, LC + W - CC) - std::max<int64_t>(0, LC - CC);
    }
    double WC = Weight[C];
    double DW2 = (WH - WMac) * (WH - WMac) + (WC + WMac) * (WC + WMac) -
                 WH * WH - WC * WC;
    double G = 1e6 * static_cast<double>(CapGain) +
               static_cast<double>(Row[C] - Row[Home]) - 1e-3 * DW2;
    // Strict: ties keep the lowest cluster id.
    bool Better = G > BestGain;
    BestGain = Better ? G : BestGain;
    BestC = Better ? C : BestC;
  }
  return BestGain;
}

void FMSurrogate::apply(unsigned Mac, unsigned C) {
  const unsigned Home = (*Assign)[Mac];
  for (unsigned K = 0; K < NumFUKinds; ++K) {
    int64_t W = Lvl->fuCount(Mac, K);
    Load[Home * NumFUKinds + K] -= W;
    Load[C * NumFUKinds + K] += W;
  }
  Weight[Home] -= Lvl->Weight[Mac];
  Weight[C] += Lvl->Weight[Mac];
  (*Assign)[Mac] = C;
  // The adjacency is symmetric: Mac's neighbors see its mass move.
  for (unsigned I = Lvl->AdjStart[Mac]; I < Lvl->AdjStart[Mac + 1]; ++I) {
    unsigned Nb = Lvl->AdjMacro[I];
    int64_t *Row = &Cut[static_cast<size_t>(Nb) * NC];
    Row[Home] -= Lvl->AdjWeight[I];
    Row[C] += Lvl->AdjWeight[I];
    refreshCutTied(Nb);
  }
  refreshCutTied(Mac);
  refreshCluster(Home);
  refreshCluster(C);
  refreshLightest();
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

/// FM-style refinement of one level on the FMSurrogate objective:
/// each pass fills a max-heap with the best move of every unlocked,
/// unpinned macro whose gain is positive, pops the highest gain,
/// applies the move when its recomputed gain is still that gain, locks
/// the macro, and refreshes its neighbors; when the heap drains it
/// fills again, until no improving move remains. Every applied move
/// strictly decreases the surrogate, so the passes terminate; the
/// caller only keeps the result when the *exact* objective did not get
/// worse. Deterministic: ties break toward the lowest macro id and
/// lowest cluster id.
///
/// A fill evaluates only the macros FMSurrogate::mayGain admits; the
/// others have no positive gain, so the heap holds exactly the entries
/// that evaluating every macro would push. A pass ends on a fill that
/// found no positive gain among the macros it had not moved, and
/// nothing changes before the next pass, so that pass's first fill
/// evaluates only the macros the previous pass moved: the heap holds
/// the entries a full fill would push, and pops them in the same
/// (gain descending, macro ascending) order.
uint64_t refineLevelFM(const PartitionContext &Ctx, PartitionScratch &S,
                       const CoarseLevel &Lvl, std::vector<unsigned> &Assign,
                       PartitionStats *Stats) {
  const unsigned LN = Lvl.NumMacros;
  FMSurrogate &FM = S.FM;
  FM.init(Lvl, Assign, *Ctx.M, *Ctx.Plan);
  S.FMLocked.assign(LN, 0);
  S.FMMoved.clear();

  auto HeapLess = [](const PartitionScratch::FMHeapEntry &A,
                     const PartitionScratch::FMHeapEntry &B) {
    if (A.Gain != B.Gain)
      return A.Gain < B.Gain; // max-heap on gain
    return A.Mac > B.Mac;     // ties: lowest macro id on top
  };
  auto pushIfGains = [&](unsigned Mac) {
    if (!FM.mayGain(Mac))
      return;
    unsigned C;
    double G = FM.bestMove(Mac, C);
    if (G > 0)
      S.FMHeap.push_back({G, Mac});
  };

  uint64_t Moves = 0;
  unsigned PassesRun = 0;
  for (unsigned Pass = 0; Pass < MaxFMPasses; ++Pass) {
    std::fill(S.FMLocked.begin(), S.FMLocked.end(), uint8_t(0));
    uint64_t MovesThisPass = 0;
    for (bool FirstFill = true;; FirstFill = false) {
      // Fill: every unlocked, unpinned macro with a positive best gain —
      // on a later pass's first fill, only the previous pass's moves.
      S.FMHeap.clear();
      if (FirstFill && Pass > 0) {
        for (unsigned Mac : S.FMMoved)
          pushIfGains(Mac);
      } else {
        for (unsigned Mac = 0; Mac < LN; ++Mac)
          if (!S.FMLocked[Mac] && Lvl.Pin[Mac] < 0)
            pushIfGains(Mac);
      }
      if (FirstFill)
        S.FMMoved.clear();
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
        unsigned C;
        double G = FM.bestMove(E.Mac, C);
        if (G != E.Gain) {
          if (G > 0) {
            S.FMHeap.push_back({G, E.Mac});
            std::push_heap(S.FMHeap.begin(), S.FMHeap.end(), HeapLess);
          }
          continue;
        }
        if (G <= 0)
          continue;
        FM.apply(E.Mac, C);
        S.FMLocked[E.Mac] = 1;
        S.FMMoved.push_back(E.Mac);
        ++MovesThisPass;
        for (unsigned I = Lvl.AdjStart[E.Mac]; I < Lvl.AdjStart[E.Mac + 1];
             ++I) {
          unsigned Nb = Lvl.AdjMacro[I];
          if (S.FMLocked[Nb] || Lvl.Pin[Nb] >= 0)
            continue;
          size_t Before = S.FMHeap.size();
          pushIfGains(Nb);
          if (S.FMHeap.size() != Before)
            std::push_heap(S.FMHeap.begin(), S.FMHeap.end(), HeapLess);
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
/// normally. \p Bound scores it; bind and load rebuild all of its
/// state, whatever a throwing multilevel path left in it.
std::optional<Partition> flatPartition(const PartitionContext &Ctx,
                                       const PartitionerOptions &Opts,
                                       PartitionBound &Bound) {
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

  Bound.bind(Ctx);
  Bound.load(P);
  double Score = Bound.score(Opts);
  if (Ctx.Stats) {
    Ctx.Stats->InitialScore = Score;
    Ctx.Stats->FinalScore = Score;
  }
  if (Score >= InfeasiblePartitionScore)
    return std::nullopt; // still infeasible: grow the IT normally
  return P;
}

/// The normal multilevel path (file header steps 2-4); \p S holds the
/// pre-placement result in S.Key / S.Free.
std::optional<Partition> multilevelPartition(const PartitionContext &Ctx,
                                             const PartitionerOptions &Opts,
                                             PartitionScratch &S) {
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

  // Coarsening: reuse the scratch's level stack when the CoarsenMemoKey
  // matches exactly (hash first, then the full comparison). The key
  // covers every build input, so the reuse is exact across attempts
  // and runs; the counters count per run (PartitionStats).
  const Loop &L = *Ctx.L;
  S.Key.LoopFp = Ctx.LoopFp ? Ctx.LoopFp : L.structuralFingerprint();
  M.Isa.nodeLatenciesInto(S.Key.Lat, L);
  S.Key.Energy.resize(NumNodes);
  for (unsigned N = 0; N < NumNodes; ++N)
    S.Key.Energy[N] = M.Isa.energy(L.Ops[N].Op);
  size_t KeyHash = CoarsenMemoKeyHash{}(S.Key);
  bool Reuse = S.MLValid && KeyHash == S.MemoHashVal && S.Key == S.MemoKey;
  if (Reuse) {
    ++S.CoarsenReuses;
  } else {
    S.MLValid = false; // a build that throws leaves no stale stack
    S.ML.build(L, *Ctx.G, M, S.Key.Groups, S.Key.Pins, *Slack,
               S.Key.TargetMacros, Ctx.Trace);
    std::swap(S.MemoKey, S.Key); // keep both buffers' capacity alive
    S.MemoHashVal = KeyHash;
    S.MLValid = true;
  }
  if (Ctx.Stats) {
    if (Reuse && S.RunCounted) {
      ++Ctx.Stats->CoarsenMemoHits;
    } else {
      ++Ctx.Stats->CoarsenBuilds;
      Ctx.Stats->Levels += S.ML.buildStats().Levels;
      Ctx.Stats->MatchedPairs += S.ML.buildStats().MatchedPairs;
    }
  }
  S.RunCounted = true;
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
  // (pseudo-schedule-scored) moves; big levels get FM passes
  // whose result is kept only when the exact score did not get worse —
  // so CurrentScore is non-increasing across the whole uncoarsening.
  // One bound scores everything: its loop and plan constants are built
  // once, and it holds the current partition throughout. Every level
  // moves it macro by macro over the level's member lists, and moves
  // back what it does not keep.
  PartitionBound &Bound = S.Bound;
  Bound.bind(Ctx);
  Partition &Current = S.Current;
  expandInto(Current, Coarsest, ClusterOfMacro, NumNodes);
  Bound.load(Current);
  double CurrentScore = Bound.score(Opts);
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
      Assign[Mac] = Bound.clusterOf()[Lvl.Rep[Mac]];
    auto moveMacro = [&](unsigned Mac, unsigned To) {
      Bound.move(S.Members.data() + S.MemberStart[Mac],
                 S.MemberStart[Mac + 1] - S.MemberStart[Mac], To);
    };

    if (LN > MaxRefineMacros) {
      // FM on the surrogate objective; guarded acceptance: the bound
      // follows the macros FM moved, and moves them back unless the
      // exact score improved.
      S.AssignBefore.assign(Assign.begin(), Assign.end());
      uint64_t FMMoves = refineLevelFM(Ctx, S, Lvl, Assign, Ctx.Stats);
      if (RefineSp.active()) {
        RefineSp.arg("macros", LN);
        RefineSp.arg("fm_moves", static_cast<int64_t>(FMMoves));
      }
      if (FMMoves == 0)
        continue;
      buildMemberLists(Lvl, NumNodes, S.MemberStart, S.Members);
      for (unsigned Mac = 0; Mac < LN; ++Mac)
        if (Assign[Mac] != S.AssignBefore[Mac])
          moveMacro(Mac, Assign[Mac]);
      double Sc = Bound.score(Opts);
      if (Sc < CurrentScore) {
        CurrentScore = Sc;
        continue;
      }
      for (unsigned Mac = 0; Mac < LN; ++Mac)
        if (Assign[Mac] != S.AssignBefore[Mac])
          moveMacro(Mac, S.AssignBefore[Mac]);
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
  Current.ClusterOf.assign(Bound.clusterOf().begin(), Bound.clusterOf().end());
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

  // Graceful degradation (the "flat partition" rung): forced by an
  // armed injector, or taken for real when coarsening cannot allocate.
  // Partition quality drops; determinism and the feasibility gate do
  // not.
  if (HCVLIW_FAULT_DEGRADE(Ctx.Fault, "part.coarsen", Ctx.FaultCtx))
    return flatPartition(Ctx, Opts, S.Bound);
  try {
    return multilevelPartition(Ctx, Opts, S);
  } catch (const std::bad_alloc &) {
    // The scratch may hold a partially built level stack; drop the
    // memo so no later attempt reuses it (the next one rebuilds, and
    // counts a build).
    S.MLValid = false;
    return flatPartition(Ctx, Opts, S.Bound);
  }
}
