//===- partition/MultilevelGraph.cpp - Macro-node coarsening ----------------===//

#include "partition/MultilevelGraph.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace hcvliw;

/// Per-macro sizes, representatives, FU counts and energy weights of
/// \p Out from its MacroOf map, summed over member nodes in node order
/// (the Table 1 energies are not dyadic: a per-macro sum of the merged
/// macros' weights would round differently).
void MultilevelGraph::sumMembers(CoarseLevel &Out) const {
  unsigned N = static_cast<unsigned>(NodeKind.size());
  unsigned NM = Out.NumMacros;
  Out.Rep.assign(NM, 0);
  Out.Size.assign(NM, 0);
  Out.FUCounts.assign(static_cast<size_t>(NM) * NumFUKinds, 0);
  Out.Weight.assign(NM, 0.0);
  for (unsigned Nd = 0; Nd < N; ++Nd) {
    unsigned Mac = Out.MacroOf[Nd];
    if (Out.Size[Mac]++ == 0)
      Out.Rep[Mac] = Nd; // nodes scanned ascending: lowest member id
    ++Out.FUCounts[static_cast<size_t>(Mac) * NumFUKinds + NodeKind[Nd]];
    Out.Weight[Mac] += NodeEnergy[Nd];
  }
}

void MultilevelGraph::makeFinest(CoarseLevel &Out, const DDG &G,
                                 unsigned NumGroups,
                                 const std::vector<int64_t> &EdgeSlack) {
  unsigned N = G.size();
  Out.NumMacros = NumGroups;
  Out.MacroOf.resize(N);
  Out.Pin.assign(PinOfGroup.begin(), PinOfGroup.begin() + NumGroups);
  for (unsigned Nd = 0; Nd < N; ++Nd) {
    assert(GroupOfNode[Nd] >= 0 && "node without a group");
    Out.MacroOf[Nd] = static_cast<unsigned>(GroupOfNode[Nd]);
  }
  sumMembers(Out);

  // Macro adjacency: order the half-edges by (from, to) with two
  // counting passes over the macros (by to, then stably by from) and
  // fold runs into CSR rows (edge multiplicity, minimum node-level
  // slack; neither depends on the order within a run).
  HE.clear();
  for (unsigned EIx = 0; EIx < G.numEdges(); ++EIx) {
    const DDG::Edge &E = G.edge(EIx);
    unsigned A = Out.MacroOf[E.Src], B = Out.MacroOf[E.Dst];
    if (A == B)
      continue;
    int64_t S = EdgeSlack[EIx];
    HE.push_back({A, B, S});
    HE.push_back({B, A, S});
  }
  HESorted.resize(HE.size());
  auto countingPass = [&](const std::vector<HalfEdge> &In,
                          std::vector<HalfEdge> &Sorted, bool ByFrom) {
    Bucket.assign(NumGroups + 1, 0);
    for (const HalfEdge &H : In)
      ++Bucket[(ByFrom ? H.From : H.To) + 1];
    for (unsigned Mac = 0; Mac < NumGroups; ++Mac)
      Bucket[Mac + 1] += Bucket[Mac];
    for (const HalfEdge &H : In)
      Sorted[Bucket[ByFrom ? H.From : H.To]++] = H;
  };
  countingPass(HE, HESorted, /*ByFrom=*/false);
  countingPass(HESorted, HE, /*ByFrom=*/true);
  Out.AdjStart.assign(NumGroups + 1, 0);
  Out.AdjMacro.clear();
  Out.AdjWeight.clear();
  Out.AdjSlack.clear();
  for (size_t I = 0; I < HE.size();) {
    size_t J = I;
    int64_t MinSlack = HE[I].Slack;
    while (J < HE.size() && HE[J].From == HE[I].From && HE[J].To == HE[I].To) {
      MinSlack = std::min(MinSlack, HE[J].Slack);
      ++J;
    }
    ++Out.AdjStart[HE[I].From + 1];
    Out.AdjMacro.push_back(HE[I].To);
    Out.AdjWeight.push_back(static_cast<unsigned>(J - I));
    Out.AdjSlack.push_back(MinSlack);
    I = J;
  }
  for (unsigned Mac = 0; Mac < NumGroups; ++Mac)
    Out.AdjStart[Mac + 1] += Out.AdjStart[Mac];
}

void MultilevelGraph::contract(const CoarseLevel &Cur, CoarseLevel &Out,
                               unsigned NewCount) {
  unsigned N = static_cast<unsigned>(NodeKind.size());
  Out.NumMacros = NewCount;
  Out.MacroOf.resize(N);
  for (unsigned Nd = 0; Nd < N; ++Nd)
    Out.MacroOf[Nd] = static_cast<unsigned>(NewIdOfMacro[Cur.MacroOf[Nd]]);
  Out.Pin.assign(NewPins.begin(), NewPins.end());
  sumMembers(Out);

  // The (at most two) previous-level macros of each new macro.
  constexpr unsigned None = ~0u;
  OldOf.assign(static_cast<size_t>(NewCount) * 2, None);
  for (unsigned Mac = 0; Mac < Cur.NumMacros; ++Mac) {
    unsigned *Slot = &OldOf[static_cast<size_t>(NewIdOfMacro[Mac]) * 2];
    Slot[Slot[0] == None ? 0 : 1] = Mac;
  }

  // Each new row merges its members' rows: neighbors renamed, the
  // edge between the two members dropped, multiplicities added and
  // slacks minimized per neighbor — exactly the rows a fold of the DDG
  // half-edges under the new MacroOf yields — then sorted by neighbor.
  RowAt.assign(NewCount, None);
  Out.AdjStart.assign(NewCount + 1, 0);
  Out.AdjMacro.clear();
  Out.AdjWeight.clear();
  Out.AdjSlack.clear();
  for (unsigned X = 0; X < NewCount; ++X) {
    Row.clear();
    for (unsigned Part = 0; Part < 2; ++Part) {
      unsigned Old = OldOf[static_cast<size_t>(X) * 2 + Part];
      if (Old == None)
        break;
      for (unsigned I = Cur.AdjStart[Old]; I < Cur.AdjStart[Old + 1]; ++I) {
        unsigned Y = static_cast<unsigned>(NewIdOfMacro[Cur.AdjMacro[I]]);
        if (Y == X)
          continue;
        unsigned &At = RowAt[Y];
        if (At != None && At < Row.size() && Row[At].To == Y) {
          Row[At].Weight += Cur.AdjWeight[I];
          Row[At].Slack = std::min(Row[At].Slack, Cur.AdjSlack[I]);
          continue;
        }
        At = static_cast<unsigned>(Row.size());
        Row.push_back({Y, Cur.AdjWeight[I], Cur.AdjSlack[I]});
      }
    }
    std::sort(Row.begin(), Row.end(),
              [](const RowEntry &A, const RowEntry &B) { return A.To < B.To; });
    for (const RowEntry &E : Row) {
      Out.AdjMacro.push_back(E.To);
      Out.AdjWeight.push_back(E.Weight);
      Out.AdjSlack.push_back(E.Slack);
    }
    Out.AdjStart[X + 1] = static_cast<unsigned>(Out.AdjMacro.size());
  }
}

void MultilevelGraph::sortCandidates(std::vector<MatchCand> &Cands,
                                     std::vector<MatchCand> &Tmp) {
  // Most critical (lowest slack) first, then heaviest. Cands arrive in
  // (A, B) order, so a stable sort on these two keys gives the
  // (slack, -weight, A, B) order. Bottom-up merge sort: runs of RunLen
  // sorted by insertion, then merge passes ping-ponging between Cands
  // and Tmp.
  auto before = [](const MatchCand &X, const MatchCand &Y) {
    return X.Slack != Y.Slack ? X.Slack < Y.Slack : X.Weight > Y.Weight;
  };
  constexpr size_t RunLen = 16;
  const size_t NC = Cands.size();
  for (size_t Lo = 0; Lo < NC; Lo += RunLen) {
    size_t Hi = std::min(NC, Lo + RunLen);
    for (size_t I = Lo + 1; I < Hi; ++I) {
      MatchCand X = Cands[I];
      size_t J = I;
      for (; J > Lo && before(X, Cands[J - 1]); --J)
        Cands[J] = Cands[J - 1];
      Cands[J] = X;
    }
  }
  Tmp.resize(NC);
  for (size_t Width = RunLen; Width < NC; Width *= 2) {
    for (size_t Lo = 0; Lo < NC; Lo += 2 * Width) {
      size_t Mid = std::min(NC, Lo + Width), Hi = std::min(NC, Lo + 2 * Width);
      size_t I = Lo, J = Mid, K = Lo;
      while (I < Mid && J < Hi)
        Tmp[K++] = before(Cands[J], Cands[I]) ? Cands[J++] : Cands[I++];
      while (I < Mid)
        Tmp[K++] = Cands[I++];
      while (J < Hi)
        Tmp[K++] = Cands[J++];
    }
    Cands.swap(Tmp);
  }
}

unsigned MultilevelGraph::matchRound(const CoarseLevel &Cur, CoarseLevel &Out,
                                     unsigned TargetMacros, double WeightCap) {
  unsigned NumMac = Cur.NumMacros;

  // Candidate pairs straight from the CSR (each undirected pair once),
  // generated in (A, B) order: A ascends and every row is sorted by
  // neighbor.
  Cands.clear();
  for (unsigned A = 0; A < NumMac; ++A)
    for (unsigned I = Cur.AdjStart[A]; I < Cur.AdjStart[A + 1]; ++I) {
      unsigned B = Cur.AdjMacro[I];
      if (B <= A)
        continue;
      Cands.push_back({Cur.AdjSlack[I], Cur.AdjWeight[I], A, B});
    }
  sortCandidates(Cands, CandTmp);

  // The balance bound (file header): a merge may not push any per-kind
  // count or the energy weight past a 1/numClusters share of the loop.
  auto canMerge = [&](unsigned A, unsigned B) {
    if (Cur.Pin[A] >= 0 && Cur.Pin[B] >= 0 && Cur.Pin[A] != Cur.Pin[B])
      return false;
    for (unsigned K = 0; K < NumFUKinds; ++K)
      if (Cur.fuCount(A, K) + Cur.fuCount(B, K) > KindCap[K])
        return false;
    return Cur.Weight[A] + Cur.Weight[B] <= WeightCap;
  };

  NewIdOfMacro.assign(NumMac, -1);
  NewPins.clear();
  unsigned NewCount = 0, Remaining = NumMac, Pairs = 0;
  for (const MatchCand &C : Cands) {
    if (Remaining <= TargetMacros)
      break;
    if (NewIdOfMacro[C.A] >= 0 || NewIdOfMacro[C.B] >= 0 ||
        !canMerge(C.A, C.B))
      continue;
    int Pin = Cur.Pin[C.A] >= 0 ? Cur.Pin[C.A] : Cur.Pin[C.B];
    NewIdOfMacro[C.A] = NewIdOfMacro[C.B] = static_cast<int>(NewCount);
    NewPins.push_back(Pin);
    ++NewCount;
    --Remaining;
    ++Pairs;
  }
  if (Pairs == 0)
    return 0; // no contractible edge (caps, pins, or disconnection)

  // Unmatched macros survive unchanged; pairing up disconnected
  // leftovers is unnecessary -- the initial partition handles them.
  for (unsigned Mac = 0; Mac < NumMac; ++Mac)
    if (NewIdOfMacro[Mac] < 0) {
      NewIdOfMacro[Mac] = static_cast<int>(NewCount++);
      NewPins.push_back(Cur.Pin[Mac]);
    }

  contract(Cur, Out, NewCount);
  return Pairs;
}

CoarseLevel *MultilevelGraph::recordLevel(const CoarseLevel &Lvl) {
  if (Levels.size() <= NumLvls)
    Levels.emplace_back();
  // A copy into the slot's own storage, not a swap: a swap hands the
  // work level the slot's old buffers, sized for whatever level an
  // earlier build put there, and a later build grows them again.
  Levels[NumLvls] = Lvl;
  return &Levels[NumLvls++];
}

void MultilevelGraph::build(
    const Loop &TheLoop, const DDG &TheDDG, const MachineDescription &TheMachine,
    const std::vector<std::vector<unsigned>> &InitialGroups,
    const std::vector<int> &GroupPins, const std::vector<int64_t> &EdgeSlack,
    unsigned TargetMacros, obs::Tracer *Trace) {
  NumLvls = 0;
  Stats = BuildStats();
  assert(InitialGroups.size() == GroupPins.size() &&
         "one pin slot per initial group");
  assert(EdgeSlack.size() == TheDDG.numEdges() && "one slack per DDG edge");

  // Each node's FU kind and energy weight, looked up once per build.
  unsigned N = TheDDG.size();
  NodeKind.resize(N);
  NodeEnergy.resize(N);
  for (unsigned Nd = 0; Nd < N; ++Nd) {
    Opcode Op = TheLoop.Ops[Nd].Op;
    NodeKind[Nd] = static_cast<uint8_t>(fuKindOf(Op));
    NodeEnergy[Nd] = TheMachine.Isa.energy(Op);
  }

  // Finest grouping: initial groups plus singletons.
  GroupOfNode.assign(N, -1);
  PinOfGroup.clear();
  unsigned NumGroups = 0;
  for (unsigned Gp = 0; Gp < InitialGroups.size(); ++Gp) {
    for (unsigned Nd : InitialGroups[Gp]) {
      assert(GroupOfNode[Nd] < 0 && "node in two initial groups");
      GroupOfNode[Nd] = static_cast<int>(NumGroups);
    }
    PinOfGroup.push_back(GroupPins[Gp]);
    ++NumGroups;
  }
  for (unsigned Nd = 0; Nd < N; ++Nd)
    if (GroupOfNode[Nd] < 0) {
      GroupOfNode[Nd] = static_cast<int>(NumGroups++);
      PinOfGroup.push_back(-1);
    }

  // Balance bounds for matching (file header): no macro may outgrow
  // twice the average share of a target-count macro, per kind and in
  // energy weight. A looser 1/numClusters share lets a few "snowball"
  // macros swallow a whole cluster's worth of the loop, which leaves
  // the refinement no granularity to balance with.
  unsigned Tgt = std::max(1u, TargetMacros);
  KindCap.assign(NumFUKinds, 0);
  double WeightTotal = 0;
  for (unsigned Nd = 0; Nd < N; ++Nd) {
    ++KindCap[NodeKind[Nd]];
    WeightTotal += NodeEnergy[Nd];
  }
  for (unsigned K = 0; K < NumFUKinds; ++K)
    KindCap[K] = std::max<unsigned>(2, 2 * ((KindCap[K] + Tgt - 1) / Tgt));
  double WeightCap = 2.0 * WeightTotal / Tgt;

  // Cur is the level the next round matches: a recorded level or a work
  // buffer; Spare is always a work buffer other than Cur. The finest
  // level is built in its slot.
  if (Levels.empty())
    Levels.emplace_back();
  makeFinest(Levels[0], TheDDG, NumGroups, EdgeSlack);
  NumLvls = 1;
  CoarseLevel *Cur = &Levels[0];
  CoarseLevel *Spare = &WorkB;
  unsigned LastRecorded = Cur->NumMacros;
  while (Cur->NumMacros > TargetMacros) {
    char LvlBuf[16];
    std::snprintf(LvlBuf, sizeof LvlBuf, "%u", NumLvls);
    obs::Span Sp(Trace, "part.coarsen:", LvlBuf);
    unsigned SegPairs = 0;
    bool Recorded = false;
    // Matching rounds accumulate until the macro count has shrunk
    // geometrically (<= 3/4 of the last recorded level) or matching
    // stalls; only then is a level recorded, keeping the stack
    // O(log N) deep.
    while (true) {
      unsigned Pairs = matchRound(*Cur, *Spare, TargetMacros, WeightCap);
      ++Stats.Rounds;
      if (Pairs == 0)
        break;
      SegPairs += Pairs;
      Stats.MatchedPairs += Pairs;
      CoarseLevel *Prev = Cur;
      Cur = Spare;
      Spare = Prev == &WorkA || Prev == &WorkB
                  ? Prev
                  : (Cur == &WorkA ? &WorkB : &WorkA);
      if (Cur->NumMacros <= std::max(TargetMacros, LastRecorded * 3 / 4)) {
        Cur = recordLevel(*Cur);
        LastRecorded = Cur->NumMacros;
        Recorded = true;
        break;
      }
    }
    if (Sp.active()) {
      Sp.arg("macros", Cur->NumMacros);
      Sp.arg("pairs", SegPairs);
    }
    if (!Recorded) {
      // Stalled below the geometric threshold: keep whatever shrink the
      // rounds achieved as the coarsest level.
      if (Cur->NumMacros < LastRecorded)
        recordLevel(*Cur);
      break;
    }
  }
  Stats.Levels = NumLvls;
}
