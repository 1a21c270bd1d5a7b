//===- tests/partition/FMSurrogateTest.cpp - FM surrogate and its gate ----===//
//
// Property test of FMSurrogate, the state FM refinement keeps per level,
// and of the gate (mayGain) that lets an FM fill skip macros. On seeded
// random levels (synthetic ones with skewed energy weights, and the
// real levels of coarsened loops) under random assignments at tight and
// loose ITs it checks that
//
//   - every macro the gate skips has no move with a positive gain
//     (bestMove <= 0): the gate is exact, so a fill that skips them
//     pushes the entries a fill of every macro would;
//   - after random apply() moves, the kept gate equals its clauses
//     recomputed from scratch, and bestMove equals a fresh init's on
//     the moved assignment (up to the rounding of the kept running
//     weight sums).
//
// The fixtures reach each clause of the gate: skipped macros whose
// home cluster is over capacity in a kind they lack, macros that could
// gain only through capacity relief or only through the weight term
// while the other clauses hold; the test asserts each was seen.
//
//===----------------------------------------------------------------------===//

#include "ir/MinDist.h"
#include "mcd/DomainPlanner.h"
#include "partition/MultilevelGraph.h"
#include "partition/Partitioner.h"
#include "support/RNG.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

using namespace hcvliw;

namespace {

/// How often each situation was seen over the checked macros.
struct Coverage {
  unsigned Checked = 0, Skipped = 0;
  /// Skipped although the home cluster is over capacity in some kind.
  unsigned SkippedOnOverloadedHome = 0;
  /// Positive gain with (ii) and (iii) true: only clause (i) admits it.
  unsigned OnlyRelief = 0;
  /// Positive gain with (i) and (ii) true: only clause (iii) admits it.
  unsigned OnlyWeight = 0;
};

/// A synthetic level of \p LN macros over \p NC clusters: random
/// per-kind op counts, energy weights with one macro in eight 50x
/// heavier, and a sparse symmetric adjacency between nearby macro ids
/// (so block assignments leave most macros interior), rows sorted by
/// neighbor as MultilevelGraph leaves them.
CoarseLevel syntheticLevel(RNG &Rng, unsigned LN) {
  CoarseLevel Lvl;
  Lvl.NumMacros = LN;
  Lvl.FUCounts.assign(static_cast<size_t>(LN) * NumFUKinds, 0);
  Lvl.Weight.resize(LN);
  Lvl.Pin.assign(LN, -1);
  for (unsigned Mac = 0; Mac < LN; ++Mac) {
    for (unsigned K = 0; K < NumFUKinds; ++K)
      if (static_cast<FUKind>(K) != FUKind::Bus && Rng.nextBool(0.5))
        Lvl.FUCounts[Mac * NumFUKinds + K] =
            static_cast<unsigned>(Rng.nextInt(1, 4));
    double W = 1.0 + 19.0 * Rng.nextDouble();
    Lvl.Weight[Mac] = Rng.nextBool(0.125) ? 50.0 * W : W;
  }
  std::map<std::pair<unsigned, unsigned>, unsigned> Mult;
  for (unsigned Mac = 0; Mac < LN; ++Mac) {
    unsigned Deg = static_cast<unsigned>(Rng.nextInt(0, 3));
    for (unsigned D = 0; D < Deg; ++D) {
      int64_t Off = Rng.nextInt(1, 6);
      unsigned Nb = static_cast<unsigned>(
          (Mac + static_cast<unsigned>(Off)) % LN);
      if (Nb == Mac)
        continue;
      unsigned W = static_cast<unsigned>(Rng.nextInt(1, 3));
      Mult[{Mac, Nb}] += W;
      Mult[{Nb, Mac}] += W;
    }
  }
  Lvl.AdjStart.assign(LN + 1, 0);
  for (const auto &[Pair, W] : Mult) {
    ++Lvl.AdjStart[Pair.first + 1];
    Lvl.AdjMacro.push_back(Pair.second);
    Lvl.AdjWeight.push_back(W);
    Lvl.AdjSlack.push_back(0);
  }
  for (unsigned Mac = 0; Mac < LN; ++Mac)
    Lvl.AdjStart[Mac + 1] += Lvl.AdjStart[Mac];
  return Lvl;
}

/// A random assignment of \p Lvl: uniform, or in id blocks (interior
/// macros), or with most macros piled on cluster 0 (skewed weights).
std::vector<unsigned> randomAssign(RNG &Rng, const CoarseLevel &Lvl,
                                   unsigned NC) {
  std::vector<unsigned> A(Lvl.NumMacros);
  int64_t Shape = Rng.nextInt(0, 2);
  unsigned Block = std::max(1u, Lvl.NumMacros / NC);
  for (unsigned Mac = 0; Mac < Lvl.NumMacros; ++Mac) {
    if (Shape == 0)
      A[Mac] = static_cast<unsigned>(Rng.nextInt(0, NC - 1));
    else if (Shape == 1)
      A[Mac] = std::min(NC - 1, Mac / Block);
    else
      A[Mac] = Rng.nextBool(0.8)
                   ? 0
                   : static_cast<unsigned>(Rng.nextInt(1, NC - 1));
  }
  return A;
}

/// The gate's clauses for \p Mac, recomputed here from the level, the
/// assignment and the plan's slot capacity: (i) Mac lacks every kind
/// its home has over capacity, (ii) every other cluster holds less of
/// its cut mass, (iii) the weight bound holds.
struct Clauses {
  bool NoRelief, Interior, LightWeight, HomeOverloaded;
};

Clauses clausesOf(const CoarseLevel &Lvl, const std::vector<unsigned> &A,
                  const std::vector<int64_t> &Cap, unsigned NC,
                  unsigned Mac) {
  std::vector<int64_t> Load(static_cast<size_t>(NC) * NumFUKinds, 0);
  std::vector<double> W(NC, 0.0);
  for (unsigned X = 0; X < Lvl.NumMacros; ++X) {
    for (unsigned K = 0; K < NumFUKinds; ++K)
      Load[A[X] * NumFUKinds + K] += Lvl.fuCount(X, K);
    W[A[X]] += Lvl.Weight[X];
  }
  std::vector<int64_t> Cut(NC, 0);
  for (unsigned I = Lvl.AdjStart[Mac]; I < Lvl.AdjStart[Mac + 1]; ++I)
    Cut[A[Lvl.AdjMacro[I]]] += Lvl.AdjWeight[I];
  unsigned H = A[Mac];
  Clauses Cl{true, true, true, false};
  double Lightest = std::numeric_limits<double>::infinity();
  for (unsigned K = 0; K < NumFUKinds; ++K) {
    bool Over = Load[H * NumFUKinds + K] > Cap[H * NumFUKinds + K];
    Cl.HomeOverloaded |= Over;
    if (Over && Lvl.fuCount(Mac, K) > 0)
      Cl.NoRelief = false;
  }
  for (unsigned C = 0; C < NC; ++C)
    if (C != H) {
      Cl.Interior &= Cut[C] < Cut[H];
      Lightest = std::min(Lightest, W[C]);
    }
  Cl.LightWeight =
      2e-3 * Lvl.Weight[Mac] * (W[H] - Lightest - Lvl.Weight[Mac]) < 0.5;
  return Cl;
}

/// Checks every macro of \p FM (holding \p Lvl under \p A): its gate
/// against the clauses recomputed from scratch, its best gain against
/// a fresh surrogate on the same assignment (the kept cluster weights
/// are running sums, so equal up to rounding), and the gate's
/// soundness on the kept state's own gains.
void checkAll(const FMSurrogate &FM, const CoarseLevel &Lvl,
              std::vector<unsigned> &A, const MachineDescription &M,
              const MachinePlan &Plan, const std::vector<int64_t> &Cap,
              Coverage &Cov) {
  std::vector<unsigned> FreshA = A;
  FMSurrogate Fresh;
  Fresh.init(Lvl, FreshA, M, Plan);
  const unsigned NC = M.numClusters();
  for (unsigned Mac = 0; Mac < Lvl.NumMacros; ++Mac) {
    unsigned C = 0, FreshC = 0;
    double G = FM.bestMove(Mac, C);
    double FreshG = Fresh.bestMove(Mac, FreshC);
    ASSERT_NEAR(G, FreshG, 1e-9 * std::max(1.0, std::abs(FreshG)))
        << "macro " << Mac;
    ++Cov.Checked;
    Clauses Cl = clausesOf(Lvl, A, Cap, NC, Mac);
    bool Skip = Cl.NoRelief && Cl.Interior && Cl.LightWeight;
    ASSERT_EQ(FM.mayGain(Mac), !Skip) << "macro " << Mac;
    if (!FM.mayGain(Mac)) {
      ++Cov.Skipped;
      Cov.SkippedOnOverloadedHome += Cl.HomeOverloaded;
      ASSERT_LE(G, 0.0) << "skipped macro " << Mac << " gains";
    }
    if (G > 0) {
      Cov.OnlyRelief += !Cl.NoRelief && Cl.Interior && Cl.LightWeight;
      Cov.OnlyWeight += Cl.NoRelief && Cl.Interior && !Cl.LightWeight;
    }
  }
}

/// Random assignments of \p Lvl at each IT, with random moves applied.
void checkLevel(RNG &Rng, const CoarseLevel &Lvl,
                const MachineDescription &M, Coverage &Cov) {
  const unsigned NC = M.numClusters();
  DomainPlanner Planner(M, HeteroConfig::reference(M),
                        FrequencyMenu::continuous());
  for (int64_t IT : {2, 6, 16, 48}) {
    auto Plan = Planner.planForIT(Rational(IT));
    ASSERT_TRUE(Plan.has_value());
    std::vector<int64_t> Cap;
    slotCapacityInto(Cap, M, *Plan);
    for (unsigned Start = 0; Start < 3; ++Start) {
      std::vector<unsigned> A = randomAssign(Rng, Lvl, NC);
      FMSurrogate FM;
      FM.init(Lvl, A, M, *Plan);
      checkAll(FM, Lvl, A, M, *Plan, Cap, Cov);
      for (unsigned Mv = 0; Mv < 6; ++Mv) {
        unsigned Mac = static_cast<unsigned>(
            Rng.nextInt(0, static_cast<int64_t>(Lvl.NumMacros) - 1));
        unsigned To = static_cast<unsigned>(Rng.nextInt(0, NC - 2));
        if (To >= A[Mac])
          ++To;
        FM.apply(Mac, To);
        ASSERT_EQ(A[Mac], To);
        checkAll(FM, Lvl, A, M, *Plan, Cap, Cov);
        if (::testing::Test::HasFatalFailure())
          return;
      }
    }
  }
}

TEST(FMSurrogate, GateSkipsOnlyMacrosThatCannotGain) {
  Coverage Cov;
  MachineDescription M = MachineDescription::paperDefault();
  RNG Rng(0xf3a7e);
  for (unsigned I = 0; I < 40; ++I) {
    CoarseLevel Lvl =
        syntheticLevel(Rng, static_cast<unsigned>(Rng.nextInt(8, 120)));
    checkLevel(Rng, Lvl, M, Cov);
    if (HasFatalFailure())
      return;
  }
  // The real levels of coarsened unrolled bodies.
  for (unsigned Ops : {128u, 384u}) {
    Loop L = makeUnrolledKernelLoop("fmgate" + std::to_string(Ops), Ops);
    DDG G = DDG::build(L);
    std::vector<unsigned> Lat = M.Isa.nodeLatencies(L);
    RecurrenceInfo Recs = analyzeRecurrences(G, Lat);
    std::vector<int64_t> Slack;
    LongestPathScratch Paths;
    computeEdgeSlack(Slack, G, Lat, std::max<int64_t>(Recs.RecMII, 1),
                     Paths);
    MultilevelGraph ML;
    ML.build(L, G, M, {}, {}, Slack, M.numClusters());
    for (unsigned LI = 0; LI < ML.numLevels(); ++LI) {
      checkLevel(Rng, ML.level(LI), M, Cov);
      if (HasFatalFailure())
        return;
    }
  }
  EXPECT_GT(Cov.Skipped, 0u);
  EXPECT_GT(Cov.SkippedOnOverloadedHome, 0u);
  EXPECT_GT(Cov.OnlyRelief, 0u);
  EXPECT_GT(Cov.OnlyWeight, 0u);
  std::printf("checked %u macros: %u skipped (%u on an overloaded home); "
              "gainers admitted only by relief %u, only by weight %u\n",
              Cov.Checked, Cov.Skipped, Cov.SkippedOnOverloadedHome,
              Cov.OnlyRelief, Cov.OnlyWeight);
}

} // namespace
