//===- vliwsim/PipelinedSimulator.cpp - MCD pipelined execution -------------===//

#include "vliwsim/PipelinedSimulator.h"
#include "mcd/SyncModel.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>

using namespace hcvliw;

namespace {

struct Instance {
  Rational IssueNs;
  unsigned Node;
  int64_t Iter;
};

} // namespace

PipelinedResult hcvliw::runPipelined(const Loop &L,
                                     const PartitionedGraph &PG,
                                     const Schedule &S,
                                     const MachineDescription &M,
                                     uint64_t Iterations) {
  PipelinedResult R;
  R.Iterations = Iterations;
  unsigned NumOrig = L.size();
  unsigned NC = PG.numClusters();
  R.WInsPerCluster.assign(NC, 0.0);

  // Static schedule sanity first; runtime checks follow per instance.
  for (unsigned N = 0; N < PG.size(); ++N)
    if (!S.Nodes[N].Placed) {
      R.Error = formatString("node %u unplaced", N);
      return R;
    }

  std::vector<Rational> Period(PG.size()), Start0(PG.size());
  for (unsigned N = 0; N < PG.size(); ++N) {
    Period[N] = S.periodOf(PG, N);
    Start0[N] = S.startNs(PG, N);
  }

  std::vector<Instance> Timeline;
  Timeline.reserve(static_cast<size_t>(PG.size()) * Iterations);
  for (unsigned N = 0; N < PG.size(); ++N)
    for (int64_t I = 0; I < static_cast<int64_t>(Iterations); ++I)
      Timeline.push_back({Start0[N] + Rational(I) * S.Plan.ITNs, N, I});
  std::sort(Timeline.begin(), Timeline.end(),
            [](const Instance &A, const Instance &B) {
              if (A.IssueNs != B.IssueNs)
                return A.IssueNs < B.IssueNs;
              if (A.Iter != B.Iter)
                return A.Iter < B.Iter;
              return A.Node < B.Node;
            });

  R.Memory = MemoryImage::initial(L, Iterations);
  R.LastValues.assign(NumOrig, 0.0);
  // Full value history per original op (iterations are modest in tests).
  std::vector<std::vector<double>> ValueOf(
      NumOrig, std::vector<double>(Iterations, 0.0));

  auto origValue = [&](unsigned Op, int64_t Iter) -> double {
    if (Iter < 0)
      return initialValue(L.Ops[Op], Iter);
    return ValueOf[Op][static_cast<size_t>(Iter)];
  };

  for (const Instance &Inst : Timeline) {
    const PGNode &Node = PG.node(Inst.Node);

    // Runtime dependence audit: every predecessor instance must have
    // delivered by now under the exact cross-domain rule.
    for (unsigned EIx : PG.inEdges(Inst.Node)) {
      const PGEdge &E = PG.edge(EIx);
      int64_t SrcIter = Inst.Iter - static_cast<int64_t>(E.Distance);
      if (SrcIter < 0)
        continue; // prologue: value comes from the initial-value rule
      Rational SrcIssue = Start0[E.Src] + Rational(SrcIter) * S.Plan.ITNs;
      Rational Ready = SrcIssue + Rational(E.LatencyCycles) * Period[E.Src];
      Rational Arrive =
          crossDomainArrival(Ready, Period[E.Src], Period[Inst.Node]);
      if (Inst.IssueNs < Arrive) {
        R.Error = formatString(
            "iteration %lld: node %u consumed %u before its arrival",
            static_cast<long long>(Inst.Iter), Inst.Node, E.Src);
        return R;
      }
    }

    if (Node.OrigOp < 0) {
      // Copy: pure transport.
      R.Activity.Comms += 1;
      continue;
    }

    unsigned OpIx = static_cast<unsigned>(Node.OrigOp);
    const Operation &O = L.Ops[OpIx];
    double Vals[2] = {0, 0};
    for (unsigned U = 0; U < O.Operands.size(); ++U) {
      const Operand &Use = O.Operands[U];
      switch (Use.Kind) {
      case OperandKind::Def:
        Vals[U] = origValue(Use.Index,
                            Inst.Iter - static_cast<int64_t>(Use.Distance));
        break;
      case OperandKind::LiveIn:
        Vals[U] = L.LiveIns[Use.Index].Value;
        break;
      case OperandKind::Immediate:
        Vals[U] = Use.Imm;
        break;
      }
    }

    double Out = 0;
    int64_t Addr = O.IndexScale * Inst.Iter + O.Offset;
    switch (O.Op) {
    case Opcode::Load:
      Out = R.Memory.load(static_cast<unsigned>(O.Array), Addr);
      R.Activity.MemAccesses += 1;
      break;
    case Opcode::Store:
      R.Memory.store(static_cast<unsigned>(O.Array), Addr, Vals[0]);
      Out = Vals[0];
      R.Activity.MemAccesses += 1;
      break;
    default:
      Out = evalOpcode(O.Op, Vals[0], Vals[1]);
      break;
    }
    ValueOf[OpIx][static_cast<size_t>(Inst.Iter)] = Out;
    if (Inst.Iter == static_cast<int64_t>(Iterations) - 1)
      R.LastValues[OpIx] = Out;

    double W = M.Isa.energy(O.Op);
    R.Activity.WeightedIns += W;
    R.WInsPerCluster[Node.Domain] += W;
  }

  // Execution time: last completion over all instances.
  Rational End(0);
  for (unsigned N = 0; N < PG.size(); ++N) {
    Rational Finish = Start0[N] +
                      Rational(static_cast<int64_t>(Iterations) - 1) *
                          S.Plan.ITNs +
                      Rational(PG.node(N).LatencyCycles) * Period[N];
    End = Rational::max(End, Finish);
  }
  R.TexecNs = End;
  R.Ok = true;
  return R;
}

std::string hcvliw::checkFunctionalEquivalence(const Loop &L,
                                               const PartitionedGraph &PG,
                                               const Schedule &S,
                                               const MachineDescription &M,
                                               uint64_t Iterations) {
  PipelinedResult P = runPipelined(L, PG, S, M, Iterations);
  if (!P.Ok)
    return "pipelined execution failed: " + P.Error;
  FunctionalResult F = runFunctional(L, Iterations);
  if (!(P.Memory == F.Memory))
    return "final memory images differ";
  for (unsigned Op = 0; Op < L.size(); ++Op)
    if (!sameBits(P.LastValues[Op], F.LastValues[Op]))
      return formatString("op %u final value differs", Op);
  return "";
}
