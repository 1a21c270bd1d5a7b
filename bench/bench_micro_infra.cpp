//===- bench/bench_micro_infra.cpp - Infrastructure microbenchmarks ---------===//
//
// google-benchmark measurements of the scheduling infrastructure itself:
// recMII computation, MinDist matrices and per-edge coarsening slack,
// graph partitioning, modulo scheduling, the pipelined simulator, and
// the full per-program pipeline. These are the costs a compiler
// integrating the technique would pay at -O3.
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "core/HeterogeneousPipeline.h"
#include "ir/MinDist.h"
#include "ir/RecurrenceAnalysis.h"
#include "partition/LoopScheduler.h"
#include "vliwsim/PipelinedSimulator.h"
#include "workloads/SyntheticLoops.h"

#include <benchmark/benchmark.h>

using namespace hcvliw;

static Loop benchLoop(unsigned Ops) {
  RNG Rng(0x5eed + Ops);
  RandomLoopParams P;
  P.MinOps = Ops;
  P.MaxOps = Ops;
  P.Trip = 64;
  return makeRandomLoop(Rng, P, "bench");
}

static void BM_RecMII(benchmark::State &State) {
  Loop L = benchLoop(static_cast<unsigned>(State.range(0)));
  DDG G = DDG::build(L);
  MachineDescription M = MachineDescription::paperDefault();
  auto Lat = M.Isa.nodeLatencies(L);
  for (auto _ : State)
    benchmark::DoNotOptimize(computeRecMII(G, Lat));
}
BENCHMARK(BM_RecMII)->Arg(16)->Arg(48)->Arg(96);

static void BM_MinDist(benchmark::State &State) {
  Loop L = benchLoop(static_cast<unsigned>(State.range(0)));
  DDG G = DDG::build(L);
  MachineDescription M = MachineDescription::paperDefault();
  auto Lat = M.Isa.nodeLatencies(L);
  int64_t II = std::max<int64_t>(1, computeRecMII(G, Lat));
  for (auto _ : State)
    benchmark::DoNotOptimize(MinDistMatrix::compute(G, Lat, II));
}
BENCHMARK(BM_MinDist)->Arg(16)->Arg(48)->Arg(96)->Arg(384)->Arg(768);

static void BM_EdgeSlack(benchmark::State &State) {
  Loop L = benchLoop(static_cast<unsigned>(State.range(0)));
  DDG G = DDG::build(L);
  MachineDescription M = MachineDescription::paperDefault();
  auto Lat = M.Isa.nodeLatencies(L);
  int64_t II = std::max<int64_t>(1, computeRecMII(G, Lat));
  LongestPathScratch Paths;
  std::vector<int64_t> Slack;
  for (auto _ : State) {
    computeEdgeSlack(Slack, G, Lat, II, Paths);
    benchmark::DoNotOptimize(Slack.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EdgeSlack)->Arg(16)->Arg(48)->Arg(96)->Arg(384)->Arg(768);

static void BM_ScheduleLoop(benchmark::State &State) {
  Loop L = benchLoop(static_cast<unsigned>(State.range(0)));
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  C.Clusters[0].PeriodNs = Rational(9, 10);
  for (unsigned I = 1; I < 4; ++I)
    C.Clusters[I].PeriodNs = Rational(27, 20);
  C.Icn.PeriodNs = Rational(9, 10);
  C.Cache.PeriodNs = Rational(9, 10);
  LoopScheduler S(M, C);
  for (auto _ : State) {
    LoopScheduleResult R = S.schedule(L);
    benchmark::DoNotOptimize(R.Success);
  }
}
BENCHMARK(BM_ScheduleLoop)->Arg(16)->Arg(48)->Arg(96);

static void BM_PipelinedSim(benchmark::State &State) {
  Loop L = benchLoop(32);
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  LoopScheduler S(M, C);
  LoopScheduleResult R = S.schedule(L);
  if (!R.Success) {
    State.SkipWithError("schedule failed");
    return;
  }
  uint64_t N = static_cast<uint64_t>(State.range(0));
  for (auto _ : State) {
    PipelinedResult PR = runPipelined(L, R.PG, R.Sched, M, N);
    benchmark::DoNotOptimize(PR.Ok);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N) * L.size());
}
BENCHMARK(BM_PipelinedSim)->Arg(64)->Arg(256);

static void BM_FullProgramPipeline(benchmark::State &State) {
  PipelineOptions Opts;
  HeterogeneousPipeline Pipe(Opts);
  BenchmarkProgram Prog = buildSpecFPProgram("200.sixtrack");
  for (auto _ : State) {
    auto R = Pipe.runProgram(Prog);
    benchmark::DoNotOptimize(R.has_value());
  }
}
BENCHMARK(BM_FullProgramPipeline);

// Expanded BENCHMARK_MAIN: also emits the BENCH_<name>.json artifact
// (wall-clock only; google-benchmark owns the per-kernel numbers).
int main(int argc, char **argv) {
  BenchReporter Reporter("bench_micro_infra");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  Reporter.write();
  return 0;
}
