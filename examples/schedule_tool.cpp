//===- examples/schedule_tool.cpp - Command-line loop scheduler -------------===//
//
// A small driver exposing the library as a tool: read loops in the DSL
// from a file (or stdin), schedule each on a chosen machine
// configuration, and print the schedule, placement, register pressure
// and a functional-equivalence verdict.
//
// Usage:
//   schedule_tool [file.loop] [--fast N/D] [--ratio N/D] [--menu K]
//     --fast   fast-cluster cycle time in ns (default 9/10)
//     --ratio  slow/fast cycle-time ratio   (default 3/2; 1 = uniform)
//     --menu   frequencies per domain       (default: any)
//
// Example loop file:
//   loop dot trip=64
//     arrays A B S
//     x = load A
//     y = load B
//     m = fmul x y
//     s = fadd s@1 m init=0
//     store S s
//   endloop
//
//===----------------------------------------------------------------------===//

#include "ir/LoopDSL.h"
#include "partition/LoopScheduler.h"
#include "runtime/WorkerPool.h"
#include "support/StrUtil.h"
#include "vliwsim/PipelinedSimulator.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace hcvliw;

static bool parseRational(const char *S, Rational &Out) {
  std::string Str(S);
  size_t Slash = Str.find('/');
  int64_t N = 0, D = 1;
  if (Slash == std::string::npos) {
    if (!parseInt64(Str, N))
      return false;
  } else {
    if (!parseInt64(Str.substr(0, Slash), N) ||
        !parseInt64(Str.substr(Slash + 1), D) || D <= 0)
      return false;
  }
  Out = Rational(N, D);
  return Out.isPositive();
}

static std::string readAll(std::FILE *In) {
  std::string Text;
  char Buf[4096];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), In)) > 0)
    Text.append(Buf, Got);
  return Text;
}

int main(int argc, char **argv) {
  Rational Fast(9, 10), Ratio(3, 2);
  unsigned MenuK = 0;
  const char *Path = nullptr;

  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--fast") && I + 1 < argc) {
      if (!parseRational(argv[++I], Fast)) {
        std::fprintf(stderr, "error: bad --fast value\n");
        return 1;
      }
    } else if (!std::strcmp(argv[I], "--ratio") && I + 1 < argc) {
      if (!parseRational(argv[++I], Ratio)) {
        std::fprintf(stderr, "error: bad --ratio value\n");
        return 1;
      }
    } else if (!std::strcmp(argv[I], "--menu") && I + 1 < argc) {
      uint64_t K = 0;
      if (!parseUnsigned(argv[++I], FrequencyMenu::MaxLadderSize, K)) {
        std::fprintf(stderr, "error: --menu expects an integer in [0, %u]\n",
                     FrequencyMenu::MaxLadderSize);
        return 1;
      }
      MenuK = static_cast<unsigned>(K);
    } else if (argv[I][0] != '-') {
      Path = argv[I];
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[I]);
      return 1;
    }
  }

  std::string Text;
  if (Path) {
    std::FILE *In = std::fopen(Path, "rb");
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path);
      return 1;
    }
    Text = readAll(In);
    std::fclose(In);
  } else {
    std::printf("reading loops from stdin...\n");
    Text = readAll(stdin);
  }

  ParsedLoops Parsed = parseLoops(Text);
  if (!Parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", Parsed.Error.c_str());
    return 1;
  }
  if (Parsed.Loops.empty()) {
    std::fprintf(stderr, "error: no loops in input\n");
    return 1;
  }

  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  C.Clusters[0].PeriodNs = Fast;
  for (unsigned I = 1; I < M.numClusters(); ++I)
    C.Clusters[I].PeriodNs = Fast * Ratio;
  C.Icn.PeriodNs = Fast;
  C.Cache.PeriodNs = Fast;

  LoopScheduleOptions Opts;
  if (MenuK > 0)
    Opts.Menu = FrequencyMenu::relativeLadder(MenuK);
  LoopScheduler Sched(M, C, Opts);

  std::printf("machine: 4 clusters, fast %s ns, slow %s ns, %u bus, "
              "menu %s\n\n",
              Fast.str().c_str(), (Fast * Ratio).str().c_str(), M.Buses,
              MenuK ? formatString("%u freqs", MenuK).c_str() : "any");

  // Schedule and verify every loop on the worker-pool substrate
  // (slot-indexed results, so the printed order and exit code are
  // independent of the thread count), then print serially.
  struct LoopOutcome {
    bool Success = false;
    std::string Text;
  };
  std::vector<LoopOutcome> Out(Parsed.Loops.size());
  WorkerPool Pool;
  Pool.parallelFor(Parsed.Loops.size(), [&](size_t I) {
    const Loop &L = Parsed.Loops[I];
    LoopScheduleResult R = Sched.schedule(L);
    LoopOutcome &O = Out[I];
    if (!R.Success) {
      O.Text = formatString("loop '%s': FAILED (%s)\n", L.Name.c_str(),
                            R.Failure.c_str());
      return;
    }
    std::string Err =
        checkFunctionalEquivalence(L, R.PG, R.Sched, M, L.TripCount);
    O.Success = Err.empty();
    O.Text = formatString(
        "loop '%s': recMII=%lld resMII=%lld MIT=%s ns -> "
        "IT=%s ns, comms/iter=%u, %s\n",
        L.Name.c_str(), static_cast<long long>(R.RecMII),
        static_cast<long long>(R.ResMII), R.MITNs.str().c_str(),
        R.Sched.Plan.ITNs.str().c_str(), R.PG.numCopies(),
        Err.empty() ? "functionally EXACT" : Err.c_str());
    O.Text += R.Sched.str(R.PG) + "\n";
  });

  int Rc = 0;
  for (const LoopOutcome &O : Out) {
    std::fputs(O.Text.c_str(), stdout);
    if (!O.Success)
      Rc = 1;
  }
  return Rc;
}
