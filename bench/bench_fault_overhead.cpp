//===- bench/bench_fault_overhead.cpp - Cost of the fault layer -------------===//
//
// Pins the two promises the fault injector (src/fault/Fault.h) makes
// about the Figure 5 hot path:
//
//   1. *An idle injector never perturbs results.* Every loop schedule
//      produced with an injector plumbed down — unarmed, or armed with
//      rules that match none of the scheduler's sites — is bit-identical
//      (placements, counters, failure log) to the injector-free
//      baseline. A mismatch here is a real bug — exit code 2, never
//      advisory.
//   2. *Null is free, idle is a branch.* The same sweep-heavy fixture
//      as bench_obs_overhead runs three ways: baseline (no injector
//      anywhere near the call — the production shape), idle (a
//      constructed FaultInjector passed down but never armed — each
//      HCVLIW_FAULT_POINT is a null check plus one relaxed load), and
//      armed-elsewhere (armed with a rule on a site the scheduler never
//      reaches, so every site pays the full match() lookup without
//      firing — the chaos-run worst case that still must not change
//      results). Idle overhead above 2% exits 1 (advisory on shared
//      runners, like the hotpath gates); armed-elsewhere cost is
//      reported but not gated — armed runs are chaos-only.
//
// Writes BENCH_fault_overhead.json (throughputs, overhead percentages)
// via BenchReporter.
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "fault/Fault.h"
#include "partition/LoopScheduler.h"
#include "partition/ScheduleScratch.h"
#include "workloads/SyntheticLoops.h"

#include <chrono>
#include <cstring>

using namespace hcvliw;

namespace {

using Clock = std::chrono::steady_clock;

HeteroConfig heteroConfig(const MachineDescription &M) {
  HeteroConfig C = HeteroConfig::reference(M);
  C.Clusters[0].PeriodNs = Rational(9, 10);
  for (unsigned I = 1; I < C.numClusters(); ++I)
    C.Clusters[I].PeriodNs = Rational(27, 20);
  C.Icn.PeriodNs = Rational(9, 10);
  C.Cache.PeriodNs = Rational(9, 10);
  return C;
}

const MachineDescription &machine() {
  static MachineDescription M = MachineDescription::paperDefault();
  return M;
}

/// The same regime as bench_obs_overhead: sweep-heavy random loops on
/// the 4-frequency relative ladder, so the per-loop fault site
/// (sched.place) is crossed many times per schedule — the densest
/// realistic site traffic for the driver.
const std::vector<Loop> &fixtureLoops() {
  static std::vector<Loop> Loops = [] {
    std::vector<Loop> Ls;
    for (unsigned I = 0; I < 12; ++I) {
      RNG Rng(0x0b5 + 131 * I);
      RandomLoopParams Params;
      Params.MinOps = 16;
      Params.MaxOps = 40;
      Params.Trip = 64;
      Ls.push_back(makeRandomLoop(Rng, Params, "fault"));
    }
    return Ls;
  }();
  return Loops;
}

/// FNV-1a over everything the idle-injector equivalence contract pins:
/// success, every node placement, the effort counters, and the failure
/// log (the same digest as bench_obs_overhead's tracing contract).
uint64_t digest(uint64_t H, const LoopScheduleResult &R) {
  auto mix = [&H](uint64_t V) {
    for (unsigned B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  mix(R.Success ? 1 : 0);
  mix(static_cast<uint64_t>(R.ITSteps));
  mix(R.Placements);
  mix(R.Ejections);
  mix(R.BudgetUsed);
  mix(static_cast<uint64_t>(R.FailureLog.size()));
  for (const ScheduledNode &N : R.Sched.Nodes) {
    mix(N.Placed ? 1 : 0);
    mix(static_cast<uint64_t>(N.Slot));
    mix(N.Unit);
  }
  return H;
}

struct ModeResult {
  double PerSec = 0;   ///< loop-schedules per second
  uint64_t Digest = 0; ///< result digest (identical across modes)
};

/// Times the whole fixture through LoopScheduler::schedule with \p Inj
/// plumbed down (null for the baseline mode).
ModeResult runMode(fault::FaultInjector *Inj, unsigned MinIters,
                   double MinSeconds) {
  const std::vector<Loop> &Loops = fixtureLoops();
  LoopScheduleOptions O;
  O.Menu = FrequencyMenu::relativeLadder(4);
  O.Fault = Inj;
  O.FaultContext = "bench";
  LoopScheduler S(machine(), heteroConfig(machine()), O);
  ScheduleScratch Scratch;
  ModeResult M;
  auto runAll = [&] {
    uint64_t H = 0xcbf29ce484222325ull;
    for (const Loop &L : Loops)
      H = digest(H, S.schedule(L, nullptr, nullptr, &Scratch));
    M.Digest = H; // data dependence: the sweep cannot be elided
  };
  runAll(); // warm-up (arena growth, page-in; not timed)
  unsigned Iters = 0;
  auto Start = Clock::now();
  double Elapsed = 0;
  do {
    runAll();
    ++Iters;
    Elapsed = std::chrono::duration<double>(Clock::now() - Start).count();
  } while (Iters < MinIters || Elapsed < MinSeconds);
  M.PerSec = static_cast<double>(Iters) * Loops.size() / Elapsed;
  return M;
}

} // namespace

int main(int argc, char **argv) {
  unsigned MinIters = 20;
  double MinSeconds = 0.4;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--iters") == 0 && I + 1 < argc) {
      MinIters = static_cast<unsigned>(std::atoi(argv[I + 1]));
      MinSeconds = 0;
      ++I;
    } else {
      std::fprintf(stderr, "usage: bench_fault_overhead [--iters N]\n");
      return 2;
    }
  }

  BenchReporter Reporter("fault_overhead");

  // Baseline: no injector in sight (the library default — every Fault
  // pointer defaulted to null).
  ModeResult Base = runMode(nullptr, MinIters, MinSeconds);

  // Idle: an injector is constructed and plumbed through every layer,
  // but never armed. Each site is a null check plus one relaxed load.
  fault::FaultInjector Inj;
  ModeResult Idle = runMode(&Inj, MinIters, MinSeconds);

  // Armed-elsewhere: a rule targets pool.job, a site the scheduler
  // never reaches, so every sched.* crossing pays the full match()
  // path (mutex + occurrence counter) without firing. Results still
  // must not change — match() only observes.
  std::string PErr;
  auto Plan = fault::FaultPlan::parse(
      "seed 1\non pool.job occurrence 1 throw\n", &PErr);
  if (!Plan) {
    std::fprintf(stderr, "internal error: bad plan: %s\n", PErr.c_str());
    return 2;
  }
  Inj.arm(*Plan);
  ModeResult Armed = runMode(&Inj, MinIters, MinSeconds);
  Inj.disarm();

  double IdlePct = (Base.PerSec / Idle.PerSec - 1.0) * 100.0;
  double ArmedPct = (Base.PerSec / Armed.PerSec - 1.0) * 100.0;
  std::printf("baseline       %.0f loop-schedules/s\n"
              "idle injector  %.0f/s (overhead %+.2f%%)\n"
              "armed (no hit) %.0f/s (overhead %+.2f%%, %llu injected)\n",
              Base.PerSec, Idle.PerSec, IdlePct, Armed.PerSec, ArmedPct,
              static_cast<unsigned long long>(Inj.totalInjected()));

  Reporter.addMetric("loop_schedules_per_sec_baseline", Base.PerSec);
  Reporter.addMetric("loop_schedules_per_sec_idle", Idle.PerSec);
  Reporter.addMetric("loop_schedules_per_sec_armed", Armed.PerSec);
  Reporter.addMetric("overhead_idle_pct", IdlePct);
  Reporter.addMetric("overhead_armed_pct", ArmedPct);
  Reporter.addMetric("fault_injected",
                     static_cast<double>(Inj.totalInjected()));
  Reporter.write();

  // Contract 1 first: identity failures are real failures.
  if (Idle.Digest != Base.Digest || Armed.Digest != Base.Digest) {
    std::fprintf(stderr,
                 "FAIL: results differ across fault modes "
                 "(baseline %016llx, idle %016llx, armed %016llx)\n",
                 static_cast<unsigned long long>(Base.Digest),
                 static_cast<unsigned long long>(Idle.Digest),
                 static_cast<unsigned long long>(Armed.Digest));
    return 2;
  }
  if (Inj.totalInjected() != 0) {
    std::fprintf(stderr,
                 "FAIL: a rule on pool.job fired inside the scheduler\n");
    return 2;
  }

  int Exit = 0;
  if (IdlePct > 2.0) {
    std::fprintf(stderr,
                 "warning: idle-injector overhead %.2f%% — the unarmed "
                 "site should be a branch\n",
                 IdlePct);
    Exit = 1; // advisory on shared runners (CI treats it as a warning)
  }
  return Exit;
}
