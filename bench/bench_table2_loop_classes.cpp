//===- bench/bench_table2_loop_classes.cpp - Table 2 reproduction -----------===//
//
// Table 2 of the paper: percentage of execution time each benchmark
// spends in resource-constrained loops (recMII < resMII), borderline
// loops (resMII <= recMII < 1.3 resMII) and recurrence-constrained loops
// (1.3 resMII <= recMII), measured on the reference homogeneous machine
// with one bus. E.g. 171.swim is 100% resource-constrained and
// 200.sixtrack 99.9% recurrence-constrained.
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "profiling/Profiler.h"

using namespace hcvliw;

int main() {
  std::printf("Table 2: %% of execution time in resource- / borderline- / "
              "recurrence-constrained loops (reference machine, 1 bus).\n\n");

  BenchReporter Reporter("bench_table2_loop_classes");
  PipelineOptions Opts;
  // Serial session: this bench only profiles, so the pool stays idle.
  Session S(Opts, /*Threads=*/1);
  Profiler Prof(S.machine());

  TablePrinter T("Table 2: loop constraint classes");
  T.addRow({"program", "recMII<resMII", "resMII<=recMII<1.3resMII",
            "1.3resMII<=recMII"});
  for (const auto &Prog : buildSpecFPSuite()) {
    std::string Err;
    auto Profile = Prof.profileProgram(Prog.Name, Prog.Loops, &Err);
    if (!Profile) {
      std::fprintf(stderr, "error: profiling failed on %s: %s\n",
                   Prog.Name.c_str(), Err.c_str());
      continue;
    }
    auto Sh = Profile->shareByConstraint();
    T.addRow({Prog.Name, formatString("%.2f%%", 100 * Sh[0]),
              formatString("%.2f%%", 100 * Sh[1]),
              formatString("%.2f%%", 100 * Sh[2])});
  }
  T.print();

  std::printf("\nPer-loop classification detail:\n");
  TablePrinter D("loops");
  D.addRow({"program", "loop", "recMII", "resMII", "class", "weight"});
  for (const auto &Prog : buildSpecFPSuite()) {
    auto Profile = Prof.profileProgram(Prog.Name, Prog.Loops);
    if (!Profile)
      continue;
    for (const auto &LP : Profile->Loops)
      D.addRow({Prog.Name, LP.Name,
                formatString("%lld", static_cast<long long>(LP.RecMII)),
                formatString("%lld", static_cast<long long>(LP.ResMII)),
                loopConstraintName(LP.classification()),
                formatString("%.4f", LP.Weight)});
  }
  D.print();
  Reporter.addCacheStats("profile-only", S);
  Reporter.write();
  return 0;
}
