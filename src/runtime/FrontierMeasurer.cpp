//===- runtime/FrontierMeasurer.cpp - Measured frontier evaluation ----------===//

#include "runtime/FrontierMeasurer.h"

#include "explore/ExplorationEngine.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cstdio>

using namespace hcvliw;

double MeasuredFrontier::meanAbsED2Error() const {
  double Sum = 0;
  size_t N = 0;
  for (const FrontierPointMeasurement &P : Points) {
    if (!P.Measured.Ok)
      continue;
    Sum += P.ED2Error < 0 ? -P.ED2Error : P.ED2Error;
    ++N;
  }
  return N ? Sum / static_cast<double>(N) : 0.0;
}

std::string MeasuredFrontier::csvHeader() {
  return "program,point,candidate,fast_factor,slow_ratio,ok,"
         "est_texec_ns,est_energy,est_ed2,"
         "meas_texec_ns,meas_energy,meas_ed2,"
         "texec_error,energy_error,ed2_error,"
         "measured_rank,est_argmin,meas_argmin\n";
}

std::string MeasuredFrontier::csvRows() const {
  // Point index -> position in the measured re-ranking (-1 when the
  // point could not be measured).
  std::vector<int> RankOf(Points.size(), -1);
  for (size_t R = 0; R < RankByMeasuredED2.size(); ++R)
    RankOf[RankByMeasuredED2[R]] = static_cast<int>(R);

  std::string Out;
  for (size_t I = 0; I < Points.size(); ++I) {
    const FrontierPointMeasurement &P = Points[I];
    Out += formatString("%s,%zu,%zu,%s,%s,%d", Program.c_str(), I,
                        P.Candidate, P.FastFactor.str().c_str(),
                        P.SlowRatio.str().c_str(), P.Measured.Ok ? 1 : 0);
    Out += formatString(",%.17g,%.17g,%.17g", P.Design.EstTexecNs,
                        P.Design.EstEnergy, P.Design.EstED2);
    if (P.Measured.Ok)
      Out += formatString(",%.17g,%.17g,%.17g,%.17g,%.17g,%.17g",
                          P.Measured.TexecNs, P.Measured.Energy,
                          P.Measured.ED2, P.TexecError, P.EnergyError,
                          P.ED2Error);
    else
      Out += ",,,,,,";
    bool IsMeasArgmin = !RankByMeasuredED2.empty() && I == MeasArgmin;
    Out += formatString(",%d,%d,%d\n", RankOf[I],
                        I == EstArgmin ? 1 : 0, IsMeasArgmin ? 1 : 0);
  }
  return Out;
}

std::string MeasuredFrontier::csv() const { return csvHeader() + csvRows(); }

namespace {

std::string frontierJsonBody(const MeasuredFrontier &F) {
  std::string S = formatString("{\"program\": \"%s\", \"points\": [",
                               jsonEscape(F.Program).c_str());
  for (size_t I = 0; I < F.Points.size(); ++I) {
    const FrontierPointMeasurement &P = F.Points[I];
    S += I ? ",\n    " : "\n    ";
    S += formatString(
        "{\"point\": %zu, \"candidate\": %zu, \"fast_factor\": \"%s\", "
        "\"slow_ratio\": \"%s\", \"ok\": %s, \"est_texec_ns\": %.17g, "
        "\"est_energy\": %.17g, \"est_ed2\": %.17g",
        I, P.Candidate, P.FastFactor.str().c_str(),
        P.SlowRatio.str().c_str(), P.Measured.Ok ? "true" : "false",
        P.Design.EstTexecNs, P.Design.EstEnergy, P.Design.EstED2);
    if (P.Measured.Ok)
      S += formatString(
          ", \"meas_texec_ns\": %.17g, \"meas_energy\": %.17g, "
          "\"meas_ed2\": %.17g, \"texec_error\": %.17g, "
          "\"energy_error\": %.17g, \"ed2_error\": %.17g",
          P.Measured.TexecNs, P.Measured.Energy, P.Measured.ED2,
          P.TexecError, P.EnergyError, P.ED2Error);
    S += "}";
  }
  S += F.Points.empty() ? "]" : "\n  ]";
  S += ", \"rank_by_measured_ed2\": [";
  for (size_t I = 0; I < F.RankByMeasuredED2.size(); ++I)
    S += formatString("%s%zu", I ? ", " : "", F.RankByMeasuredED2[I]);
  // No schedule-cache counters here: they are scheduling-dependent
  // diagnostics, and the serialized frontier must be byte-identical
  // for any thread count.
  S += formatString("], \"est_argmin\": %zu, \"meas_argmin\": ",
                    F.EstArgmin);
  S += F.RankByMeasuredED2.empty() ? "null"
                                   : formatString("%zu", F.MeasArgmin);
  S += formatString(", \"argmin_agrees\": %s, "
                    "\"mean_abs_ed2_error\": %.17g}",
                    F.ArgminAgrees ? "true" : "false",
                    F.meanAbsED2Error());
  return S;
}

bool writeStringToFile(const std::string &Data, const std::string &Path) {
  std::FILE *Out = std::fopen(Path.c_str(), "wb");
  if (!Out)
    return false;
  bool Ok = std::fwrite(Data.data(), 1, Data.size(), Out) == Data.size();
  Ok &= std::fclose(Out) == 0;
  return Ok;
}

} // namespace

std::string MeasuredFrontier::json() const {
  return frontierJsonBody(*this) + "\n";
}

bool MeasuredFrontier::writeCsv(const std::string &Path) const {
  return writeStringToFile(csv(), Path);
}

bool MeasuredFrontier::writeJson(const std::string &Path) const {
  return writeStringToFile(json(), Path);
}

bool hcvliw::writeFrontierCsv(const std::vector<MeasuredFrontier> &Frontiers,
                              const std::string &Path) {
  std::string Out = MeasuredFrontier::csvHeader();
  for (const MeasuredFrontier &F : Frontiers)
    Out += F.csvRows();
  return writeStringToFile(Out, Path);
}

bool hcvliw::writeFrontierJson(const std::vector<MeasuredFrontier> &Frontiers,
                               const std::string &Path) {
  std::string Out = "[";
  for (size_t I = 0; I < Frontiers.size(); ++I) {
    Out += I ? ",\n" : "\n";
    Out += frontierJsonBody(Frontiers[I]);
  }
  Out += Frontiers.empty() ? "]\n" : "\n]\n";
  return writeStringToFile(Out, Path);
}

MeasuredFrontier
FrontierMeasurer::measure(const std::string &ProgramName,
                          const std::vector<Loop> &Loops,
                          const ProgramProfile &Profile) const {
  const PipelineOptions &Opts = S.pipelineOptions();
  MeasuredFrontier F;
  F.Program = ProgramName;
  obs::Span FrontierSp(&S.tracer(), "frontier.measure:", ProgramName);

  EnergyModel Energy(Opts.Breakdown, Profile.Totals, Profile.TexecRefNs,
                     S.machine().numClusters());

  // Re-run the search with the frontier on. Candidate timing is
  // memoized through the session EvalCache, so after a selection
  // already ran (pipeline step 3) this re-enumeration is cheap and
  // reproduces the identical grid.
  ExplorationEngine Engine(Profile, S.machine(), Energy, Opts.Tech,
                           S.menu(), Opts.Space);
  ExploreOptions EO;
  EO.Cache = &S.evalCache();
  ExplorationResult R = Engine.explore(S.pool(), EO);

  F.Points.reserve(R.Frontier.size());
  for (size_t Index : R.Frontier) {
    const ExploreCandidate &C = R.Candidates[Index];
    FrontierPointMeasurement P;
    P.Candidate = Index;
    P.FastFactor = C.FastFactor;
    P.SlowRatio = C.SlowRatio;
    P.Design = C.Design;
    F.Points.push_back(std::move(P));
  }

  // Fan the points across the session pool: each point's measurement
  // is a pure function of (point, program, options) written into its
  // own slot, so the result is thread-count-invariant. Per-loop
  // schedules are memoized through the session ScheduleCache; running
  // under the same derived options as pipeline step 4 (whose menu is
  // the session's, both being menuFor of the session options) keeps the
  // cache keys shared with it.
  MeasureOptions MO =
      HeterogeneousPipeline::measureOptionsFor(S.pipelineOptions());
  ScheduleMeasurer Measurer(S.machine(), MO, &S.scheduleCache(),
                            &S.scheduleScratchPool(), &S.tracer(),
                            &S.metrics());

  std::vector<ScheduleLookups> Lookups(F.Points.size());
  S.pool().parallelFor(F.Points.size(), [&](size_t I) {
    FrontierPointMeasurement &P = F.Points[I];
    P.Measured = Measurer.measure(Profile, Loops, P.Design.Config,
                                  P.Design.Scaling, Energy,
                                  /*ED2Objective=*/true, &Lookups[I]);
    if (P.Measured.Ok) {
      P.TexecError = P.Measured.TexecNs / P.Design.EstTexecNs - 1.0;
      P.EnergyError = P.Measured.Energy / P.Design.EstEnergy - 1.0;
      P.ED2Error = P.Measured.ED2 / P.Design.EstED2 - 1.0;
    }
  });

  // Serial reductions in point order: re-rank by measured ED2 and
  // locate the two argmins (first wins on exact ties, matching the
  // engine's estimate-level reduction).
  for (size_t I = 0; I < F.Points.size(); ++I) {
    const FrontierPointMeasurement &P = F.Points[I];
    F.ScheduleHits += Lookups[I].Hits;
    F.ScheduleMisses += Lookups[I].Misses;
    if (P.Design.EstED2 < F.Points[F.EstArgmin].Design.EstED2)
      F.EstArgmin = I;
    if (P.Measured.Ok)
      F.RankByMeasuredED2.push_back(I);
  }
  std::stable_sort(F.RankByMeasuredED2.begin(), F.RankByMeasuredED2.end(),
                   [&](size_t A, size_t B) {
                     return F.Points[A].Measured.ED2 <
                            F.Points[B].Measured.ED2;
                   });
  if (!F.RankByMeasuredED2.empty()) {
    F.MeasArgmin = F.RankByMeasuredED2.front();
    F.ArgminAgrees = F.MeasArgmin == F.EstArgmin;
  }
  if (FrontierSp.active()) {
    FrontierSp.arg("points", static_cast<int64_t>(F.Points.size()));
    FrontierSp.arg("cache_hits", static_cast<int64_t>(F.ScheduleHits));
    FrontierSp.arg("cache_misses", static_cast<int64_t>(F.ScheduleMisses));
  }
  return F;
}
