//===- explore/ExplorationReport.cpp - Frontier serialization ---------------===//

#include "explore/ExplorationReport.h"

#include "support/StrUtil.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace hcvliw;

namespace {

/// Clusters are laid out fast-first by the engine; the first and last
/// cluster carry the fast and slow operating points.
const DomainOperatingPoint &fastCluster(const SelectedDesign &D) {
  return D.Config.Clusters.front();
}
const DomainOperatingPoint &slowCluster(const SelectedDesign &D) {
  return D.Config.Clusters.back();
}

std::string candidateJson(const ExploreCandidate &C, size_t Index) {
  std::string S = formatString(
      "    {\"index\": %zu, \"fast_factor\": \"%s\", \"slow_ratio\": "
      "\"%s\", \"fast_period_ns\": \"%s\", \"slow_period_ns\": \"%s\", "
      "\"valid\": %s, \"on_frontier\": %s",
      Index, C.FastFactor.str().c_str(), C.SlowRatio.str().c_str(),
      C.FastPeriodNs.str().c_str(), C.SlowPeriodNs.str().c_str(),
      C.Design.Valid ? "true" : "false", C.OnFrontier ? "true" : "false");
  if (C.Design.Valid) {
    const SelectedDesign &D = C.Design;
    S += formatString(
        ", \"texec_ns\": %.17g, \"energy\": %.17g, \"ed2\": %.17g, "
        "\"fast_vdd\": %.17g, \"slow_vdd\": %.17g, \"icn_vdd\": %.17g, "
        "\"cache_vdd\": %.17g",
        D.EstTexecNs, D.EstEnergy, D.EstED2, fastCluster(D).Vdd,
        slowCluster(D).Vdd, D.Config.Icn.Vdd, D.Config.Cache.Vdd);
  }
  S += "}";
  return S;
}

} // namespace

std::string ExplorationReport::csv() const {
  std::string Out = "index,fast_factor,slow_ratio,fast_period_ns,"
                    "slow_period_ns,valid,on_frontier,texec_ns,energy,ed2,"
                    "fast_vdd,slow_vdd,icn_vdd,cache_vdd\n";
  for (size_t I = 0; I < Result.Candidates.size(); ++I) {
    const ExploreCandidate &C = Result.Candidates[I];
    Out += formatString("%zu,%s,%s,%s,%s,%d,%d", I,
                        C.FastFactor.str().c_str(),
                        C.SlowRatio.str().c_str(),
                        C.FastPeriodNs.str().c_str(),
                        C.SlowPeriodNs.str().c_str(), C.Design.Valid ? 1 : 0,
                        C.OnFrontier ? 1 : 0);
    if (C.Design.Valid) {
      const SelectedDesign &D = C.Design;
      Out += formatString(",%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g",
                          D.EstTexecNs, D.EstEnergy, D.EstED2,
                          fastCluster(D).Vdd, slowCluster(D).Vdd,
                          D.Config.Icn.Vdd, D.Config.Cache.Vdd);
    } else {
      Out += ",,,,,,,";
    }
    Out += "\n";
  }
  return Out;
}

std::string ExplorationReport::json() const {
  const ExplorationStats &S = Result.Stats;
  std::string Out = "{\n";
  Out += formatString("  \"program\": \"%s\",\n",
                      jsonEscape(Program).c_str());
  Out += formatString(
      "  \"stats\": {\"enumerated\": %zu, "
      "\"feasible\": %zu, \"infeasible\": %zu, \"cache_hits\": %llu, "
      "\"cache_misses\": %llu, \"frontier_size\": %zu, \"threads\": %u, "
      "\"wall_ms\": %.3f},\n",
      S.Enumerated, S.Feasible, S.Infeasible,
      static_cast<unsigned long long>(S.CacheHits),
      static_cast<unsigned long long>(S.CacheMisses), S.FrontierSize,
      S.ThreadsUsed, S.WallMs);
  Out += "  \"frontier\": [";
  for (size_t I = 0; I < Result.Frontier.size(); ++I)
    Out += formatString("%s%zu", I ? ", " : "", Result.Frontier[I]);
  Out += "],\n";
  if (Result.Best.Valid) {
    Out += formatString(
        "  \"best\": {\"texec_ns\": %.17g, \"energy\": %.17g, "
        "\"ed2\": %.17g},\n",
        Result.Best.EstTexecNs, Result.Best.EstEnergy, Result.Best.EstED2);
  } else {
    Out += "  \"best\": null,\n";
  }
  Out += "  \"candidates\": [\n";
  for (size_t I = 0; I < Result.Candidates.size(); ++I) {
    Out += candidateJson(Result.Candidates[I], I);
    Out += I + 1 < Result.Candidates.size() ? ",\n" : "\n";
  }
  Out += "  ]\n}\n";
  return Out;
}

std::string ExplorationReport::summary() const {
  const ExplorationStats &S = Result.Stats;
  TablePrinter T(formatString("Pareto frontier: %s", Program.c_str()));
  T.addRow({"idx", "fast", "slow/fast", "Texec (ns)", "energy", "ED2",
            "best"});
  for (size_t Idx : Result.Frontier) {
    const ExploreCandidate &C = Result.Candidates[Idx];
    bool IsBest =
        Result.Best.Valid && C.Design.EstED2 == Result.Best.EstED2 &&
        C.Design.EstTexecNs == Result.Best.EstTexecNs;
    T.addRow({formatString("%zu", Idx), C.FastFactor.str(),
              C.SlowRatio.str(), formatString("%.1f", C.Design.EstTexecNs),
              formatString("%.4f", C.Design.EstEnergy),
              formatString("%.4g", C.Design.EstED2), IsBest ? "*" : ""});
  }
  std::string Out = T.render();
  Out += formatString(
      "\n%zu candidates (%zu feasible), frontier %zu, cache %llu hits / "
      "%llu misses, %u thread(s), %.2f ms\n",
      S.Enumerated, S.Feasible, S.FrontierSize,
      static_cast<unsigned long long>(S.CacheHits),
      static_cast<unsigned long long>(S.CacheMisses), S.ThreadsUsed,
      S.WallMs);
  return Out;
}

static bool writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *Out = std::fopen(Path.c_str(), "wb");
  if (!Out)
    return false;
  size_t Wrote = std::fwrite(Text.data(), 1, Text.size(), Out);
  return std::fclose(Out) == 0 && Wrote == Text.size();
}

bool ExplorationReport::writeCsv(const std::string &Path) const {
  return writeFile(Path, csv());
}

bool ExplorationReport::writeJson(const std::string &Path) const {
  return writeFile(Path, json());
}
