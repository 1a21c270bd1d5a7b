//===- obs/Metrics.cpp - Metrics registry -----------------------------------===//

#include "obs/Metrics.h"

#include "support/StrUtil.h"

#include <algorithm>

using namespace hcvliw;
using namespace hcvliw::obs;

//===----------------------------------------------------------------------===//
// HistogramData
//===----------------------------------------------------------------------===//

void HistogramData::observe(double V) {
  if (Counts.empty())
    Counts.assign(Bounds.size() + 1, 0);
  size_t I = static_cast<size_t>(
      std::upper_bound(Bounds.begin(), Bounds.end(), V) - Bounds.begin());
  ++Counts[I];
  Sum += V;
  if (Count == 0 || V < Min)
    Min = V;
  if (Count == 0 || V > Max)
    Max = V;
  ++Count;
}

std::vector<double> obs::defaultMsBounds() {
  return {0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000, 10000};
}

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

std::string MetricsSnapshot::json() const {
  std::string J = "{\"counters\": {";
  bool First = true;
  for (const auto &KV : Counters) {
    if (!First)
      J += ", ";
    First = false;
    J += formatString("\"%s\": %llu", jsonEscape(KV.first).c_str(),
                      static_cast<unsigned long long>(KV.second));
  }
  J += "}, \"gauges\": {";
  First = true;
  for (const auto &KV : Gauges) {
    if (!First)
      J += ", ";
    First = false;
    J += formatString("\"%s\": %.6g", jsonEscape(KV.first).c_str(), KV.second);
  }
  J += "}, \"histograms\": {";
  First = true;
  for (const auto &KV : Histograms) {
    if (!First)
      J += ", ";
    First = false;
    const HistogramData &H = KV.second;
    double Mean = H.Count ? H.Sum / static_cast<double>(H.Count) : 0;
    J += formatString("\"%s\": {\"count\": %llu, \"sum\": %.6g, "
                      "\"min\": %.6g, \"max\": %.6g, \"mean\": %.6g, "
                      "\"bounds\": [",
                      jsonEscape(KV.first).c_str(),
                      static_cast<unsigned long long>(H.Count), H.Sum, H.Min,
                      H.Max, Mean);
    for (size_t I = 0; I < H.Bounds.size(); ++I)
      J += formatString(I ? ", %.6g" : "%.6g", H.Bounds[I]);
    J += "], \"counts\": [";
    for (size_t I = 0; I < H.Counts.size(); ++I)
      J += formatString(I ? ", %llu" : "%llu",
                        static_cast<unsigned long long>(H.Counts[I]));
    J += "]}";
  }
  J += "}}";
  return J;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

void MetricsRegistry::addCounter(const std::string &Name, uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Data.Counters[Name] += Delta;
}

void MetricsRegistry::setGauge(const std::string &Name, double Value) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Data.Gauges[Name] = Value;
}

void MetricsRegistry::observeMs(const std::string &Name, double Ms) {
  std::lock_guard<std::mutex> Lock(Mutex);
  HistogramData &H = Data.Histograms[Name];
  if (H.Bounds.empty() && H.Count == 0)
    H.Bounds = defaultMsBounds();
  H.observe(Ms);
}

void MetricsRegistry::observe(const std::string &Name, double V,
                              const std::vector<double> &Bounds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  HistogramData &H = Data.Histograms[Name];
  if (H.Bounds.empty() && H.Count == 0)
    H.Bounds = Bounds;
  H.observe(V);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Data;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Data = MetricsSnapshot();
}
