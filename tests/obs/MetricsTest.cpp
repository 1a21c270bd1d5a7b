//===- tests/obs/MetricsTest.cpp - Metrics registry unit tests --------------===//
//
// Pins the metrics half of src/obs/: counters and histogram
// observations recorded from many threads sum *exactly* (checked under
// real WorkerPool concurrency, with snapshots racing the recording —
// this test is part of the TSan CI job, which is what enforces the
// registry's one-lock happens-before story), histogram bucketing
// behaves as documented, and the snapshot JSON is structurally sound.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "runtime/WorkerPool.h"

#include <gtest/gtest.h>

#include <thread>

using namespace hcvliw;

namespace {

TEST(Metrics, CounterSumsAreExactUnderConcurrency) {
  obs::MetricsRegistry Reg;
  WorkerPool Pool(4);
  constexpr size_t N = 10000;

  // Snapshots race the recording: snapshot() is documented safe while
  // recording continues. The values it returns mid-run are unasserted;
  // TSan asserts the synchronization.
  std::thread Racer([&Reg] {
    for (int I = 0; I < 50; ++I)
      (void)Reg.snapshot();
  });
  Pool.parallelFor(N, [&Reg](size_t Slot) {
    Reg.addCounter("race.ones");
    Reg.addCounter("race.slots", Slot);
  });
  Racer.join();

  obs::MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.Counters.at("race.ones"), N);
  EXPECT_EQ(S.Counters.at("race.slots"), N * (N - 1) / 2);
}

TEST(Metrics, HistogramObservationsSumExactlyAcrossThreads) {
  // Four pool participants observe into one histogram; none is lost.
  obs::MetricsRegistry Reg;
  WorkerPool Pool(4);
  constexpr size_t N = 2000;
  Pool.parallelFor(N, [&Reg](size_t Slot) {
    Reg.observeMs("race.ms", static_cast<double>(Slot % 7));
  });
  obs::MetricsSnapshot S = Reg.snapshot();
  const obs::HistogramData &H = S.Histograms.at("race.ms");
  EXPECT_EQ(H.Count, N);
  uint64_t BucketTotal = 0;
  for (uint64_t C : H.Counts)
    BucketTotal += C;
  EXPECT_EQ(BucketTotal, N);
  EXPECT_EQ(H.Min, 0.0);
  EXPECT_EQ(H.Max, 6.0);
}

TEST(Metrics, HistogramBucketing) {
  obs::HistogramData H;
  H.Bounds = {1.0, 10.0};
  H.Counts.assign(3, 0);
  H.observe(0.5);  // < 1        -> bucket 0
  H.observe(1.0);  // [1, 10)    -> bucket 1
  H.observe(5.0);  //            -> bucket 1
  H.observe(100.0); // >= 10     -> overflow
  EXPECT_EQ(H.Counts[0], 1u);
  EXPECT_EQ(H.Counts[1], 2u);
  EXPECT_EQ(H.Counts[2], 1u);
  EXPECT_EQ(H.Count, 4u);
  EXPECT_EQ(H.Min, 0.5);
  EXPECT_EQ(H.Max, 100.0);
  EXPECT_DOUBLE_EQ(H.Sum, 106.5);
}

TEST(Metrics, DefaultMsBoundsShape) {
  std::vector<double> B = obs::defaultMsBounds();
  ASSERT_GE(B.size(), 2u);
  for (size_t I = 1; I < B.size(); ++I)
    EXPECT_LT(B[I - 1], B[I]) << "bounds must ascend";
}

TEST(Metrics, GaugesAndReset) {
  obs::MetricsRegistry Reg;
  Reg.setGauge("pool.threads", 8.0);
  Reg.setGauge("pool.threads", 4.0); // last write wins
  Reg.addCounter("c", 3);
  obs::MetricsSnapshot S = Reg.snapshot();
  EXPECT_DOUBLE_EQ(S.Gauges.at("pool.threads"), 4.0);
  EXPECT_EQ(S.Counters.at("c"), 3u);

  Reg.reset();
  S = Reg.snapshot();
  EXPECT_TRUE(S.Counters.empty());
  EXPECT_TRUE(S.Gauges.empty());
  EXPECT_TRUE(S.Histograms.empty());
}

TEST(Metrics, SnapshotJsonShape) {
  obs::MetricsRegistry Reg;
  Reg.addCounter("cache.eval.hits", 12);
  Reg.setGauge("pool.threads", 2.0);
  Reg.observeMs("stage.loop_schedule.ms", 1.5);
  std::string J = Reg.snapshot().json();
  // Structural sanity (the full JSON grammar check lives in
  // TracerTest's JsonChecker; here the shape assertions suffice).
  EXPECT_EQ(J.front(), '{');
  EXPECT_EQ(J.back(), '}');
  EXPECT_NE(J.find("\"counters\""), std::string::npos);
  EXPECT_NE(J.find("\"gauges\""), std::string::npos);
  EXPECT_NE(J.find("\"histograms\""), std::string::npos);
  EXPECT_NE(J.find("\"cache.eval.hits\": 12"), std::string::npos);
  EXPECT_NE(J.find("\"stage.loop_schedule.ms\""), std::string::npos);
  EXPECT_NE(J.find("\"mean\""), std::string::npos);
  EXPECT_NE(J.find("\"bounds\""), std::string::npos);
  size_t Braces = 0;
  for (char C : J) {
    if (C == '{')
      ++Braces;
    else if (C == '}') {
      ASSERT_GT(Braces, 0u);
      --Braces;
    }
  }
  EXPECT_EQ(Braces, 0u);
}

TEST(Metrics, EmptySnapshotJson) {
  obs::MetricsRegistry Reg;
  std::string J = Reg.snapshot().json();
  EXPECT_NE(J.find("\"counters\": {}"), std::string::npos);
}

} // namespace
