//===- tests/obs/TraceSuiteIdentityTest.cpp - Tracing never perturbs --------===//
//
// The observability layer's core contract, pinned end-to-end: a full
// SPECfp suite run with the session tracer *enabled* is bit-identical
// to the untraced run, at every thread count. Tracing reads clocks and
// appends to per-thread rings; nothing downstream reads trace state, so
// every measured number (ED2 ratios, execution times, energies, the
// deterministic scheduler-effort counters) must match exactly — the
// tracing analogue of ArenaSuiteTest's arena-inertness pin. Also pins
// that the traced runs actually recorded spans (when the tracer is
// compiled in) and that the exported trace names the suite stages.
//
//===----------------------------------------------------------------------===//

#include "SuiteResultCheck.h"
#include "runtime/SuiteRunner.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

TEST(TraceSuiteIdentity, TracedSuiteBitIdenticalAtEveryThreadCount) {
  PipelineOptions Opts;
  // The reference: untraced, serial.
  SuiteResult Baseline;
  {
    Session S(Opts, 1);
    Baseline = SuiteRunner(S).runSpecFP();
  }
  ASSERT_EQ(Baseline.Names.size(), 10u);
  EXPECT_TRUE(Baseline.Failures.empty());

  for (unsigned Threads : {1u, 2u, 4u}) {
    Session S(Opts, Threads);
    S.tracer().enable();
    SuiteResult Traced = SuiteRunner(S).runSpecFP();
    S.tracer().disable();
    expectSameSuite(Baseline, Traced, EffortCounters::Compare);
#ifndef HCVLIW_NO_TRACE
    // The run really was traced: spans from the suite level down to the
    // per-config measurement recorded, on no more rings than workers.
    EXPECT_GT(S.tracer().totalEvents(), 0u) << Threads;
    EXPECT_GE(S.tracer().numBuffers(), 1u);
    EXPECT_LE(S.tracer().numBuffers(), static_cast<size_t>(Threads));
    std::string J = S.tracer().chromeTraceJson();
    EXPECT_NE(J.find("suite.run"), std::string::npos);
    EXPECT_NE(J.find("program:"), std::string::npos);
    EXPECT_NE(J.find("measure.config:"), std::string::npos);
#endif
  }
}

TEST(TraceSuiteIdentity, MetricsRecordWithoutPerturbing) {
  // Same contract for the metrics registry: the session records
  // stage.program.ms (always on) and the cache counters; none of it
  // feeds back into results.
  PipelineOptions Opts;
  Session A(Opts, 2);
  SuiteResult RA = SuiteRunner(A).runSpecFP();
  obs::MetricsSnapshot Snap = A.metricsSnapshot();
  ASSERT_NE(Snap.Histograms.find("stage.program.ms"),
            Snap.Histograms.end());
  EXPECT_EQ(Snap.Histograms.at("stage.program.ms").Count, 10u);
  EXPECT_NE(Snap.Gauges.find("cache.eval.hits"), Snap.Gauges.end());
  EXPECT_NE(Snap.Counters.find("measure.configs"), Snap.Counters.end());

  Session B(Opts, 2);
  SuiteResult RB = SuiteRunner(B).runSpecFP();
  expectSameSuite(RA, RB, EffortCounters::Compare);
}

} // namespace
