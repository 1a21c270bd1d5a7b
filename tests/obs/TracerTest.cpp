//===- tests/obs/TracerTest.cpp - Span tracer unit tests --------------------===//
//
// Pins the tracer's mechanics: spans record exactly when the tracer is
// enabled, null/disabled spans are inert, a full ring wraps by
// overwriting the oldest events (with the loss reported), long names
// truncate safely, and the exported Chrome-trace-event JSON is
// well-formed (checked with a real — if minimal — JSON parser, not
// substring matching) with the fields Perfetto requires on every event
// plus the build-provenance header.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

//===----------------------------------------------------------------------===//
// Minimal recursive-descent JSON well-formedness checker. Accepts
// exactly RFC 8259 structure (objects, arrays, strings with escapes,
// numbers, true/false/null); no semantic model, just validity.
//===----------------------------------------------------------------------===//

class JsonChecker {
  const char *P, *End;

  void ws() {
    while (P != End &&
           (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
  bool lit(const char *S) {
    size_t N = std::strlen(S);
    if (static_cast<size_t>(End - P) < N || std::strncmp(P, S, N) != 0)
      return false;
    P += N;
    return true;
  }
  bool string() {
    if (P == End || *P != '"')
      return false;
    ++P;
    while (P != End && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P == End)
          return false;
      }
      ++P;
    }
    if (P == End)
      return false;
    ++P; // closing quote
    return true;
  }
  bool number() {
    const char *Start = P;
    if (P != End && *P == '-')
      ++P;
    while (P != End && ((*P >= '0' && *P <= '9') || *P == '.' ||
                        *P == 'e' || *P == 'E' || *P == '+' || *P == '-'))
      ++P;
    return P != Start;
  }
  bool value() {
    ws();
    if (P == End)
      return false;
    switch (*P) {
    case '{': {
      ++P;
      ws();
      if (P != End && *P == '}') {
        ++P;
        return true;
      }
      while (true) {
        ws();
        if (!string())
          return false;
        ws();
        if (P == End || *P != ':')
          return false;
        ++P;
        if (!value())
          return false;
        ws();
        if (P != End && *P == ',') {
          ++P;
          continue;
        }
        break;
      }
      if (P == End || *P != '}')
        return false;
      ++P;
      return true;
    }
    case '[': {
      ++P;
      ws();
      if (P != End && *P == ']') {
        ++P;
        return true;
      }
      while (true) {
        if (!value())
          return false;
        ws();
        if (P != End && *P == ',') {
          ++P;
          continue;
        }
        break;
      }
      if (P == End || *P != ']')
        return false;
      ++P;
      return true;
    }
    case '"':
      return string();
    case 't':
      return lit("true");
    case 'f':
      return lit("false");
    case 'n':
      return lit("null");
    default:
      return number();
    }
  }

public:
  explicit JsonChecker(const std::string &S)
      : P(S.data()), End(S.data() + S.size()) {}

  bool valid() {
    if (!value())
      return false;
    ws();
    return P == End;
  }
};

TEST(JsonChecker, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker("{\"a\": [1, -2.5e3, \"x\\\"y\"], "
                          "\"b\": {\"c\": true, \"d\": null}}")
                  .valid());
  EXPECT_FALSE(JsonChecker("{\"a\": }").valid());
  EXPECT_FALSE(JsonChecker("{\"a\": 1,}").valid());
  EXPECT_FALSE(JsonChecker("{\"a\": 1} trailing").valid());
  EXPECT_FALSE(JsonChecker("{\"unterminated).valid()").valid());
}

//===----------------------------------------------------------------------===//
// Exported trace shape: valid JSON, Perfetto-required event fields,
// build-provenance header.
//===----------------------------------------------------------------------===//

TEST(Tracer, ChromeTraceJsonIsWellFormed) {
  obs::Tracer Tr;
  Tr.enable();
  {
    obs::Span Sp(&Tr, "test.span:", "suffix");
    Sp.arg("answer", 42);
  }
  Tr.disable();
  std::string J = Tr.chromeTraceJson();
  EXPECT_TRUE(JsonChecker(J).valid()) << J;
  // The two top-level objects of the trace-event format.
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"otherData\""), std::string::npos);
  // Build provenance rides in the header.
  EXPECT_NE(J.find("\"build\""), std::string::npos);
  EXPECT_NE(J.find("\"git_sha\""), std::string::npos);
}

TEST(Tracer, SpanRecordsOnlyWhenEnabled) {
  obs::Tracer Tr;
  { obs::Span Sp(&Tr, "before.enable"); }
  EXPECT_EQ(Tr.totalEvents(), 0u);

  Tr.enable();
  {
    obs::Span Sp(&Tr, "while.enabled");
    EXPECT_TRUE(Sp.active());
  }
  EXPECT_EQ(Tr.totalEvents(), 1u);
  EXPECT_EQ(Tr.numBuffers(), 1u);

  Tr.disable();
  {
    obs::Span Sp(&Tr, "after.disable");
    EXPECT_FALSE(Sp.active());
  }
  EXPECT_EQ(Tr.totalEvents(), 1u);

  // Null tracer: the documented one-branch no-op.
  obs::Span Null(nullptr, "null.tracer");
  EXPECT_FALSE(Null.active());
}

TEST(Tracer, EventFieldsReachTheExport) {
  obs::Tracer Tr;
  Tr.enable();
  {
    obs::Span Sp(&Tr, "outer");
    obs::Span Inner(&Tr, "measure.config:", "het");
    Inner.arg("loops", 7);
    Inner.arg("failures", 0);
  }
  Tr.disable();
  std::string J = Tr.chromeTraceJson();
  ASSERT_TRUE(JsonChecker(J).valid()) << J;
  // Complete events with the required fields.
  EXPECT_NE(J.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(J.find("\"ts\""), std::string::npos);
  EXPECT_NE(J.find("\"dur\""), std::string::npos);
  EXPECT_NE(J.find("\"pid\""), std::string::npos);
  EXPECT_NE(J.find("\"tid\""), std::string::npos);
  // Name + suffix concatenation and args survive.
  EXPECT_NE(J.find("measure.config:het"), std::string::npos);
  EXPECT_NE(J.find("\"loops\": 7"), std::string::npos);
  // Inner closes before outer: both events exist.
  EXPECT_EQ(Tr.totalEvents(), 2u);
}

TEST(Tracer, RingWrapsOverwritingOldest) {
  obs::Tracer Tr;
  obs::TraceOptions O;
  O.BufferEvents = 16; // the smallest ring enable() allows
  Tr.enable(O);
  for (int I = 0; I < 40; ++I) {
    obs::Span Sp(&Tr, "w", std::to_string(I));
    (void)Sp;
  }
  Tr.disable();
  EXPECT_EQ(Tr.totalEvents(), 40u);
  EXPECT_EQ(Tr.droppedEvents(), 24u);
  std::string J = Tr.chromeTraceJson();
  ASSERT_TRUE(JsonChecker(J).valid()) << J;
  // The newest sixteen survive; the oldest are gone.
  EXPECT_NE(J.find("\"w39\""), std::string::npos);
  EXPECT_NE(J.find("\"w24\""), std::string::npos);
  EXPECT_EQ(J.find("\"w0\""), std::string::npos);
  EXPECT_EQ(J.find("\"w23\""), std::string::npos);
  // The exporter reports the loss.
  EXPECT_NE(J.find("\"dropped_events\": 24"), std::string::npos);
}

TEST(Tracer, LongNamesTruncateSafely) {
  obs::Tracer Tr;
  Tr.enable();
  std::string Long(200, 'x');
  {
    obs::Span Sp(&Tr, "prefix.that.is.fairly.long:", Long);
    (void)Sp;
  }
  Tr.disable();
  EXPECT_EQ(Tr.totalEvents(), 1u);
  std::string J = Tr.chromeTraceJson();
  EXPECT_TRUE(JsonChecker(J).valid()) << J;
  // Truncated to the fixed record capacity, not the full 200+ chars.
  EXPECT_EQ(J.find(Long), std::string::npos);
}

TEST(Tracer, ReenableResetsTheCapture) {
  obs::Tracer Tr;
  Tr.enable();
  { obs::Span Sp(&Tr, "first.capture"); }
  Tr.disable();
  EXPECT_EQ(Tr.totalEvents(), 1u);
  Tr.enable();
  EXPECT_EQ(Tr.totalEvents(), 0u); // fresh epoch, fresh buffers
  { obs::Span Sp(&Tr, "second.capture"); }
  Tr.disable();
  std::string J = Tr.chromeTraceJson();
  EXPECT_NE(J.find("second.capture"), std::string::npos);
  EXPECT_EQ(J.find("first.capture"), std::string::npos);
}

} // namespace
