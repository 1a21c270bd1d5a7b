//===- tests/support/UtilTest.cpp - Stats / strings / RNG / tables ----------===//

#include "support/RNG.h"
#include "support/Stats.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

TEST(Stats, Mean) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4, 1}), 2.0);
  EXPECT_NEAR(geomean({2, 2, 2}), 2.0, 1e-12);
}

TEST(Stats, Stddev) {
  EXPECT_DOUBLE_EQ(stddev({5, 5, 5}), 0);
  EXPECT_NEAR(stddev({1, 3}), 1.0, 1e-12);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Stats, Accumulator) {
  Accumulator A;
  A.add(2);
  A.add(6);
  A.add(4);
  EXPECT_EQ(A.count(), 3u);
  EXPECT_DOUBLE_EQ(A.mean(), 4);
  EXPECT_DOUBLE_EQ(A.min(), 2);
  EXPECT_DOUBLE_EQ(A.max(), 6);
  EXPECT_DOUBLE_EQ(A.sum(), 12);
}

TEST(StrUtil, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatString("%.2f", 1.234), "1.23");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(StrUtil, Split) {
  auto T = splitString("  a b\tc  ");
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[0], "a");
  EXPECT_EQ(T[2], "c");
  EXPECT_TRUE(splitString("   ").empty());
}

TEST(StrUtil, Trim) {
  EXPECT_EQ(trimString("  x y  "), "x y");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString(" \t\n "), "");
}

TEST(StrUtil, ParseInt64) {
  int64_t V = 0;
  EXPECT_TRUE(parseInt64("-42", V));
  EXPECT_EQ(V, -42);
  EXPECT_FALSE(parseInt64("12x", V));
  EXPECT_FALSE(parseInt64("", V));
}

TEST(StrUtil, ParseUnsignedAcceptsTheRangeInclusive) {
  uint64_t V = 99;
  EXPECT_TRUE(parseUnsigned("0", 1024, V));
  EXPECT_EQ(V, 0u); // 0 keeps its per-flag meaning (hardware, any, off)
  EXPECT_TRUE(parseUnsigned("1024", 1024, V));
  EXPECT_EQ(V, 1024u);
  EXPECT_TRUE(parseUnsigned("007", 8, V));
  EXPECT_EQ(V, 7u);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(StrUtil, ParseUnsignedRejectsWithoutTouchingOut) {
  // Each of these used to be read by atoi/strtoull: "-1" wrapped to
  // four billion menu entries, "x" and "abc" silently became 0.
  for (const char *Bad : {"-1", "x", "abc", "", " 3", "3 ", "+3", "3.0",
                          "0x10", "1025", "18446744073709551616",
                          "99999999999999999999999"}) {
    uint64_t V = 42;
    EXPECT_FALSE(parseUnsigned(Bad, 1024, V)) << "'" << Bad << "'";
    EXPECT_EQ(V, 42u) << "'" << Bad << "'";
  }
}

TEST(StrUtil, ParseDouble) {
  double V = 0;
  EXPECT_TRUE(parseDouble("2.5", V));
  EXPECT_DOUBLE_EQ(V, 2.5);
  EXPECT_FALSE(parseDouble("abc", V));
}

TEST(RNG, Deterministic) {
  RNG A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNG, DifferentSeedsDiffer) {
  RNG A(1), B(2);
  bool AnyDiff = false;
  for (int I = 0; I < 10; ++I)
    AnyDiff |= A.next() != B.next();
  EXPECT_TRUE(AnyDiff);
}

TEST(RNG, RangesRespected) {
  RNG R(7);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = R.nextInt(-3, 5);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

// Golden pin: seed 42's first draws, fixed forever. A platform or
// refactor that changes the stream breaks reproducibility of every
// seeded experiment; this test makes that loud.
TEST(RNG, CrossPlatformGoldenStream) {
  RNG R(42);
  const uint64_t Expected[] = {0x15780b2e0c2ec716ull, 0x6104d9866d113a7eull,
                               0xae17533239e499a1ull, 0xecb8ad4703b360a1ull};
  for (uint64_t E : Expected)
    EXPECT_EQ(R.next(), E);
  RNG D(RNG::DefaultSeed);
  EXPECT_EQ(D.next(), 0x422ea740d0977210ull);
}

TEST(RNG, ForkIsDeterministicAndIndependent) {
  RNG Root(42);
  RNG A = Root.fork(7), B = Root.fork(7), C = Root.fork(8);
  EXPECT_EQ(A.next(), 0x618b064163aac1e2ull); // pinned child stream
  (void)B;
  // Same stream id twice agrees, different stream ids diverge, and
  // forking does not advance the parent.
  RNG X = Root.fork(9), Y = Root.fork(9);
  bool Same = true, Diff = false;
  for (int I = 0; I < 20; ++I) {
    uint64_t V = X.next();
    Same &= V == Y.next();
    Diff |= V != C.next();
  }
  EXPECT_TRUE(Same);
  EXPECT_TRUE(Diff);
  RNG Fresh(42);
  EXPECT_EQ(Root.next(), Fresh.next());
}

TEST(RNG, NextIntFullRangeIsDefined) {
  RNG R(5);
  for (int I = 0; I < 10; ++I) {
    int64_t V = R.nextInt(INT64_MIN, INT64_MAX);
    (void)V; // any value is in range; this must not divide by zero
  }
  for (int I = 0; I < 100; ++I) {
    int64_t V = R.nextInt(INT64_MAX - 2, INT64_MAX);
    EXPECT_GE(V, INT64_MAX - 2);
  }
}

TEST(RNG, ShuffleIsPermutation) {
  RNG R(11);
  std::vector<int> V = {1, 2, 3, 4, 5, 6};
  auto Sorted = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Sorted);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T("t");
  T.addRow({"a", "bbbb"});
  T.addRow({"cccc", "d"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("== t =="), std::string::npos);
  EXPECT_NE(Out.find("a     bbbb"), std::string::npos);
  EXPECT_NE(Out.find("cccc  d"), std::string::npos);
}

TEST(TablePrinter, EmptyAndRagged) {
  TablePrinter T;
  EXPECT_EQ(T.render(), "");
  T.addRow({"h1", "h2", "h3"});
  T.addRow({"x"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("h3"), std::string::npos);
}

} // namespace
