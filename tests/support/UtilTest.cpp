//===- tests/support/UtilTest.cpp - Stats, strings, RNG, tables, recio ----===//

#include "support/RNG.h"
#include "support/RecordIO.h"
#include "support/Stats.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstring>
#include <limits>

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

TEST(RecordIO, RatRoundTripsWhatTheSinkWrites) {
  recio::Sink Out;
  Out.rat(Rational(-7, 3));
  Out.rat(Rational(0));
  Out.rat(Rational(INT64_MAX, 2));
  recio::Source In(Out.line());
  EXPECT_EQ(In.rat(), Rational(-7, 3));
  EXPECT_EQ(In.rat(), Rational(0));
  EXPECT_EQ(In.rat(), Rational(INT64_MAX, 2));
  EXPECT_TRUE(In.done());
}

TEST(RecordIO, RatRejectsWhatTheSinkNeverWrites) {
  // A snapshot is untrusted input: a token pair that no normalized
  // Rational produces marks the record bad instead of reaching the
  // constructor (zero denominator) or normalize() (INT64_MIN negation).
  for (const char *Line : {"5 0", "5 -2", "0 0", "5 -9223372036854775808",
                           "-9223372036854775808 1"}) {
    recio::Source In(Line);
    EXPECT_EQ(In.rat(), Rational()) << Line;
    EXPECT_TRUE(In.bad()) << Line;
    EXPECT_FALSE(In.done()) << Line;
  }
}

// --- the reader's contract: exactly what Sink writes, nothing else -------

TEST(RecordIO, IntegersAreStrictDecimal) {
  for (const char *Line : {"+1", "-1", "18446744073709551616", "1e3", "0x10",
                           "", " 1", "1\t2", "12a"}) {
    recio::Source In(Line);
    EXPECT_EQ(In.u64(), 0u) << '"' << Line << '"';
    EXPECT_TRUE(In.bad()) << '"' << Line << '"';
    EXPECT_FALSE(In.done()) << '"' << Line << '"';
  }
  for (const char *Line : {"9223372036854775808", "-9223372036854775809",
                           "+1", "--1", "-", "1.0"}) {
    recio::Source In(Line);
    EXPECT_EQ(In.i64(), 0) << Line;
    EXPECT_TRUE(In.bad()) << Line;
  }
  recio::Source In("18446744073709551615 -9223372036854775808 0 -0 007");
  EXPECT_EQ(In.u64(), UINT64_MAX);
  EXPECT_EQ(In.i64(), INT64_MIN);
  EXPECT_EQ(In.u64(), 0u);
  EXPECT_EQ(In.i64(), 0);
  EXPECT_EQ(In.u64(), 7u);
  EXPECT_TRUE(In.done());
  // A missing token is bad, and so is reading past the end.
  EXPECT_EQ(In.u64(), 0u);
  EXPECT_TRUE(In.bad());
}

TEST(RecordIO, SeparatorIsOneSpace) {
  // Sink writes single spaces; a tab-separated body, a doubled, leading
  // or trailing space is not something it writes.
  for (const char *Line : {"1\t2", "1  2", " 1 2", "1 2 ", "1\n2", "1\r"}) {
    recio::Source In(Line);
    In.u64();
    In.u64();
    EXPECT_FALSE(In.done()) << '"' << Line << '"';
  }
  for (const char *Line : {"a\tb", "a\rb", "\\q", "a\\"}) {
    recio::Source In(Line);
    In.str();
    EXPECT_TRUE(In.bad()) << '"' << Line << '"';
  }
  recio::Source Empty("");
  EXPECT_TRUE(Empty.done()); // no tokens, all consumed
}

TEST(RecordIO, StringsRoundTripWhatTheSinkWrites) {
  recio::Sink Out;
  for (const char *S : {"", "plain", "two words", "tab\there", "back\\slash",
                        "line\nbreak", "\\e"})
    Out.str(S);
  recio::Source In(Out.line());
  for (const char *S : {"", "plain", "two words", "tab\there", "back\\slash",
                        "line\nbreak", "\\e"})
    EXPECT_EQ(In.str(), S);
  EXPECT_TRUE(In.done());
}

uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

TEST(RecordIO, DoublesRoundTripBitExactly) {
  const double Values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           DBL_MIN,
                           DBL_MAX,
                           -DBL_MAX,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           0.1,
                           -1.0 / 3,
                           1e300,
                           123456.789};
  recio::Sink Out;
  for (double V : Values)
    Out.d(V);
  recio::Source In(Out.line());
  for (double V : Values)
    EXPECT_EQ(bitsOf(In.d()), bitsOf(V)) << V;
  EXPECT_TRUE(In.done()) << Out.line();
}

TEST(RecordIO, DoublesRefuseWhatTheSinkNeverWrites) {
  // Hex-floats with their "0x" prefix, "inf" and "nan" only: no
  // decimal form, no '+', no sign after the prefix, no trailing text.
  for (const char *Line : {"1.5", "+0x1p+0", "0x-1p+0", "0x", "0xp+0",
                           "0x1p+0x", "0x1q", "infinity", "-nan(1)", "INF",
                           "--0x1p+0", "", "0x1,8p+0", "0X1p+0"}) {
    recio::Source In(Line);
    EXPECT_EQ(bitsOf(In.d()), 0u) << '"' << Line << '"';
    EXPECT_TRUE(In.bad()) << '"' << Line << '"';
    EXPECT_FALSE(In.done()) << '"' << Line << '"';
  }
  recio::Source Trailing("0x1p+0 ");
  EXPECT_EQ(Trailing.d(), 1.0);
  EXPECT_FALSE(Trailing.done()); // an empty last token is left
}

TEST(RecordIO, SourceOverALiteralIsClean) {
  // The cursor views the caller's bytes; a literal outlives it. Built
  // and exhausted token by token, it never reads past the literal (the
  // sanitizer CI job runs this).
  recio::Source In("7 0x1p-1 word");
  EXPECT_EQ(In.u64(), 7u);
  EXPECT_EQ(In.d(), 0.5);
  EXPECT_EQ(In.str(), "word");
  EXPECT_TRUE(In.done());
  EXPECT_EQ(In.i64(), 0);
  EXPECT_TRUE(In.bad());
}

TEST(RecordIO, LineReaderSplitsAcrossBlocksAndGrowsForLongLines) {
  // Lines that straddle block boundaries, one longer than two blocks
  // (the buffer grows for it), an empty line, and a last line with no
  // '\n'.
  const size_t Block = recio::LineReader::BlockBytes;
  std::vector<std::string> Lines = {"first", std::string(Block - 3, 'a'),
                                    "", std::string(2 * Block + 5, 'b'),
                                    "x y", std::string(Block, 'c'), "tail"};
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  for (size_t I = 0; I < Lines.size(); ++I) {
    std::fputs(Lines[I].c_str(), F);
    if (I + 1 < Lines.size())
      std::fputc('\n', F);
  }
  std::rewind(F);
  recio::LineReader In(F);
  std::string_view Line;
  for (const std::string &Want : Lines) {
    ASSERT_TRUE(In.next(Line));
    EXPECT_EQ(Line, Want);
  }
  EXPECT_FALSE(In.next(Line));
  std::fclose(F);
}

/// The bytewise reference CRC-32 (reflected 0xEDB88320, no table) the
/// slicing-by-8 implementation must match.
uint32_t crc32Reference(const unsigned char *P, size_t N) {
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I < N; ++I) {
    C ^= P[I];
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return C ^ 0xFFFFFFFFu;
}

TEST(RecordIO, Crc32MatchesTheBytewiseReference) {
  EXPECT_EQ(recio::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(recio::crc32(""), 0u);
  unsigned char Buf[80];
  RNG R(0xc5c32);
  for (unsigned char &B : Buf)
    B = static_cast<unsigned char>(R.next());
  // Every length from 0 to 64, at every offset within an 8-byte word,
  // so each tail length meets each alignment.
  for (size_t Off = 0; Off < 8; ++Off)
    for (size_t Len = 0; Len <= 64; ++Len)
      EXPECT_EQ(recio::crc32(Buf + Off, Len), crc32Reference(Buf + Off, Len))
          << "offset " << Off << " length " << Len;
}

} // namespace
