//===- support/RecordIO.h - Token-framed record serialization ----*- C++ -*-===//
///
/// \file
/// The positional token codec under the persistent cache snapshot
/// (runtime/CachePersist): every record body is
/// ONE line of space-separated tokens, written positionally by a Sink
/// and read back by a mirrored Source. Tokens never contain spaces:
/// strings are escaped ('\' -> "\\", ' ' -> "\s", '\n' -> "\n",
/// '\t' -> "\t", "" -> "\e"), doubles are hex-floats (%a) and
/// Rationals are num/den token pairs, so every value round-trips
/// bit-exactly and locale-independently.
///
/// Also provides the CRC-32 (IEEE 802.3, reflected 0xEDB88320) used to
/// checksum persistent-cache record bodies.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SUPPORT_RECORDIO_H
#define HCVLIW_SUPPORT_RECORDIO_H

#include "support/Rational.h"

#include <cstdint>
#include <sstream>
#include <string>

namespace hcvliw {
namespace recio {

/// Escapes \p S into a single space-free token (see file header).
std::string escToken(const std::string &S);

/// Inverse of escToken; false on a malformed escape.
bool unescToken(const std::string &T, std::string &Out);

/// CRC-32 of \p Size bytes at \p Data (IEEE polynomial, reflected).
uint32_t crc32(const void *Data, size_t Size);
inline uint32_t crc32(const std::string &S) {
  return crc32(S.data(), S.size());
}

/// Positional token writer: one record body per Sink.
class Sink {
  std::string Buf;

public:
  void raw(const std::string &T) {
    if (!Buf.empty())
      Buf += ' ';
    Buf += T;
  }
  void str(const std::string &S) { raw(escToken(S)); }
  void u64(uint64_t V);
  void i64(int64_t V);
  void b(bool V) { raw(V ? "1" : "0"); }
  /// Hex-float: exact round trip, locale-independent.
  void d(double V);
  void rat(const Rational &R) {
    i64(R.num());
    i64(R.den());
  }
  const std::string &line() const { return Buf; }
};

/// Positional token reader mirroring Sink. Parse failures latch bad();
/// subsequent reads return zero values.
class Source {
  std::istringstream In;
  bool Bad_ = false;

  std::string next() {
    std::string T;
    if (!(In >> T))
      Bad_ = true;
    return T;
  }

public:
  explicit Source(const std::string &Line) : In(Line) {}
  bool bad() const { return Bad_; }
  /// Latches the failure flag from outside: a caller that decodes a
  /// token into a domain type (an enum, a bounded index) and finds it
  /// out of range marks the whole record bad.
  void markBad() { Bad_ = true; }
  /// True when every token was consumed and none failed to parse.
  bool done() {
    std::string T;
    return !Bad_ && !(In >> T);
  }

  std::string str();
  uint64_t u64();
  int64_t i64();
  bool b() { return u64() != 0; }
  double d();
  /// A Rational as Sink::rat writes it: normalized, so the denominator
  /// is positive and the numerator is not INT64_MIN (whose negation
  /// overflows). Anything else marks the record bad.
  Rational rat() {
    int64_t N = i64();
    int64_t D = i64();
    if (D <= 0 || N == INT64_MIN)
      Bad_ = true;
    return Bad_ ? Rational() : Rational(N, D);
  }
};

} // namespace recio
} // namespace hcvliw

#endif // HCVLIW_SUPPORT_RECORDIO_H
