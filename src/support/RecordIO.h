//===- support/RecordIO.h - Token-framed record serialization ----*- C++ -*-===//
///
/// \file
/// The positional token codec under the persistent cache snapshot
/// (runtime/CachePersist): every record body is
/// ONE line of tokens separated by single spaces, written positionally
/// by a Sink and read back by a mirrored Source. Tokens never contain
/// whitespace: strings are escaped ('\' -> "\\", ' ' -> "\s", '\n' ->
/// "\n", '\t' -> "\t", "" -> "\e"), doubles are hex-floats (%a) and
/// Rationals are num/den token pairs, so every value round-trips
/// bit-exactly.
///
/// The reader is strict, since a snapshot is untrusted input. Tokens
/// split on one ' ' (an empty token, a tab or a trailing space is bad). Integers are strict
/// decimal digits (std::from_chars: no sign on u64, no '+', no
/// overflow). Doubles parse with std::from_chars in hex format after
/// the sign and "0x" are stripped, plus "inf" and "nan", so nothing
/// depends on the C locale. Nothing is read a byte at a time: Source
/// is a cursor over a string_view, LineReader hands out lines as views
/// into a fixed-size block buffer, and crc32 runs slicing-by-8.
///
/// Also provides the CRC-32 (IEEE 802.3, reflected 0xEDB88320) used to
/// checksum persistent-cache record bodies.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SUPPORT_RECORDIO_H
#define HCVLIW_SUPPORT_RECORDIO_H

#include "support/Rational.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

namespace hcvliw {
namespace recio {

/// Escapes \p S into a single whitespace-free token (see file header).
std::string escToken(std::string_view S);

/// Inverse of escToken; false on a malformed escape or on raw
/// whitespace (which escToken never emits).
bool unescToken(std::string_view T, std::string &Out);

/// CRC-32 of \p Size bytes at \p Data (IEEE polynomial, reflected).
uint32_t crc32(const void *Data, size_t Size);
inline uint32_t crc32(std::string_view S) { return crc32(S.data(), S.size()); }

/// Positional token writer: one record body per Sink (clear() starts
/// the next one in the same storage).
class Sink {
  std::string Buf;

public:
  void raw(std::string_view T) {
    if (!Buf.empty())
      Buf += ' ';
    Buf += T;
  }
  void str(std::string_view S) { raw(escToken(S)); }
  void u64(uint64_t V);
  void i64(int64_t V);
  void b(bool V) { raw(V ? "1" : "0"); }
  /// Hex-float (%a): an exact round trip. printf takes its radix
  /// character from LC_NUMERIC; the library never leaves the "C"
  /// locale, and Source::d accepts '.' only.
  void d(double V);
  void rat(const Rational &R) {
    i64(R.num());
    i64(R.den());
  }
  const std::string &line() const { return Buf; }
  void clear() { Buf.clear(); }
};

/// Positional token reader mirroring Sink: a cursor over a view of the
/// line, which must outlive the Source. Integers parse straight from
/// the cursor (std::from_chars stops at the separator); other tokens
/// are split off first. Parse failures latch bad(); subsequent reads
/// return zero values.
class Source {
  const char *Cur;  ///< start of the next token
  const char *Stop; ///< end of the line
  bool AtEnd;       ///< the last token has been consumed
  bool Bad_ = false;

  /// Ends the token that runs up to \p Ptr: it must be followed by the
  /// end of the line or by one separator. False otherwise.
  bool endToken(const char *Ptr) {
    if (Ptr == Stop) {
      Cur = Stop;
      AtEnd = true;
      return true;
    }
    if (*Ptr != ' ')
      return false;
    Cur = Ptr + 1;
    return true;
  }
  /// One integer token. from_chars reads digits only (and '-' for a
  /// signed type): it stops at the separator, and an empty token, a
  /// '+', a second sign or an overflow is an error. Inline: integers
  /// are nearly every token of a snapshot, and three in four are a
  /// single decimal digit (flags, small counts and indices), which
  /// skip from_chars with the same result.
  template <typename Int> Int integer(int Base) {
    Int V = 0;
    if (!Bad_ && !AtEnd) {
      if (Base == 10 && Cur != Stop &&
          static_cast<unsigned>(*Cur - '0') < 10 &&
          (Cur + 1 == Stop || Cur[1] == ' ')) {
        V = static_cast<Int>(*Cur - '0');
        endToken(Cur + 1);
        return V;
      }
      auto [Ptr, Ec] = std::from_chars(Cur, Stop, V, Base);
      if (Ec == std::errc() && endToken(Ptr))
        return V;
    }
    Bad_ = true;
    return 0;
  }

public:
  explicit Source(std::string_view Line)
      : Cur(Line.data()), Stop(Line.data() + Line.size()),
        AtEnd(Line.empty()) {}
  explicit Source(const char *Line) : Source(std::string_view(Line)) {}
  /// A temporary string would die before the cursor is done with it.
  explicit Source(std::string &&) = delete;
  bool bad() const { return Bad_; }
  /// Latches the failure flag from outside: a caller that decodes a
  /// token into a domain type (an enum, a bounded index) and finds it
  /// out of range marks the whole record bad.
  void markBad() { Bad_ = true; }
  /// True when every token was consumed and none failed to parse.
  bool done() const { return !Bad_ && AtEnd; }

  std::string str();
  uint64_t u64() { return integer<uint64_t>(10); }
  int64_t i64() { return integer<int64_t>(10); }
  /// Hexadecimal digits only (the snapshot header's binding).
  uint64_t hex64() { return integer<uint64_t>(16); }
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
  /// The next raw token, unparsed (framing words such as "schema");
  /// bad (and empty) when none is left or it is empty.
  std::string_view word();
};

/// Reads a stream's '\n'-terminated lines through one fixed-size block
/// buffer: each line is a view into it, valid until the next call. The
/// buffer grows only to hold a line longer than a block, never with the
/// file. A last line without '\n' is still a line.
class LineReader {
  std::FILE *In;
  std::unique_ptr<char[]> Buf;
  size_t Cap;
  size_t Begin = 0, End = 0; ///< unread bytes are [Begin, End)
  bool Eof = false;

public:
  static constexpr size_t BlockBytes = 16 * 1024;
  explicit LineReader(std::FILE *Stream);
  /// The next line without its '\n'; false at the end of the stream.
  bool next(std::string_view &Line);
};

} // namespace recio
} // namespace hcvliw

#endif // HCVLIW_SUPPORT_RECORDIO_H
