//===- support/RecordIO.cpp - Token-framed record serialization -------------===//

#include "support/RecordIO.h"

#include <charconv>
#include <cstring>
#include <limits>

using namespace hcvliw;
using namespace hcvliw::recio;

std::string recio::escToken(std::string_view S) {
  if (S.empty())
    return "\\e";
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case ' ':
      Out += "\\s";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

bool recio::unescToken(std::string_view T, std::string &Out) {
  Out.clear();
  if (T == "\\e")
    return true;
  for (size_t I = 0; I < T.size(); ++I) {
    switch (T[I]) {
    case '\\':
      break;
    case ' ':
    case '\t':
    case '\n':
    case '\v':
    case '\f':
    case '\r':
      return false;
    default:
      Out += T[I];
      continue;
    }
    if (I + 1 >= T.size())
      return false;
    switch (T[++I]) {
    case '\\':
      Out += '\\';
      break;
    case 's':
      Out += ' ';
      break;
    case 'n':
      Out += '\n';
      break;
    case 't':
      Out += '\t';
      break;
    default:
      return false;
    }
  }
  return true;
}

uint32_t recio::crc32(const void *Data, size_t Size) {
  // Slicing-by-8 over the reflected CRC-32 (poly 0xEDB88320): T[0] is
  // the classic bytewise table, and T[K][I] advances T[K-1][I] by one
  // more zero byte, so eight table lookups fold eight input bytes. The
  // tables are a pure function of the polynomial; building them once is
  // safe (magic statics) and deterministic.
  struct Tables {
    uint32_t T[8][256];
    Tables() {
      for (uint32_t I = 0; I < 256; ++I) {
        uint32_t C = I;
        for (int K = 0; K < 8; ++K)
          C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
        T[0][I] = C;
      }
      for (uint32_t I = 0; I < 256; ++I)
        for (int K = 1; K < 8; ++K)
          T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xFFu];
    }
  };
  static const Tables Tab;
  auto le32 = [](const unsigned char *P) {
    return uint32_t(P[0]) | uint32_t(P[1]) << 8 | uint32_t(P[2]) << 16 |
           uint32_t(P[3]) << 24;
  };
  uint32_t C = 0xFFFFFFFFu;
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (; Size >= 8; P += 8, Size -= 8) {
    uint32_t Lo = le32(P) ^ C;
    uint32_t Hi = le32(P + 4);
    C = Tab.T[7][Lo & 0xFFu] ^ Tab.T[6][(Lo >> 8) & 0xFFu] ^
        Tab.T[5][(Lo >> 16) & 0xFFu] ^ Tab.T[4][Lo >> 24] ^
        Tab.T[3][Hi & 0xFFu] ^ Tab.T[2][(Hi >> 8) & 0xFFu] ^
        Tab.T[1][(Hi >> 16) & 0xFFu] ^ Tab.T[0][Hi >> 24];
  }
  for (; Size > 0; ++P, --Size)
    C = Tab.T[0][(C ^ *P) & 0xFFu] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

void Sink::u64(uint64_t V) {
  char B[24];
  raw(std::string_view(B, std::to_chars(B, B + sizeof B, V).ptr - B));
}

void Sink::i64(int64_t V) {
  char B[24];
  raw(std::string_view(B, std::to_chars(B, B + sizeof B, V).ptr - B));
}

void Sink::d(double V) {
  char B[48];
  std::snprintf(B, sizeof B, "%a", V);
  raw(B);
}

std::string_view Source::word() {
  if (Bad_ || AtEnd) {
    Bad_ = true;
    return {};
  }
  const void *Sp = std::memchr(Cur, ' ', Stop - Cur);
  const char *TokEnd = Sp ? static_cast<const char *>(Sp) : Stop;
  std::string_view T(Cur, TokEnd - Cur);
  endToken(TokEnd);
  if (T.empty())
    Bad_ = true;
  return T;
}

namespace {

bool isHexDigit(char C) {
  return (C >= '0' && C <= '9') || (C >= 'a' && C <= 'f') ||
         (C >= 'A' && C <= 'F');
}

} // namespace

std::string Source::str() {
  std::string Out;
  if (!unescToken(word(), Out))
    Bad_ = true;
  return Out;
}

double Source::d() {
  std::string_view T = word();
  bool Neg = !T.empty() && T.front() == '-';
  if (Neg)
    T.remove_prefix(1);
  double V = 0;
  if (T == "inf") {
    V = std::numeric_limits<double>::infinity();
  } else if (T == "nan") {
    V = std::numeric_limits<double>::quiet_NaN();
  } else if (T.size() > 2 && T[0] == '0' && T[1] == 'x' && isHexDigit(T[2])) {
    // from_chars in hex format takes the digits after "0x" and no sign
    // of its own here (the first character is a digit).
    T.remove_prefix(2);
    const char *End = T.data() + T.size();
    auto [Ptr, Ec] = std::from_chars(T.data(), End, V, std::chars_format::hex);
    if (Ec != std::errc() || Ptr != End)
      Bad_ = true;
  } else {
    Bad_ = true;
  }
  if (Bad_)
    return 0;
  return Neg ? -V : V;
}

LineReader::LineReader(std::FILE *Stream)
    : In(Stream), Buf(new char[BlockBytes]), Cap(BlockBytes) {}

bool LineReader::next(std::string_view &Line) {
  for (;;) {
    if (const void *NL = std::memchr(Buf.get() + Begin, '\n', End - Begin)) {
      size_t At = static_cast<const char *>(NL) - Buf.get();
      Line = std::string_view(Buf.get() + Begin, At - Begin);
      Begin = At + 1;
      return true;
    }
    if (Eof) {
      if (Begin == End)
        return false;
      Line = std::string_view(Buf.get() + Begin, End - Begin);
      Begin = End;
      return true;
    }
    // No whole line is buffered: keep the partial one at the front,
    // grow only when it alone fills the buffer, and read the next block.
    std::memmove(Buf.get(), Buf.get() + Begin, End - Begin);
    End -= Begin;
    Begin = 0;
    if (End == Cap) {
      std::unique_ptr<char[]> Wider(new char[Cap * 2]);
      std::memcpy(Wider.get(), Buf.get(), End);
      Buf = std::move(Wider);
      Cap *= 2;
    }
    size_t Got = std::fread(Buf.get() + End, 1, Cap - End, In);
    End += Got;
    if (Got == 0)
      Eof = true;
  }
}
