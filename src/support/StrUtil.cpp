//===- support/StrUtil.cpp - String helpers -------------------------------===//

#include "support/StrUtil.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace hcvliw;

std::string hcvliw::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Out;
  if (Needed > 0) {
    Out.resize(static_cast<size_t>(Needed));
    std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  }
  va_end(Args);
  return Out;
}

std::vector<std::string> hcvliw::splitString(std::string_view S,
                                             std::string_view Seps) {
  std::vector<std::string> Tokens;
  size_t I = 0;
  while (I < S.size()) {
    while (I < S.size() && Seps.find(S[I]) != std::string_view::npos)
      ++I;
    size_t Start = I;
    while (I < S.size() && Seps.find(S[I]) == std::string_view::npos)
      ++I;
    if (I > Start)
      Tokens.emplace_back(S.substr(Start, I - Start));
  }
  return Tokens;
}

std::string_view hcvliw::trimString(std::string_view S) {
  size_t B = 0;
  while (B < S.size() && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  size_t E = S.size();
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

bool hcvliw::parseInt64(std::string_view S, int64_t &Out) {
  std::string Buf(S);
  if (Buf.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Buf.c_str(), &End, 10);
  if (errno != 0 || End != Buf.c_str() + Buf.size())
    return false;
  Out = V;
  return true;
}

bool hcvliw::parseUnsigned(std::string_view S, uint64_t Max,
                           uint64_t &Out) {
  // Digits only: strtoull would accept a sign and wrap "-1" to 2^64-1.
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false; // overflow
    V = V * 10 + D;
  }
  if (V > Max)
    return false;
  Out = V;
  return true;
}

std::string hcvliw::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      Out += formatString("\\u%04x", C);
      continue;
    }
    Out += C;
  }
  return Out;
}

bool hcvliw::parseDouble(std::string_view S, double &Out) {
  std::string Buf(S);
  if (Buf.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Buf.c_str(), &End);
  if (errno != 0 || End != Buf.c_str() + Buf.size())
    return false;
  Out = V;
  return true;
}
