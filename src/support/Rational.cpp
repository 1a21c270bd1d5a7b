//===- support/Rational.cpp - Exact rational arithmetic ------------------===//

#include "support/Rational.h"
#include "support/StrUtil.h"

#include <stdexcept>

using namespace hcvliw;

int64_t hcvliw::gcd64(int64_t A, int64_t B) {
  assert(A >= 0 && B >= 0 && "gcd64 expects non-negative operands");
  while (B != 0) {
    int64_t T = A % B;
    A = B;
    B = T;
  }
  return A;
}

int64_t hcvliw::lcm64(int64_t A, int64_t B) {
  if (A == 0 || B == 0)
    return 0;
  int64_t G = gcd64(A, B);
  __int128 R = static_cast<__int128>(A / G) * B;
  assert(R <= INT64_MAX && "lcm64 overflow");
  return static_cast<int64_t>(R);
}

/// Checked in every build type: a silently truncated value would feed
/// a wrong period or IT into everything computed from it.
static int64_t narrow(__int128 V) {
  if (V > INT64_MAX || V < INT64_MIN)
    throw std::overflow_error("rational overflow");
  return static_cast<int64_t>(V);
}

void Rational::normalize() {
  if (Den < 0) {
    Num = -Num;
    Den = -Den;
  }
  int64_t G = gcd64(Num < 0 ? -Num : Num, Den);
  if (G > 1) {
    Num /= G;
    Den /= G;
  }
  if (Num == 0)
    Den = 1;
}

int64_t Rational::floor() const {
  if (Num >= 0)
    return Num / Den;
  return -((-Num + Den - 1) / Den);
}

int64_t Rational::ceil() const {
  if (Num >= 0)
    return (Num + Den - 1) / Den;
  return -((-Num) / Den);
}

// Build Num/Den from a 128-bit pair, reducing before narrowing so that
// transient wide values (common in a*d + c*b) still fit.
static Rational make128(__int128 N, __int128 D) {
  assert(D != 0 && "rational with zero denominator");
  if (D < 0) {
    N = -N;
    D = -D;
  }
  __int128 A = N < 0 ? -N : N;
  __int128 B = D;
  while (B != 0) {
    __int128 T = A % B;
    A = B;
    B = T;
  }
  if (A > 1) {
    N /= A;
    D /= A;
  }
  return Rational(narrow(N), narrow(D));
}

Rational Rational::operator+(const Rational &O) const {
  // Fast path: equal denominators (integers included) add numerator to
  // numerator -- no 128-bit products, and no gcd at all when both are
  // integers. Overflow falls through to the wide path.
  if (Den == O.Den) {
    int64_t N;
    if (!__builtin_add_overflow(Num, O.Num, &N))
      return Den == 1 ? Rational(N) : Rational(N, Den);
  }
  return make128(static_cast<__int128>(Num) * O.Den +
                     static_cast<__int128>(O.Num) * Den,
                 static_cast<__int128>(Den) * O.Den);
}

Rational Rational::operator-(const Rational &O) const {
  if (Den == O.Den) {
    int64_t N;
    if (!__builtin_sub_overflow(Num, O.Num, &N))
      return Den == 1 ? Rational(N) : Rational(N, Den);
  }
  return make128(static_cast<__int128>(Num) * O.Den -
                     static_cast<__int128>(O.Num) * Den,
                 static_cast<__int128>(Den) * O.Den);
}

Rational Rational::operator*(const Rational &O) const {
  // Fast path: integer * integer needs no gcd and no 128-bit product
  // unless the multiplication itself overflows.
  if (Den == 1 && O.Den == 1) {
    int64_t N;
    if (!__builtin_mul_overflow(Num, O.Num, &N))
      return Rational(N);
  }
  return make128(static_cast<__int128>(Num) * O.Num,
                 static_cast<__int128>(Den) * O.Den);
}

Rational Rational::operator/(const Rational &O) const {
  assert(O.Num != 0 && "rational division by zero");
  return make128(static_cast<__int128>(Num) * O.Den,
                 static_cast<__int128>(Den) * O.Num);
}

bool Rational::operator<(const Rational &O) const {
  // Equal denominators (integers included) compare by numerator alone.
  if (Den == O.Den)
    return Num < O.Num;
  return static_cast<__int128>(Num) * O.Den <
         static_cast<__int128>(O.Num) * Den;
}

std::string Rational::str() const {
  if (Den == 1)
    return formatString("%lld", static_cast<long long>(Num));
  return formatString("%lld/%lld", static_cast<long long>(Num),
                      static_cast<long long>(Den));
}
