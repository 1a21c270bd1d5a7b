//===- support/Rational.h - Exact rational arithmetic ----------*- C++ -*-===//
//
// Part of the hcvliw project: a reproduction of "Heterogeneous Clustered
// VLIW Microarchitectures" (Aletà et al., CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational arithmetic over 64-bit integers.
///
/// All clock arithmetic in the heterogeneous machine model (initiation
/// times, per-domain periods, frequencies, absolute schedule times) is
/// performed with this class so that the integrality condition
/// `II_X = IT * f_X` of the paper's Section 2.2 can be tested exactly,
/// never with floating point.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SUPPORT_RATIONAL_H
#define HCVLIW_SUPPORT_RATIONAL_H

#include <cassert>
#include <cstdint>
#include <string>

namespace hcvliw {

/// An exact rational number Num/Den with Den > 0 and gcd(Num, Den) == 1.
///
/// Intermediate products are computed in 128-bit arithmetic and must fit
/// back into 64 bits after normalization, which is ample for the
/// picosecond-scale clock math this library performs; a result that does
/// not fit throws std::overflow_error in every build type.
class Rational {
  int64_t Num = 0;
  int64_t Den = 1;

  void normalize();

public:
  Rational() = default;
  /*implicit*/ Rational(int64_t N) : Num(N), Den(1) {}
  Rational(int64_t N, int64_t D) : Num(N), Den(D) {
    assert(D != 0 && "rational with zero denominator");
    normalize();
  }

  int64_t num() const { return Num; }
  int64_t den() const { return Den; }

  bool isZero() const { return Num == 0; }
  bool isInteger() const { return Den == 1; }
  bool isNegative() const { return Num < 0; }
  bool isPositive() const { return Num > 0; }

  /// Largest integer <= *this.
  int64_t floor() const;
  /// Smallest integer >= *this.
  int64_t ceil() const;

  double toDouble() const { return static_cast<double>(Num) / Den; }

  Rational operator-() const { return Rational(-Num, Den); }
  Rational operator+(const Rational &O) const;
  Rational operator-(const Rational &O) const;
  Rational operator*(const Rational &O) const;
  Rational operator/(const Rational &O) const;

  Rational &operator+=(const Rational &O) { return *this = *this + O; }
  Rational &operator-=(const Rational &O) { return *this = *this - O; }
  Rational &operator*=(const Rational &O) { return *this = *this * O; }
  Rational &operator/=(const Rational &O) { return *this = *this / O; }

  bool operator==(const Rational &O) const {
    return Num == O.Num && Den == O.Den;
  }
  bool operator!=(const Rational &O) const { return !(*this == O); }
  bool operator<(const Rational &O) const;
  bool operator>(const Rational &O) const { return O < *this; }
  bool operator<=(const Rational &O) const { return !(O < *this); }
  bool operator>=(const Rational &O) const { return !(*this < O); }

  /// Multiplicative inverse; *this must be nonzero.
  Rational reciprocal() const {
    assert(Num != 0 && "reciprocal of zero");
    return Rational(Den, Num);
  }

  Rational abs() const { return Num < 0 ? Rational(-Num, Den) : *this; }

  /// Renders "N" for integers and "N/D" otherwise.
  std::string str() const;

  static Rational min(const Rational &A, const Rational &B) {
    return A < B ? A : B;
  }
  static Rational max(const Rational &A, const Rational &B) {
    return A < B ? B : A;
  }
};

/// Greatest common divisor of two non-negative 64-bit integers.
int64_t gcd64(int64_t A, int64_t B);

/// Least common multiple; asserts on overflow.
int64_t lcm64(int64_t A, int64_t B);

} // namespace hcvliw

#endif // HCVLIW_SUPPORT_RATIONAL_H
