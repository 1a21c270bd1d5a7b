//===- mcd/FrequencyMenu.cpp - Supported clock frequencies ------------------===//

#include "mcd/FrequencyMenu.h"

#include <algorithm>
#include <cassert>

using namespace hcvliw;

FrequencyMenu FrequencyMenu::continuous() { return FrequencyMenu(); }

FrequencyMenu FrequencyMenu::uniform(unsigned K, Rational MaxGHz) {
  assert(K >= 1 && MaxGHz.isPositive() && "bad menu parameters");
  FrequencyMenu M;
  M.MenuKind = Kind::Absolute;
  M.Freqs.reserve(K);
  for (unsigned I = 1; I <= K; ++I)
    M.Freqs.push_back(MaxGHz * Rational(I, K));
  return M;
}

/// Ratios m/d in [1/2, 1], by increasing denominator, deduplicated:
/// 1, 1/2, 2/3, 3/4, 4/5, 3/5, 5/6, 6/7, 5/7, 4/7, 7/8, 5/8, ...
static std::vector<Rational> ratioLadder(unsigned K) {
  std::vector<Rational> Ratios;
  for (int64_t D = 1; Ratios.size() < K && D <= 64; ++D) {
    for (int64_t N = D; 2 * N >= D && Ratios.size() < K; --N) {
      Rational R(N, D);
      bool Seen = false;
      for (const Rational &Have : Ratios)
        if (Have == R)
          Seen = true;
      if (!Seen)
        Ratios.push_back(R);
    }
  }
  std::sort(Ratios.begin(), Ratios.end(),
            [](const Rational &A, const Rational &B) { return B < A; });
  return Ratios;
}

FrequencyMenu FrequencyMenu::dividerLadder(unsigned K, Rational MaxGHz) {
  assert(K >= 1 && MaxGHz.isPositive() && "bad menu parameters");
  FrequencyMenu M;
  M.MenuKind = Kind::Absolute;
  for (const Rational &R : ratioLadder(K))
    M.Freqs.push_back(MaxGHz * R);
  std::sort(M.Freqs.begin(), M.Freqs.end());
  return M;
}

FrequencyMenu FrequencyMenu::relativeLadder(unsigned K) {
  assert(K >= 1 && "bad menu parameters");
  FrequencyMenu M;
  M.MenuKind = Kind::Relative;
  M.Ratios = ratioLadder(K);
  return M;
}

std::optional<std::pair<int64_t, Rational>>
FrequencyMenu::selectIIFreq(const Rational &ITNs,
                            const Rational &FmaxGHz) const {
  assert(ITNs.isPositive() && FmaxGHz.isPositive() && "bad selection query");
  switch (MenuKind) {
  case Kind::Continuous: {
    int64_t II = (ITNs * FmaxGHz).floor();
    if (II < 1)
      return std::nullopt;
    return std::make_pair(II, Rational(II) / ITNs);
  }
  case Kind::Absolute:
    for (auto It = Freqs.rbegin(); It != Freqs.rend(); ++It) {
      if (*It > FmaxGHz)
        continue;
      Rational Slots = *It * ITNs;
      if (Slots.isInteger() && Slots.num() >= 1)
        return std::make_pair(Slots.num(), *It);
    }
    return std::nullopt;
  case Kind::Relative:
    for (const Rational &R : Ratios) {
      Rational F = FmaxGHz * R;
      Rational Slots = F * ITNs;
      if (Slots.isInteger() && Slots.num() >= 1)
        return std::make_pair(Slots.num(), F);
    }
    return std::nullopt;
  }
  return std::nullopt;
}

Rational FrequencyMenu::nextIT(const Rational &ITNs,
                               const Rational &FmaxGHz) const {
  assert(FmaxGHz.isPositive() && "bad frequency bound");
  auto nextFor = [&](const Rational &F) {
    int64_t II = (ITNs * F).floor();
    return Rational(II + 1) / F;
  };
  switch (MenuKind) {
  case Kind::Continuous:
    return nextFor(FmaxGHz);
  case Kind::Absolute: {
    bool Have = false;
    Rational Best;
    for (const Rational &F : Freqs) {
      if (F > FmaxGHz)
        continue;
      Rational Cand = nextFor(F);
      if (!Have || Cand < Best) {
        Best = Cand;
        Have = true;
      }
    }
    assert(Have && "frequency menu has no entry below the domain's fmax");
    return Best;
  }
  case Kind::Relative: {
    bool Have = false;
    Rational Best;
    for (const Rational &R : Ratios) {
      Rational Cand = nextFor(FmaxGHz * R);
      if (!Have || Cand < Best) {
        Best = Cand;
        Have = true;
      }
    }
    assert(Have && "empty relative frequency menu");
    return Best;
  }
  }
  return nextFor(FmaxGHz);
}

std::optional<Rational>
FrequencyMenu::topFrequency(const Rational &FmaxGHz) const {
  switch (MenuKind) {
  case Kind::Continuous:
    return FmaxGHz;
  case Kind::Absolute:
    for (auto It = Freqs.rbegin(); It != Freqs.rend(); ++It)
      if (*It <= FmaxGHz)
        return *It;
    return std::nullopt;
  case Kind::Relative:
    if (Ratios.empty())
      return std::nullopt;
    return FmaxGHz * Ratios.front(); // sorted descending
  }
  return std::nullopt;
}
