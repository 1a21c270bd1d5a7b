//===- tests/TextMutator.h - Seeded mutations of a text format ---*- C++ -*-===//
//
// Shared by the hostile-input tests of the line-oriented text readers
// (the loop DSL, fault plans): one seeded mutation of a valid text, of
// the kinds a hand edit or a torn file produces. Tokens are runs of
// characters other than ' ' and '\n', so a mutation keeps the line
// structure unless it truncates.
//
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_TESTS_TEXTMUTATOR_H
#define HCVLIW_TESTS_TEXTMUTATOR_H

#include "support/RNG.h"

#include <string>
#include <utility>
#include <vector>

namespace hcvliw {

/// [Begin, End) spans of \p Text where \p In holds, maximal.
template <typename Pred>
std::vector<std::pair<size_t, size_t>> textSpans(const std::string &Text,
                                                 Pred In) {
  std::vector<std::pair<size_t, size_t>> Spans;
  for (size_t I = 0; I < Text.size();) {
    if (!In(Text[I])) {
      ++I;
      continue;
    }
    size_t B = I;
    while (I < Text.size() && In(Text[I]))
      ++I;
    Spans.push_back({B, I});
  }
  return Spans;
}

/// One seeded mutation of \p Text: a token deleted or duplicated, a
/// digit changed, the sign of a number flipped, a number replaced by a
/// boundary token, or a truncation.
inline std::string mutateText(const std::string &Text, RNG &R) {
  auto Tokens =
      textSpans(Text, [](char C) { return C != ' ' && C != '\n'; });
  auto Numbers = textSpans(Text, [](char C) { return C >= '0' && C <= '9'; });
  auto pick = [&](size_t N) {
    return static_cast<size_t>(R.nextInt(0, static_cast<int64_t>(N) - 1));
  };
  std::string Out = Text;
  int64_t Kind = R.nextInt(0, 5);
  if ((Kind <= 1 && Tokens.empty()) || (Kind >= 2 && Kind <= 4 &&
                                        Numbers.empty()))
    Kind = 5;
  switch (Kind) {
  case 0: { // delete a token
    auto [B, E] = Tokens[pick(Tokens.size())];
    Out.erase(B, E - B);
    break;
  }
  case 1: { // duplicate a token
    auto [B, E] = Tokens[pick(Tokens.size())];
    Out.insert(E, " " + Text.substr(B, E - B));
    break;
  }
  case 2: { // change one digit
    auto [B, E] = Numbers[pick(Numbers.size())];
    Out[B + pick(E - B)] = static_cast<char>('0' + R.nextInt(0, 9));
    break;
  }
  case 3: { // flip the sign of a number
    size_t B = Numbers[pick(Numbers.size())].first;
    if (B > 0 && Out[B - 1] == '-')
      Out.erase(B - 1, 1);
    else
      Out.insert(B, "-");
    break;
  }
  case 4: { // a boundary token where a number was
    static const std::vector<std::string> Edge = {
        "0", "-1", "4294967296", "18446744073709551616", "1x"};
    auto [B, E] = Numbers[pick(Numbers.size())];
    Out.replace(B, E - B, R.pick(Edge));
    break;
  }
  default: // truncate
    Out.resize(Text.empty() ? 0 : pick(Text.size()));
    break;
  }
  return Out;
}

} // namespace hcvliw

#endif // HCVLIW_TESTS_TEXTMUTATOR_H
