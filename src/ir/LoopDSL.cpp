//===- ir/LoopDSL.cpp - Textual loop format --------------------------------===//

#include "ir/LoopDSL.h"
#include "support/StrUtil.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>

using namespace hcvliw;

namespace {

/// Operand spelled in the source, resolved after all defs are known.
struct PendingOperand {
  std::string Name;
  unsigned Distance = 0;
  bool IsImmediate = false;
  double Imm = 0;
};

struct PendingOp {
  Operation Op;
  std::vector<PendingOperand> Uses;
  unsigned Line = 0;
};

class Parser {
  std::vector<std::string> Lines;
  ParsedLoops Result;

  bool fail(unsigned Line, const std::string &Msg) {
    Result.Error = formatString("line %u: %s", Line + 1, Msg.c_str());
    Result.Loops.clear();
    return false;
  }

  /// Splits "k=v" into K/V; returns false if Tok has no '='.
  static bool splitKeyVal(const std::string &Tok, std::string &K,
                          std::string &V) {
    size_t Eq = Tok.find('=');
    if (Eq == std::string::npos)
      return false;
    K = Tok.substr(0, Eq);
    V = Tok.substr(Eq + 1);
    return true;
  }

  /// Reads one operand token into \p P; false when the immediate is
  /// not a whole number, the name is empty, or the distance after '@'
  /// is not a whole unsigned decimal that fits an unsigned.
  static bool parseOperandToken(const std::string &Tok, PendingOperand &P) {
    if (!Tok.empty() && Tok[0] == '#') {
      P.IsImmediate = true;
      return parseDouble(std::string_view(Tok).substr(1), P.Imm);
    }
    size_t At = Tok.find('@');
    P.Name = Tok.substr(0, At);
    if (P.Name.empty())
      return false;
    if (At == std::string::npos)
      return true;
    uint64_t D = 0;
    if (!parseUnsigned(std::string_view(Tok).substr(At + 1), UINT32_MAX, D))
      return false;
    P.Distance = static_cast<unsigned>(D);
    return true;
  }

  bool parseLoop(size_t &LineIx, Loop &L, std::vector<PendingOp> &Pending);
  bool resolve(Loop &L, std::vector<PendingOp> &Pending);

public:
  explicit Parser(std::string_view Text) {
    size_t Start = 0;
    while (Start <= Text.size()) {
      size_t End = Text.find('\n', Start);
      if (End == std::string_view::npos)
        End = Text.size();
      std::string Line(Text.substr(Start, End - Start));
      // '#' introduces a comment only at the start of a line (and when
      // followed by whitespace mid-line); '#1.5' spells an immediate.
      std::string_view Lead = trimString(Line);
      if (!Lead.empty() && Lead[0] == '#' &&
          (Lead.size() == 1 || !std::isdigit(static_cast<unsigned char>(
                                   Lead[1])))) {
        Line.clear();
      } else {
        for (size_t I = 0; I + 1 < Line.size(); ++I)
          if (Line[I] == '#' && I > 0 && Line[I - 1] == ' ' &&
              !std::isdigit(static_cast<unsigned char>(Line[I + 1]))) {
            Line.resize(I);
            break;
          }
      }
      Lines.push_back(Line);
      Start = End + 1;
      if (End == Text.size())
        break;
    }
  }

  ParsedLoops run();
};

bool Parser::parseLoop(size_t &LineIx, Loop &L,
                       std::vector<PendingOp> &Pending) {
  auto Header = splitString(Lines[LineIx]);
  assert(Header[0] == "loop");
  if (Header.size() < 2)
    return fail(LineIx, "loop without a name");
  L.Name = Header[1];
  for (size_t T = 2; T < Header.size(); ++T) {
    std::string K, V;
    if (!splitKeyVal(Header[T], K, V))
      return fail(LineIx, "expected key=value, got '" + Header[T] + "'");
    if (K == "trip") {
      int64_t N = 0;
      if (!parseInt64(V, N) || N <= 0)
        return fail(LineIx, "bad trip count '" + V + "'");
      L.TripCount = static_cast<uint64_t>(N);
    } else if (K == "weight") {
      double W = 0;
      // NaN and inf parse as doubles but would poison every profile
      // share the weight feeds.
      if (!parseDouble(V, W) || !(W > 0) || !std::isfinite(W))
        return fail(LineIx, "bad weight '" + V + "'");
      L.Weight = W;
    } else {
      return fail(LineIx, "unknown loop attribute '" + K + "'");
    }
  }
  ++LineIx;

  for (; LineIx < Lines.size(); ++LineIx) {
    auto Tokens = splitString(Lines[LineIx]);
    if (Tokens.empty())
      continue;
    if (Tokens[0] == "endloop")
      return true;
    if (Tokens[0] == "loop")
      return fail(LineIx, "nested 'loop' (missing endloop?)");

    if (Tokens[0] == "arrays") {
      for (size_t T = 1; T < Tokens.size(); ++T)
        L.Arrays.push_back(Tokens[T]);
      continue;
    }
    if (Tokens[0] == "livein") {
      // livein NAME = VALUE
      if (Tokens.size() != 4 || Tokens[2] != "=")
        return fail(LineIx, "expected: livein NAME = VALUE");
      double V = 0;
      if (!parseDouble(Tokens[3], V))
        return fail(LineIx, "bad live-in value '" + Tokens[3] + "'");
      L.LiveIns.push_back({Tokens[1], V});
      continue;
    }

    PendingOp P;
    P.Line = static_cast<unsigned>(LineIx);
    size_t T = 0;
    if (Tokens[0] == "store") {
      P.Op.Op = Opcode::Store;
      T = 1;
    } else {
      if (Tokens.size() < 3 || Tokens[1] != "=")
        return fail(LineIx, "expected: NAME = OPCODE ...");
      P.Op.Name = Tokens[0];
      auto Op = parseOpcode(Tokens[2]);
      if (!Op)
        return fail(LineIx, "unknown opcode '" + Tokens[2] + "'");
      P.Op.Op = *Op;
      T = 3;
    }

    // Memory ops name their array first.
    if (isMemoryOpcode(P.Op.Op)) {
      if (T >= Tokens.size())
        return fail(LineIx, "memory op without an array");
      const std::string &ArrayName = Tokens[T++];
      int Ix = -1;
      for (unsigned A = 0; A < L.Arrays.size(); ++A)
        if (L.Arrays[A] == ArrayName)
          Ix = static_cast<int>(A);
      if (Ix < 0)
        return fail(LineIx, "unknown array '" + ArrayName + "'");
      P.Op.Array = Ix;
    }

    // Value operands, then trailing key=value attributes.
    unsigned WantOperands = numOperandsOf(P.Op.Op);
    for (; T < Tokens.size(); ++T) {
      std::string K, V;
      if (splitKeyVal(Tokens[T], K, V)) {
        int64_t IV = 0;
        double DV = 0;
        if (K == "off" && parseInt64(V, IV))
          P.Op.Offset = IV;
        else if (K == "scale" && parseInt64(V, IV) && IV > 0)
          P.Op.IndexScale = IV;
        else if (K == "init" && parseDouble(V, DV))
          P.Op.InitValue = DV;
        else if (K == "step" && parseDouble(V, DV))
          P.Op.InitStep = DV;
        else
          return fail(LineIx, "bad attribute '" + Tokens[T] + "'");
        continue;
      }
      PendingOperand U;
      if (!parseOperandToken(Tokens[T], U))
        return fail(LineIx, "bad operand '" + Tokens[T] + "'");
      P.Uses.push_back(std::move(U));
    }
    if (P.Uses.size() != WantOperands)
      return fail(LineIx,
                  formatString("opcode '%s' wants %u operands, got %zu",
                               opcodeName(P.Op.Op), WantOperands,
                               P.Uses.size()));
    Pending.push_back(std::move(P));
  }
  return fail(Lines.size() - 1, "missing endloop");
}

bool Parser::resolve(Loop &L, std::vector<PendingOp> &Pending) {
  std::map<std::string, unsigned> DefIx;
  for (unsigned I = 0; I < Pending.size(); ++I) {
    const Operation &O = Pending[I].Op;
    if (!O.definesValue())
      continue;
    if (DefIx.count(O.Name))
      return fail(Pending[I].Line, "redefinition of '" + O.Name + "'");
    if (L.findLiveIn(O.Name) >= 0)
      return fail(Pending[I].Line,
                  "'" + O.Name + "' shadows a live-in");
    DefIx[O.Name] = I;
  }
  for (auto &P : Pending) {
    for (const auto &U : P.Uses) {
      if (U.IsImmediate) {
        P.Op.Operands.push_back(Operand::imm(U.Imm));
        continue;
      }
      auto It = DefIx.find(U.Name);
      if (It != DefIx.end()) {
        P.Op.Operands.push_back(Operand::def(It->second, U.Distance));
        continue;
      }
      int LI = L.findLiveIn(U.Name);
      if (LI >= 0 && U.Distance == 0) {
        P.Op.Operands.push_back(Operand::liveIn(static_cast<unsigned>(LI)));
        continue;
      }
      return fail(P.Line, "unknown value '" + U.Name + "'");
    }
    L.Ops.push_back(std::move(P.Op));
  }
  std::string Err = L.validate();
  if (!Err.empty())
    return fail(Pending.empty() ? 0 : Pending.front().Line,
                "invalid loop: " + Err);
  return true;
}

ParsedLoops Parser::run() {
  for (size_t LineIx = 0; LineIx < Lines.size();) {
    auto Tokens = splitString(Lines[LineIx]);
    if (Tokens.empty()) {
      ++LineIx;
      continue;
    }
    if (Tokens[0] != "loop") {
      fail(LineIx, "expected 'loop', got '" + Tokens[0] + "'");
      return Result;
    }
    Loop L;
    std::vector<PendingOp> Pending;
    if (!parseLoop(LineIx, L, Pending))
      return Result;
    if (!resolve(L, Pending))
      return Result;
    Result.Loops.push_back(std::move(L));
    ++LineIx; // past endloop
  }
  return Result;
}

} // namespace

ParsedLoops hcvliw::parseLoops(std::string_view Text) {
  return Parser(Text).run();
}

Loop hcvliw::parseSingleLoop(std::string_view Text) {
  ParsedLoops P = parseLoops(Text);
  if (!P.ok())
    throw std::invalid_argument("parseSingleLoop: " + P.Error);
  if (P.Loops.size() != 1)
    throw std::invalid_argument(
        formatString("parseSingleLoop: expected one loop, got %zu",
                     P.Loops.size()));
  return std::move(P.Loops.front());
}
