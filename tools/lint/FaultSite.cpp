//===- tools/lint/FaultSite.cpp - Fault-site registry checking --------------===//
//
// The fault layer's determinism story leans on site names: a FaultPlan
// targets sites by literal name, and replaying a plan requires every
// name to identify exactly one code location with the expected kind
// (point vs degrade). This family makes that contract machine-checked:
//
//   - a HCVLIW_FAULT_POINT / HCVLIW_FAULT_DEGRADE call whose site
//     argument is not a string literal cannot be registered — flagged;
//   - every literal must appear in src/fault/FaultSites.def with the
//     matching kind (the parser refuses a "degrade" rule at a point
//     site, so a mismatch would make the site undrivable). The
//     registry is the X-macro the fault library includes: one
//     HCVLIW_FAULT_SITE("<name>", Point|Degrade) per site;
//   - a literal used at two code locations makes plans ambiguous —
//     flagged at the second location;
//   - a registered site no plan can ever hit (no use in the tree) is
//     stale — flagged on the registry file.
//
// Uniqueness is a whole-tree property, so collection is per file and
// checking runs once after the walk (the one cross-file rule family).
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include <fstream>
#include <set>
#include <sstream>

using namespace hcvliw::lint;

void hcvliw::lint::collectFaultSites(const SourceFile &F,
                                     FaultSiteIndex &Idx) {
  const std::vector<Token> &T = F.Toks;
  for (size_t I = 0; I < T.size(); ++I) {
    bool Point = T[I].ident("HCVLIW_FAULT_POINT");
    bool Degrade = T[I].ident("HCVLIW_FAULT_DEGRADE");
    if (!Point && !Degrade)
      continue;
    // The macro definitions themselves (and their NO_FAULT stubs) in
    // fault/Fault.h look like `#define HCVLIW_FAULT_POINT(...)`.
    if (I > 0 && T[I - 1].ident("define"))
      continue;
    if (I + 1 >= T.size() || !T[I + 1].punct("("))
      continue;
    FaultSiteIndex::Use U;
    U.Kind = Point ? "point" : "degrade";
    U.File = F.RelPath;
    U.Line = T[I].Line;
    // The site is the macro's SECOND argument, and must be exactly one
    // string literal (an empty Site reports "non-literal"). Split on
    // top-level commas so a parenthesized injector expression cannot
    // shift the argument positions.
    size_t Close = matchForward(T, I + 1);
    int Depth = 0;
    size_t ArgIdx = 0, ArgBegin = I + 2, ArgEnd = 0;
    for (size_t J = I + 2; J < Close && J < T.size(); ++J) {
      if (T[J].punct("(") || T[J].punct("[") || T[J].punct("{"))
        ++Depth;
      else if (T[J].punct(")") || T[J].punct("]") || T[J].punct("}"))
        --Depth;
      else if (Depth == 0 && T[J].punct(",")) {
        ++ArgIdx;
        if (ArgIdx == 1)
          ArgBegin = J + 1;
        else if (ArgIdx == 2) {
          ArgEnd = J;
          break;
        }
      }
    }
    if (ArgIdx >= 2 && ArgEnd == ArgBegin + 1 &&
        T[ArgBegin].K == Token::Str)
      U.Site = T[ArgBegin].Text;
    Idx.Uses.push_back(std::move(U));
  }
}

void hcvliw::lint::checkFaultSites(const FaultSiteIndex &Idx,
                                   const std::string &Root,
                                   std::vector<Violation> &Out) {
  const std::string RegRel = "src/fault/FaultSites.def";

  // Parse the registry: every HCVLIW_FAULT_SITE("<name>", Point|Degrade)
  // invocation (comments vanish in the lexer; `#define` / `#undef` of
  // the macro are not invocations).
  std::map<std::string, std::string> Registered; // name -> kind
  std::map<std::string, unsigned> RegisteredLine;
  bool HaveRegistry = false;
  {
    std::ifstream In(Root + "/" + RegRel);
    HaveRegistry = static_cast<bool>(In);
    std::stringstream Buf;
    Buf << In.rdbuf();
    const std::vector<Token> T = tokenize(Buf.str());
    for (size_t I = 0; I < T.size(); ++I) {
      if (!T[I].ident("HCVLIW_FAULT_SITE") || I + 1 >= T.size() ||
          !T[I + 1].punct("(") || (I > 0 && T[I - 1].ident("define")))
        continue;
      bool WellFormed =
          I + 5 < T.size() && T[I + 2].K == Token::Str &&
          T[I + 3].punct(",") &&
          (T[I + 4].ident("Point") || T[I + 4].ident("Degrade")) &&
          T[I + 5].punct(")");
      if (!WellFormed) {
        Out.push_back({"fault-site", RegRel, T[I].Line,
                       "malformed registry entry (want "
                       "'HCVLIW_FAULT_SITE(\"<name>\", Point|Degrade)')"});
        continue;
      }
      const std::string &Name = T[I + 2].Text;
      std::string Kind = T[I + 4].ident("Point") ? "point" : "degrade";
      if (!Registered.emplace(Name, Kind).second)
        Out.push_back({"fault-site", RegRel, T[I].Line,
                       "site '" + Name + "' registered twice"});
      else
        RegisteredLine[Name] = T[I].Line;
    }
  }

  if (Idx.Uses.empty())
    return; // tree without fault sites: registry (or its absence) is moot
  if (!HaveRegistry) {
    Out.push_back({"fault-site", Idx.Uses.front().File, Idx.Uses.front().Line,
                   "fault sites are used but " + RegRel + " is missing"});
    return;
  }

  std::map<std::string, const FaultSiteIndex::Use *> FirstUse;
  std::set<std::string> Used;
  for (const FaultSiteIndex::Use &U : Idx.Uses) {
    if (U.Site.empty()) {
      Out.push_back({"fault-site", U.File, U.Line,
                     "fault site must be a string literal (plans target "
                     "sites by name)"});
      continue;
    }
    Used.insert(U.Site);
    auto It = Registered.find(U.Site);
    if (It == Registered.end()) {
      Out.push_back({"fault-site", U.File, U.Line,
                     "site '" + U.Site + "' is not registered in " + RegRel});
    } else if (It->second != U.Kind) {
      Out.push_back({"fault-site", U.File, U.Line,
                     "site '" + U.Site + "' is registered as '" + It->second +
                         "' but used as '" + U.Kind + "'"});
    }
    auto [FIt, Fresh] = FirstUse.emplace(U.Site, &U);
    if (!Fresh)
      Out.push_back({"fault-site", U.File, U.Line,
                     "site '" + U.Site + "' already used at " +
                         FIt->second->File + ":" +
                         std::to_string(FIt->second->Line) +
                         " — a site names exactly one code location"});
  }

  for (const auto &[Name, Kind] : Registered) {
    (void)Kind;
    if (!Used.count(Name))
      Out.push_back({"fault-site", RegRel, RegisteredLine[Name],
                     "site '" + Name +
                         "' is registered but never used — remove it or "
                         "add the code site"});
  }
}
