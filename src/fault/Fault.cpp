//===- fault/Fault.cpp - Deterministic fault injection ----------------------===//

#include "fault/Fault.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace hcvliw;
using namespace hcvliw::fault;

const char *hcvliw::fault::faultActionName(FaultAction A) {
  switch (A) {
  case FaultAction::Throw:
    return "throw";
  case FaultAction::BadAlloc:
    return "badalloc";
  case FaultAction::Degrade:
    return "degrade";
  }
  return "?";
}

FaultInjected::FaultInjected(const std::string &Site, std::string_view Context,
                             uint64_t Occurrence)
    : std::runtime_error("fault injected: " + Site + " @ " +
                         std::string(Context) + " #" +
                         std::to_string(Occurrence)),
      Site_(Site) {}

//===----------------------------------------------------------------------===//
// FaultPlan text form
//===----------------------------------------------------------------------===//

namespace {

enum class SiteKind { Point, Degrade };

struct RegisteredSite {
  std::string_view Name;
  SiteKind Kind;
};

constexpr RegisteredSite Sites[] = {
#define HCVLIW_FAULT_SITE(Name, Kind) {Name, SiteKind::Kind},
#include "fault/FaultSites.def"
};

const RegisteredSite *findSite(std::string_view Name) {
  for (const RegisteredSite &S : Sites)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

bool fail(std::string *Err, unsigned LineNo, const std::string &Msg) {
  if (Err)
    *Err = "fault plan line " + std::to_string(LineNo) + ": " + Msg;
  return false;
}

bool parseLine(const std::string &Line, unsigned LineNo, FaultPlan &P,
               std::string *Err) {
  std::istringstream In(Line);
  std::string Tok;
  if (!(In >> Tok))
    return true; // blank
  if (Tok[0] == '#')
    return true;
  if (Tok == "seed") {
    unsigned long long S = 0;
    if (!(In >> S))
      return fail(Err, LineNo, "seed needs an integer");
    P.Seed = S;
    return true;
  }
  if (Tok != "on")
    return fail(Err, LineNo, "expected 'seed' or 'on', got '" + Tok + "'");

  FaultRule R;
  if (!(In >> R.Site))
    return fail(Err, LineNo, "'on' needs a site name");
  const RegisteredSite *Site = findSite(R.Site);
  if (!Site) {
    std::string Known;
    for (const RegisteredSite &S : Sites)
      Known += (Known.empty() ? "" : ", ") + std::string(S.Name);
    return fail(Err, LineNo,
                "unknown fault site '" + R.Site + "' (registered: " + Known +
                    ")");
  }
  std::string Kw;
  if (!(In >> Kw))
    return fail(Err, LineNo, "rule needs a trigger");
  if (Kw == "ctx") {
    if (!(In >> R.Context))
      return fail(Err, LineNo, "'ctx' needs a context string");
    if (!(In >> Kw))
      return fail(Err, LineNo, "rule needs a trigger");
  }
  unsigned long long N = 0;
  if (Kw == "occurrence")
    R.Trigger = FaultTrigger::Nth;
  else if (Kw == "every")
    R.Trigger = FaultTrigger::Every;
  else if (Kw == "prob")
    R.Trigger = FaultTrigger::Prob;
  else
    return fail(Err, LineNo,
                "unknown trigger '" + Kw +
                    "' (want occurrence/every/prob)");
  if (!(In >> N) || N == 0)
    return fail(Err, LineNo, "'" + Kw + "' needs a positive integer");
  if (R.Trigger == FaultTrigger::Prob && N > 100)
    return fail(Err, LineNo, "'prob' percentage must be in [1, 100]");
  R.N = N;
  std::string Act;
  if (!(In >> Act))
    return fail(Err, LineNo, "rule needs an action (throw/badalloc/degrade)");
  if (Act == "throw")
    R.Action = FaultAction::Throw;
  else if (Act == "badalloc")
    R.Action = FaultAction::BadAlloc;
  else if (Act == "degrade")
    R.Action = FaultAction::Degrade;
  else
    return fail(Err, LineNo, "unknown action '" + Act + "'");
  if (R.Action == FaultAction::Degrade && Site->Kind != SiteKind::Degrade)
    return fail(Err, LineNo,
                "'" + R.Site + "' is a point site; only a degrade site "
                "takes a 'degrade' rule");
  std::string Extra;
  if (In >> Extra)
    return fail(Err, LineNo, "trailing token '" + Extra + "'");
  P.Rules.push_back(std::move(R));
  return true;
}

} // namespace

std::optional<FaultPlan> FaultPlan::parse(const std::string &Text,
                                          std::string *Err) {
  FaultPlan P;
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (!parseLine(Line, LineNo, P, Err))
      return std::nullopt;
  }
  return P;
}

std::optional<FaultPlan> FaultPlan::parseFile(const std::string &Path,
                                              std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    if (Err)
      *Err = "cannot read fault plan '" + Path + "'";
    return std::nullopt;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  return parse(Buf.str(), Err);
}

std::string FaultPlan::str() const {
  std::string Out = "seed " + std::to_string(Seed) + "\n";
  for (const FaultRule &R : Rules) {
    Out += "on " + R.Site;
    if (!R.Context.empty())
      Out += " ctx " + R.Context;
    switch (R.Trigger) {
    case FaultTrigger::Nth:
      Out += " occurrence ";
      break;
    case FaultTrigger::Every:
      Out += " every ";
      break;
    case FaultTrigger::Prob:
      Out += " prob ";
      break;
    }
    Out += std::to_string(R.N);
    Out += " ";
    Out += faultActionName(R.Action);
    Out += "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// FaultInjector
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_NO_FAULT

namespace {

/// Pure replayable "coin": FNV-1a over (seed, site, context, count).
/// No RNG stream, so the draw is independent of thread scheduling.
uint64_t probHash(uint64_t Seed, std::string_view Site, std::string_view Ctx,
                  uint64_t Count) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto mixByte = [&H](unsigned char B) {
    H ^= B;
    H *= 0x100000001b3ull;
  };
  auto mixU64 = [&](uint64_t V) {
    for (unsigned I = 0; I < 8; ++I)
      mixByte(static_cast<unsigned char>(V >> (I * 8)));
  };
  mixU64(Seed);
  for (char C : Site)
    mixByte(static_cast<unsigned char>(C));
  mixByte(0x1f);
  for (char C : Ctx)
    mixByte(static_cast<unsigned char>(C));
  mixByte(0x1f);
  mixU64(Count);
  return H;
}

} // namespace

void FaultInjector::arm(const FaultPlan &P) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Plan_ = P;
  Counts.clear();
  Fired.clear();
  Throws_ = BadAllocs_ = Degrades_ = 0;
  Armed_.store(true, std::memory_order_relaxed);
}

std::optional<FaultAction> FaultInjector::match(const char *Site,
                                                std::string_view Ctx,
                                                bool DegradeSite,
                                                uint64_t *Occ) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Key = std::string(Site) + '\x1f' + std::string(Ctx);
  uint64_t N = ++Counts[Key];
  *Occ = N;
  for (const FaultRule &R : Plan_.Rules) {
    if (R.Site != Site)
      continue;
    if (!R.Context.empty() && R.Context != Ctx)
      continue;
    // Degrade rules only make sense at degrade sites (parse refuses
    // them elsewhere, but a plan built in code may still carry one);
    // throw-capable rules fire at either kind.
    if (R.Action == FaultAction::Degrade && !DegradeSite)
      continue;
    bool Fires = false;
    switch (R.Trigger) {
    case FaultTrigger::Nth:
      Fires = N == R.N;
      break;
    case FaultTrigger::Every:
      Fires = N % R.N == 0;
      break;
    case FaultTrigger::Prob:
      Fires = probHash(Plan_.Seed, Site, Ctx, N) % 100 < R.N;
      break;
    }
    if (!Fires)
      continue;
    ++Fired[Site];
    switch (R.Action) {
    case FaultAction::Throw:
      ++Throws_;
      break;
    case FaultAction::BadAlloc:
      ++BadAllocs_;
      break;
    case FaultAction::Degrade:
      ++Degrades_;
      break;
    }
    return R.Action;
  }
  return std::nullopt;
}

void FaultInjector::hit(const char *Site, std::string_view Ctx) {
  uint64_t Occ = 0;
  std::optional<FaultAction> A = match(Site, Ctx, /*DegradeSite=*/false, &Occ);
  if (!A)
    return;
  if (*A == FaultAction::BadAlloc)
    throw std::bad_alloc();
  throw FaultInjected(Site, Ctx, Occ);
}

bool FaultInjector::shouldDegrade(const char *Site, std::string_view Ctx) {
  uint64_t Occ = 0;
  std::optional<FaultAction> A = match(Site, Ctx, /*DegradeSite=*/true, &Occ);
  if (!A)
    return false;
  if (*A == FaultAction::Degrade)
    return true;
  if (*A == FaultAction::BadAlloc)
    throw std::bad_alloc();
  throw FaultInjected(Site, Ctx, Occ);
}

uint64_t FaultInjector::injectedThrows() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Throws_;
}

uint64_t FaultInjector::injectedBadAllocs() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return BadAllocs_;
}

uint64_t FaultInjector::injectedDegrades() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Degrades_;
}

uint64_t FaultInjector::totalInjected() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Throws_ + BadAllocs_ + Degrades_;
}

std::map<std::string, uint64_t> FaultInjector::injectedBySite() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Fired;
}

#endif // HCVLIW_NO_FAULT
