//===- tests/fault/FaultPlanTest.cpp - Fault plan + injector units ----------===//
//
// The src/fault unit contracts: the plan grammar parses and str()
// round-trips exactly; malformed plans, plans naming an unregistered
// site and degrade rules at point sites are rejected with an error; an
// armed injector fires at exact, replayable (site, context) occurrence
// counts — re-arming the same plan and replaying the same hit sequence
// reproduces the same injections; Prob rules are a pure function of
// (seed, site, context, count), not an RNG stream.
//
//===----------------------------------------------------------------------===//

#include "TextMutator.h"
#include "fault/Fault.h"

#include <gtest/gtest.h>

#include <new>
#include <optional>

using namespace hcvliw::fault;

namespace {

// --- plan grammar ----------------------------------------------------------

TEST(FaultPlan, ParsesEveryRuleShape) {
  std::string Err;
  auto P = FaultPlan::parse("# chaos plan\n"
                            "seed 42\n"
                            "\n"
                            "on sched.place ctx 171.swim/loop2 occurrence 3 throw\n"
                            "on measure.config occurrence 1 badalloc\n"
                            "on part.coarsen every 2 degrade\n"
                            "on pool.job prob 25 throw\n",
                            &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  EXPECT_EQ(P->Seed, 42u);
  ASSERT_EQ(P->Rules.size(), 4u);
  EXPECT_EQ(P->Rules[0].Site, "sched.place");
  EXPECT_EQ(P->Rules[0].Context, "171.swim/loop2");
  EXPECT_EQ(P->Rules[0].Trigger, FaultTrigger::Nth);
  EXPECT_EQ(P->Rules[0].N, 3u);
  EXPECT_EQ(P->Rules[0].Action, FaultAction::Throw);
  EXPECT_EQ(P->Rules[1].Action, FaultAction::BadAlloc);
  EXPECT_EQ(P->Rules[2].Trigger, FaultTrigger::Every);
  EXPECT_EQ(P->Rules[2].Action, FaultAction::Degrade);
  EXPECT_EQ(P->Rules[3].Trigger, FaultTrigger::Prob);
  EXPECT_EQ(P->Rules[3].N, 25u);
}

TEST(FaultPlan, StrRoundTripsExactly) {
  auto P = FaultPlan::parse("seed 7\n"
                            "on measure.loop ctx 172.mgrid/mg_rec every 2 degrade\n"
                            "on pool.job occurrence 1 throw\n");
  ASSERT_TRUE(P.has_value());
  std::string Canonical = P->str();
  auto Q = FaultPlan::parse(Canonical);
  ASSERT_TRUE(Q.has_value());
  EXPECT_EQ(Q->str(), Canonical); // fixed point: parse(str()) is exact
  EXPECT_EQ(Q->Seed, P->Seed);
  ASSERT_EQ(Q->Rules.size(), P->Rules.size());
  for (size_t I = 0; I < P->Rules.size(); ++I) {
    EXPECT_EQ(Q->Rules[I].Site, P->Rules[I].Site);
    EXPECT_EQ(Q->Rules[I].Context, P->Rules[I].Context);
    EXPECT_EQ(Q->Rules[I].Trigger, P->Rules[I].Trigger);
    EXPECT_EQ(Q->Rules[I].N, P->Rules[I].N);
    EXPECT_EQ(Q->Rules[I].Action, P->Rules[I].Action);
  }
}

TEST(FaultPlan, MalformedInputIsRejectedWithAnError) {
  for (const char *Bad : {
           "on\n",                              // missing everything
           "on sched.place occurrence 3\n",     // missing action
           "on sched.place sometimes 3 throw\n",// unknown trigger
           "on sched.place occurrence x throw\n", // non-numeric count
           "seed\n",                            // missing seed value
           "frobnicate 1\n",                    // unknown directive
           // Counts and seeds are whole unsigned decimal tokens: no sign
           // (which would wrap), no trailing characters, no overflow.
           "on sched.place occurrence -1 throw\n",
           "on sched.place every -2 throw\n",
           "on sched.place occurrence +3 throw\n",
           "on sched.place occurrence 3x throw\n",
           "on sched.place every 18446744073709551616 throw\n",
           "on pool.job prob -5 throw\n",
           "seed -1\n",
           "seed 7x\n",
           "seed 18446744073709551616\n",
           "seed 5 trailing garbage\n",
       }) {
    std::string Err;
    EXPECT_FALSE(FaultPlan::parse(Bad, &Err).has_value()) << Bad;
    EXPECT_NE(Err.find("line 1"), std::string::npos) << Bad << ": " << Err;
  }
  // The largest values still parse.
  auto Big = FaultPlan::parse("seed 18446744073709551615\n"
                              "on sched.place every 18446744073709551615 "
                              "throw\n");
  ASSERT_TRUE(Big.has_value());
  EXPECT_EQ(Big->Seed, UINT64_MAX);
  EXPECT_EQ(Big->Rules.at(0).N, UINT64_MAX);
}

// A rule must name a site of fault/FaultSites.def: a misspelt or
// retired site would otherwise arm a rule that can never fire.
TEST(FaultPlan, UnregisteredSiteIsRefusedWithItsLine) {
  for (const char *Site : {"sched.wram", "sched.warm", "nosuch"}) {
    std::string Err;
    std::string Text =
        std::string("seed 1\non ") + Site + " every 1 throw\n";
    EXPECT_FALSE(FaultPlan::parse(Text, &Err).has_value()) << Site;
    EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
    EXPECT_NE(Err.find(Site), std::string::npos) << Err;
    EXPECT_NE(Err.find("unknown fault site"), std::string::npos) << Err;
  }
}

// A degrade rule fires only at a degrade site, so at a point site it is
// refused; throw and badalloc rules are fine at either kind.
TEST(FaultPlan, DegradeRuleAtAPointSiteIsRefused) {
  std::string Err;
  EXPECT_FALSE(FaultPlan::parse("on pool.job occurrence 1 throw\n"
                                "on sched.place every 1 degrade\n",
                                &Err)
                   .has_value());
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  EXPECT_NE(Err.find("point site"), std::string::npos) << Err;
  EXPECT_TRUE(FaultPlan::parse("on part.coarsen every 1 throw\n"
                               "on part.coarsen every 2 badalloc\n")
                  .has_value());
}

// Seeded mutations of valid plans: every one parses or is refused with
// a line-numbered error, none throws, and an accepted plan round-trips
// through str().
TEST(FaultPlan, HostileMutationsParseOrRefuse) {
  const std::vector<std::string> Valid = {
      "# chaos plan\n"
      "seed 42\n"
      "\n"
      "on sched.place ctx 171.swim/loop2 occurrence 3 throw\n"
      "on measure.config occurrence 1 badalloc\n"
      "on part.coarsen every 2 degrade\n"
      "on pool.job prob 25 throw\n",
      "seed 7\n"
      "on measure.loop ctx 172.mgrid/loop0 every 1 degrade\n"
      "on cache.load occurrence 12 badalloc\n",
  };
  hcvliw::RNG R(0xfa017);
  unsigned Accepted = 0, Refused = 0;
  for (unsigned I = 0; I < 2000; ++I) {
    std::string Text = R.pick(Valid);
    for (int64_t M = R.nextInt(1, 3); M > 0; --M)
      Text = hcvliw::mutateText(Text, R);
    std::optional<FaultPlan> P;
    std::string Err;
    ASSERT_NO_THROW(P = FaultPlan::parse(Text, &Err)) << Text;
    if (!P) {
      ++Refused;
      EXPECT_EQ(Err.rfind("fault plan line ", 0), 0u) << Text << "\n" << Err;
      continue;
    }
    ++Accepted;
    std::string Canon = P->str();
    std::optional<FaultPlan> Again = FaultPlan::parse(Canon, &Err);
    ASSERT_TRUE(Again.has_value()) << Canon << Err;
    EXPECT_EQ(Again->str(), Canon);
    EXPECT_EQ(Again->Seed, P->Seed);
    EXPECT_EQ(Again->Rules.size(), P->Rules.size());
  }
  // Both outcomes are exercised, so neither path goes untested.
  EXPECT_GT(Accepted, 200u);
  EXPECT_GT(Refused, 200u);
}

TEST(FaultPlan, ParseFileReportsMissingFile) {
  std::string Err;
  EXPECT_FALSE(
      FaultPlan::parseFile("/nonexistent/fault.plan", &Err).has_value());
  EXPECT_FALSE(Err.empty());
}

// --- injector determinism --------------------------------------------------

/// Replays \p Hits calls against site/ctx, returning the 1-based hit
/// indices at which a FaultInjected escaped.
std::vector<unsigned> throwsAt(FaultInjector &Inj, const char *Site,
                               const char *Ctx, unsigned Hits) {
  std::vector<unsigned> Fired;
  for (unsigned I = 1; I <= Hits; ++I) {
    try {
      Inj.hit(Site, Ctx);
    } catch (const FaultInjected &) {
      Fired.push_back(I);
    }
  }
  return Fired;
}

TEST(FaultInjector, OccurrenceRuleFiresAtExactlyTheNthHit) {
  auto P = FaultPlan::parse("on sched.place ctx prog/loop occurrence 3 throw\n");
  ASSERT_TRUE(P.has_value());
  FaultInjector Inj;
  Inj.arm(*P);
  EXPECT_EQ(throwsAt(Inj, "sched.place", "prog/loop", 6),
            (std::vector<unsigned>{3}));
  // A different context is a different occurrence stream: untouched.
  EXPECT_EQ(throwsAt(Inj, "sched.place", "other/loop", 2).size(), 0u);
  EXPECT_EQ(Inj.injectedThrows(), 1u);
  EXPECT_EQ(Inj.totalInjected(), 1u);

  // Re-arming resets the occurrence counters: the replay is identical.
  Inj.arm(*P);
  EXPECT_EQ(throwsAt(Inj, "sched.place", "prog/loop", 6),
            (std::vector<unsigned>{3}));
}

TEST(FaultInjector, EveryRuleFiresPeriodically) {
  auto P = FaultPlan::parse("on measure.config every 2 throw\n");
  ASSERT_TRUE(P.has_value());
  FaultInjector Inj;
  Inj.arm(*P);
  EXPECT_EQ(throwsAt(Inj, "measure.config", "a", 6),
            (std::vector<unsigned>{2, 4, 6}));
  EXPECT_EQ(Inj.injectedThrows(), 3u);
}

TEST(FaultInjector, BadAllocRuleRaisesBadAlloc) {
  auto P = FaultPlan::parse("on measure.config occurrence 1 badalloc\n");
  ASSERT_TRUE(P.has_value());
  FaultInjector Inj;
  Inj.arm(*P);
  EXPECT_THROW(Inj.hit("measure.config", "171.swim"), std::bad_alloc);
  EXPECT_EQ(Inj.injectedBadAllocs(), 1u);
}

TEST(FaultInjector, DegradeRuleFiresOnlyAtDegradeSites) {
  // parse refuses this rule, so build it in code: the injector must
  // still skip it at a throw-capable site.
  FaultRule Rule;
  Rule.Site = "sched.place";
  Rule.Trigger = FaultTrigger::Every;
  Rule.Action = FaultAction::Degrade;
  FaultPlan P;
  P.Rules.push_back(Rule);
  FaultInjector Inj;
  Inj.arm(P);
  // At a throw-capable site the Degrade rule is skipped entirely.
  EXPECT_NO_THROW(Inj.hit("sched.place", "p/l"));
  EXPECT_EQ(Inj.totalInjected(), 0u);
  // At a degrade site it fires.
  EXPECT_TRUE(Inj.shouldDegrade("sched.place", "p/l"));
  EXPECT_EQ(Inj.injectedDegrades(), 1u);
}

TEST(FaultInjector, UnarmedInjectorIsInert) {
  FaultInjector Inj;
  EXPECT_FALSE(Inj.armed());
  EXPECT_NO_THROW(Inj.hit("pool.job", "x"));
  EXPECT_FALSE(Inj.shouldDegrade("measure.loop", "x"));
  EXPECT_EQ(Inj.totalInjected(), 0u);
  // The site macros consult nothing through a null pointer.
  FaultInjector *Null = nullptr;
  HCVLIW_FAULT_POINT(Null, "pool.job", "x");
  EXPECT_FALSE(HCVLIW_FAULT_DEGRADE(Null, "measure.loop", "x"));
}

TEST(FaultInjector, ProbRuleIsAPureFunctionOfSeedSiteContextCount) {
  auto P = FaultPlan::parse("seed 99\non pool.job prob 40 throw\n");
  ASSERT_TRUE(P.has_value());
  FaultInjector A, B;
  A.arm(*P);
  B.arm(*P);
  // Two injectors replaying the same hit stream fire identically —
  // there is no RNG stream to perturb, only the occurrence hash.
  auto FiredA = throwsAt(A, "pool.job", "171.swim", 50);
  auto FiredB = throwsAt(B, "pool.job", "171.swim", 50);
  EXPECT_EQ(FiredA, FiredB);
  EXPECT_FALSE(FiredA.empty()); // 40% of 50 hits: some must fire
  EXPECT_LT(FiredA.size(), 50u);

  // Interleaving an unrelated context between hits must not shift the
  // firing pattern (counts are per (site, context), not global).
  FaultInjector C;
  C.arm(*P);
  std::vector<unsigned> FiredC;
  for (unsigned I = 1; I <= 50; ++I) {
    try {
      C.hit("pool.job", "171.swim");
    } catch (const FaultInjected &) {
      FiredC.push_back(I);
    }
    try {
      C.hit("pool.job", "172.mgrid");
    } catch (const FaultInjected &) {
    }
  }
  EXPECT_EQ(FiredC, FiredA);
}

TEST(FaultInjector, FirstMatchingRuleWinsAndBySiteReports) {
  auto P = FaultPlan::parse("on measure.config ctx 171.swim occurrence 1 badalloc\n"
                            "on measure.config occurrence 1 throw\n");
  ASSERT_TRUE(P.has_value());
  FaultInjector Inj;
  Inj.arm(*P);
  // The ctx-specific rule shadows the catch-all for its context.
  EXPECT_THROW(Inj.hit("measure.config", "171.swim"), std::bad_alloc);
  // The catch-all consults 172.mgrid's own stream: its first hit fires.
  EXPECT_THROW(Inj.hit("measure.config", "172.mgrid"), FaultInjected);
  auto BySite = Inj.injectedBySite();
  ASSERT_EQ(BySite.size(), 1u);
  EXPECT_EQ(BySite["measure.config"], 2u);
}

TEST(FaultInjector, FaultInjectedCarriesTheSite) {
  auto P = FaultPlan::parse("on pool.job occurrence 2 throw\n");
  ASSERT_TRUE(P.has_value());
  FaultInjector Inj;
  Inj.arm(*P);
  Inj.hit("pool.job", "171.swim");
  try {
    Inj.hit("pool.job", "171.swim");
    FAIL() << "occurrence 2 must fire";
  } catch (const FaultInjected &E) {
    EXPECT_EQ(E.site(), "pool.job");
    EXPECT_NE(std::string(E.what()).find("pool.job"), std::string::npos);
    EXPECT_NE(std::string(E.what()).find("171.swim"), std::string::npos);
  }
}

} // namespace
