//===- tests/lint/LintTest.cpp - hcvliw_lint rule + fixture tests -----------===//
//
// Every rule family is pinned twice: a clean fixture that exercises the
// sanctioned shape without firing, and a violating fixture that must
// fire with the expected rule id on the expected file. The final test
// runs the linter over the real tree — the same gate ctest registers as
// lint_tree — so the library sources cannot regress the contracts
// without failing here too.
//
// Fixture roots live under tests/lint/fixtures/<name>/ and are shaped
// like miniature repos (tools/lint/layers.conf + src/<dir>/...).
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace hcvliw::lint;

namespace {

std::string fixtureRoot(const std::string &Name) {
  return std::string(HCVLIW_LINT_FIXTURES) + "/" + Name;
}

LintResult runOn(const std::string &Fixture) {
  LintOptions Opts;
  Opts.Root = fixtureRoot(Fixture);
  return runLint(Opts);
}

size_t countRule(const LintResult &R, const std::string &Rule) {
  return static_cast<size_t>(
      std::count_if(R.Violations.begin(), R.Violations.end(),
                    [&](const Violation &V) { return V.Rule == Rule; }));
}

bool anyMessageContains(const LintResult &R, const std::string &Rule,
                        const std::string &Needle) {
  return std::any_of(R.Violations.begin(), R.Violations.end(),
                     [&](const Violation &V) {
                       return V.Rule == Rule &&
                              V.Message.find(Needle) != std::string::npos;
                     });
}

std::string dump(const LintResult &R) {
  std::string Out;
  for (const Violation &V : R.Violations)
    Out += V.File + ":" + std::to_string(V.Line) + ": [" + V.Rule + "] " +
           V.Message + "\n";
  for (const std::string &E : R.ConfigErrors)
    Out += "config error: " + E + "\n";
  return Out;
}

// --- lexer ----------------------------------------------------------------

TEST(LintLexer, StripsCommentsAndTracksLines) {
  auto Toks = tokenize("int A; // trailing\n/* block\n spanning */ int B;");
  ASSERT_EQ(Toks.size(), 6u);
  EXPECT_TRUE(Toks[0].ident("int"));
  EXPECT_EQ(Toks[1].Text, "A");
  EXPECT_EQ(Toks[1].Line, 1u);
  EXPECT_EQ(Toks[4].Text, "B");
  EXPECT_EQ(Toks[4].Line, 3u); // block comment advanced the line count
}

TEST(LintLexer, LiteralsDoNotLeakTokens) {
  // 'if (' inside a string or raw string must not look like a branch.
  auto Toks = tokenize("const char *S = \"if (obs::x)\";\n"
                       "const char *R = R\"(while (obs::y))\";");
  for (const Token &T : Toks) {
    EXPECT_FALSE(T.ident("if"));
    EXPECT_FALSE(T.ident("while"));
  }
}

TEST(LintLexer, TwoCharPunctuators) {
  auto Toks = tokenize("a::b == c && d -> e");
  std::vector<std::string> Puncts;
  for (const Token &T : Toks)
    if (T.K == Token::Punct)
      Puncts.push_back(T.Text);
  EXPECT_EQ(Puncts, (std::vector<std::string>{"::", "==", "&&", "->"}));
}

// --- layer rule -----------------------------------------------------------

TEST(LintLayers, CleanFixtureIsClean) {
  LintResult R = runOn("layer_clean");
  EXPECT_TRUE(R.clean()) << dump(R);
}

TEST(LintLayers, UpwardIncludeIsFlagged) {
  LintResult R = runOn("layer_violate");
  EXPECT_TRUE(R.ConfigErrors.empty()) << dump(R);
  ASSERT_EQ(R.Violations.size(), 1u) << dump(R);
  EXPECT_EQ(R.Violations[0].Rule, "layer");
  EXPECT_EQ(R.Violations[0].File, "src/support/Bad.h");
  EXPECT_NE(R.Violations[0].Message.find("higher layer"), std::string::npos);
}

TEST(LintLayers, UndeclaredSrcDirIsConfigError) {
  LintResult R = runOn("undeclared_dir");
  ASSERT_EQ(R.ConfigErrors.size(), 1u) << dump(R);
  EXPECT_NE(R.ConfigErrors[0].find("src/rogue"), std::string::npos);
  EXPECT_FALSE(R.clean());
}

// --- determinism rules ----------------------------------------------------

TEST(LintDeterminism, CleanFixtureIsClean) {
  LintResult R = runOn("det_clean");
  EXPECT_TRUE(R.clean()) << dump(R);
}

TEST(LintDeterminism, EveryFamilyFiresOnTheViolatingFixture) {
  LintResult R = runOn("det_violate");
  EXPECT_TRUE(R.ConfigErrors.empty()) << dump(R);
  EXPECT_EQ(countRule(R, "det-clock"), 1u) << dump(R);   // steady_clock
  EXPECT_EQ(countRule(R, "det-rand"), 2u) << dump(R);    // rand() + random_device
  EXPECT_EQ(countRule(R, "det-ptr-key"), 1u) << dump(R); // map<const Node*,..>
  EXPECT_EQ(countRule(R, "det-unordered-iter"), 1u) << dump(R);
  for (const Violation &V : R.Violations)
    EXPECT_EQ(V.File, "src/sched/Bad.cpp");
}

TEST(LintDeterminism, UnorderedIterMessageNamesTheWriteTarget) {
  LintResult R = runOn("det_violate");
  EXPECT_TRUE(anyMessageContains(R, "det-unordered-iter", "'Total'"))
      << dump(R);
}

// --- obs isolation --------------------------------------------------------

TEST(LintObs, CleanFixtureIsClean) {
  LintResult R = runOn("obs_clean");
  EXPECT_TRUE(R.clean()) << dump(R);
}

TEST(LintObs, ExportAndBranchAreFlagged) {
  LintResult R = runOn("obs_violate");
  EXPECT_EQ(countRule(R, "obs-export"), 1u) << dump(R);
  EXPECT_EQ(countRule(R, "obs-branch"), 1u) << dump(R);
  EXPECT_TRUE(anyMessageContains(R, "obs-export", "snapshot")) << dump(R);
}

// --- allowlist ------------------------------------------------------------

TEST(LintAllowlist, SuppressionPrintsJustificationAndStaleEntriesWarn) {
  LintOptions Opts;
  Opts.Root = fixtureRoot("obs_violate");
  Opts.AllowlistConf = fixtureRoot("obs_violate") + "/allow.conf";
  LintResult R = runLint(Opts);

  // The obs-branch violation is suppressed; obs-export survives.
  ASSERT_EQ(R.Violations.size(), 1u) << dump(R);
  EXPECT_EQ(R.Violations[0].Rule, "obs-export");
  ASSERT_EQ(R.Suppressed.size(), 1u);
  EXPECT_NE(R.Suppressed[0].find("justification is printed"),
            std::string::npos)
      << R.Suppressed[0];
  // The entry for a nonexistent file matched nothing -> stale warning.
  ASSERT_EQ(R.StaleAllow.size(), 1u);
  EXPECT_NE(R.StaleAllow[0].find("matched nothing"), std::string::npos);
}

TEST(LintAllowlist, MissingJustificationIsConfigError) {
  LintOptions Opts;
  Opts.Root = fixtureRoot("obs_violate");
  Opts.AllowlistConf = fixtureRoot("obs_violate") + "/bad_allow.conf";
  LintResult R = runLint(Opts);
  ASSERT_FALSE(R.ConfigErrors.empty());
  EXPECT_NE(R.ConfigErrors[0].find("justification mandatory"),
            std::string::npos)
      << R.ConfigErrors[0];
}

// --- cache keys -----------------------------------------------------------

TEST(LintCacheKey, CompleteKeyIsClean) {
  LintResult R = runOn("cachekey_clean");
  EXPECT_TRUE(R.clean()) << dump(R);
}

TEST(LintCacheKey, DriftedEqualsAndHashBothFlagged) {
  LintResult R = runOn("cachekey_violate");
  EXPECT_EQ(countRule(R, "cache-key"), 2u) << dump(R);
  // operator== misses Seed; the hash functor misses ConfigBits.
  EXPECT_TRUE(anyMessageContains(R, "cache-key", "{Seed}")) << dump(R);
  EXPECT_TRUE(anyMessageContains(R, "cache-key", "{ConfigBits}")) << dump(R);
}

// --- fault sites ----------------------------------------------------------

TEST(LintFaultSite, CleanFixtureIsClean) {
  LintResult R = runOn("faultsite_clean");
  EXPECT_TRUE(R.clean()) << dump(R);
}

TEST(LintFaultSite, EveryShapeFiresOnTheViolatingFixture) {
  LintResult R = runOn("faultsite_violate");
  EXPECT_TRUE(R.ConfigErrors.empty()) << dump(R);
  EXPECT_EQ(countRule(R, "fault-site"), 6u) << dump(R);
  // unregistered literal, kind mismatch, duplicate location,
  // non-literal site, stale registry entry, malformed registry entry.
  EXPECT_TRUE(anyMessageContains(R, "fault-site", "not registered"))
      << dump(R);
  EXPECT_TRUE(anyMessageContains(R, "fault-site", "registered as 'point'"))
      << dump(R);
  EXPECT_TRUE(
      anyMessageContains(R, "fault-site", "exactly one code location"))
      << dump(R);
  EXPECT_TRUE(anyMessageContains(R, "fault-site", "string literal"))
      << dump(R);
  EXPECT_TRUE(anyMessageContains(R, "fault-site", "never used")) << dump(R);
  EXPECT_TRUE(anyMessageContains(R, "fault-site", "malformed registry entry"))
      << dump(R);
  // The stale-registry violation anchors on the registry file itself.
  EXPECT_TRUE(std::any_of(R.Violations.begin(), R.Violations.end(),
                          [](const Violation &V) {
                            return V.File == "src/fault/FaultSites.def";
                          }))
      << dump(R);
}

// --- the real tree --------------------------------------------------------

// The same gate ctest runs as lint_tree: the library sources themselves
// must satisfy every contract (modulo the audited allowlist).
TEST(LintTree, RepositoryIsClean) {
  LintOptions Opts;
  Opts.Root = HCVLIW_SOURCE_ROOT;
  LintResult R = runLint(Opts);
  EXPECT_TRUE(R.clean()) << dump(R);
  // Stale allowlist entries are warnings, but the committed allowlist
  // must never contain one.
  EXPECT_TRUE(R.StaleAllow.empty())
      << (R.StaleAllow.empty() ? "" : R.StaleAllow[0]);
}

} // namespace
