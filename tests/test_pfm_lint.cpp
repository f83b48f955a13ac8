// pfm-analyze's own contract: a clean tree passes, each rule family —
// lexical and graph-aware — catches its seeded fixture violation at the
// exact file:line, suppression comments are honored, and — the actual
// gate — the repository's real src/ and tests/ trees are finding-free.
// The CLI's exit-code protocol (0 clean, 1 findings, 2 usage error or
// busted runtime budget) is pinned through the installed binary.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"
#include "sarif.hpp"

namespace {

using pfm::lint::Finding;
using pfm::lint::Options;

std::filesystem::path repo_root() {
  return std::filesystem::path(PFM_SOURCE_DIR);
}

std::filesystem::path fixture(const std::string& name) {
  return repo_root() / "tests" / "lint_fixtures" / name;
}

std::vector<Finding> run_on(const std::filesystem::path& root,
                            std::vector<std::string> rules = {}) {
  Options options;
  options.root = root;
  options.rules = std::move(rules);
  return pfm::lint::run(options);
}

// "file:line check" triples, compact to assert against.
std::vector<std::string> keys(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const auto& f : findings) {
    out.push_back(f.file + ":" + std::to_string(f.line) + " " + f.check);
  }
  return out;
}

int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(PFM_LINT_BINARY) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(PfmLint, KnownRulesAreTheSixFamilies) {
  const auto& rules = pfm::lint::known_rules();
  ASSERT_EQ(rules.size(), 6u);
  EXPECT_EQ(rules[0], "layering");
  EXPECT_EQ(rules[1], "determinism");
  EXPECT_EQ(rules[2], "concurrency");
  EXPECT_EQ(rules[3], "hotpath");
  EXPECT_EQ(rules[4], "walltaint");
  EXPECT_EQ(rules[5], "lockdiscipline");
}

TEST(PfmLint, CleanFixtureTreeHasNoFindings) {
  EXPECT_TRUE(run_on(fixture("clean")).empty());
}

TEST(PfmLint, LayeringRuleFlagsForbiddenIncludesWithFileAndLine) {
  const auto findings = run_on(fixture("layering"), {"layering"});
  EXPECT_EQ(keys(findings),
            (std::vector<std::string>{
                "src/core/bad_include.cpp:1 forbidden-include",
                "src/core/bad_include.cpp:2 forbidden-include",
                "src/membership/bad_dep.hpp:2 forbidden-include",
                "src/numerics/bad_leaf.hpp:3 forbidden-include",
                "src/obs/bad_telecom.hpp:2 forbidden-include",
                "src/runtime/schedule.cpp:1 forbidden-include",
                "src/runtime/shard.cpp:1 forbidden-include",
                "src/widgets/unregistered.hpp:1 unknown-module",
            }));
  for (const auto& f : findings) EXPECT_EQ(f.rule, "layering");
}

TEST(PfmLint, DeterminismRuleFlagsEntropyAddressKeysAndUnorderedIteration) {
  const auto findings = run_on(fixture("determinism"), {"determinism"});
  EXPECT_EQ(keys(findings),
            (std::vector<std::string>{
                "src/prediction/bad_rng.cpp:11 banned-token",
                "src/prediction/bad_rng.cpp:12 banned-token",
                "src/prediction/bad_rng.cpp:13 banned-token",
                "src/prediction/bad_rng.cpp:14 banned-token",
                "src/prediction/bad_rng.cpp:22 address-keyed",
                "src/prediction/bad_rng.cpp:25 unordered-iteration",
            }));
  for (const auto& f : findings) EXPECT_EQ(f.rule, "determinism");
}

TEST(PfmLint, ConcurrencyRuleFlagsMutableStaticCatchAllVolatileRawThread) {
  const auto findings = run_on(fixture("concurrency"), {"concurrency"});
  EXPECT_EQ(keys(findings),
            (std::vector<std::string>{
                "src/runtime/bad_shared.cpp:7 mutable-static",
                "src/runtime/bad_shared.cpp:14 catch-all",
                "src/runtime/bad_shared.cpp:19 volatile",
                "src/runtime/bad_shared.cpp:23 raw-thread",
                "src/runtime/bad_shared.cpp:24 raw-thread",
                "src/runtime/bad_shared.cpp:25 raw-thread",
            }));
  for (const auto& f : findings) EXPECT_EQ(f.rule, "concurrency");
}

TEST(PfmLint, HotpathRuleFlagsClosureViolationsAtExactLines) {
  const auto findings = run_on(fixture("hotpath"), {"hotpath"});
  EXPECT_EQ(keys(findings),
            (std::vector<std::string>{
                "src/prediction/frozen_serve.cpp:17 allocation",
                "src/prediction/frozen_serve.cpp:25 allocation",
                "src/runtime/hot_paths.cpp:11 allocation",
                "src/runtime/hot_paths.cpp:16 stream-io",
                "src/runtime/hot_paths.cpp:28 allocation",
                "src/runtime/hot_paths.cpp:29 mutex",
                "src/runtime/hot_paths.cpp:31 throw",
            }));
  for (const auto& f : findings) EXPECT_EQ(f.rule, "hotpath");
  ASSERT_EQ(findings.size(), 7u);
  // The one-hop kernel-sweep finding names the hot batch seed; the hoisted
  // pfm-cold [[noreturn]] throw helper it calls is rightly absent.
  EXPECT_NE(findings[0].message.find(
                "in 'mixture_sweep', reached from pfm-hot "
                "'frozen_score_batch'"),
            std::string::npos)
      << findings[0].message;
  // The two-hop transitive finding names the seed and the path into it;
  // the pfm-cold slow path (and everything it calls) is rightly absent.
  EXPECT_NE(findings[2].message.find(
                "reached from pfm-hot 'tick' via 'helper_a' (2 calls deep)"),
            std::string::npos)
      << findings[2].message;
}

TEST(PfmLint, WalltaintRuleTracksWallValuesIntoSimExports) {
  const auto findings = run_on(fixture("walltaint"), {"walltaint"});
  // quality_taint: line 25 (the kWall gauge) is rightly absent, line 28
  // is tainted only through the `drift = cost` assignment chain.
  // wall_taint: line 24 (the kWall histogram) is rightly absent, line 29
  // only through the `boundary = elapsed` chain.
  EXPECT_EQ(keys(findings),
            (std::vector<std::string>{
                "src/obs/quality_taint.cpp:24 wall-into-sim-metric",
                "src/obs/quality_taint.cpp:28 wall-into-sim-metric",
                "src/obs/quality_taint.cpp:29 wall-into-sim-trace",
                "src/obs/wall_taint.cpp:23 wall-into-sim-metric",
                "src/obs/wall_taint.cpp:25 wall-into-sim-metric",
                "src/obs/wall_taint.cpp:26 wall-into-sim-trace",
                "src/obs/wall_taint.cpp:29 wall-into-sim-trace",
            }));
  for (const auto& f : findings) EXPECT_EQ(f.rule, "walltaint");
}

TEST(PfmLint, LockDisciplineChecksGuardedFieldsAndReacquisition) {
  const auto findings = run_on(fixture("lockdiscipline"), {"lockdiscipline"});
  // The locked reader, the PFM_REQUIRES caller, and the exempt reader
  // are all clean; only the bare read and the re-acquisition remain.
  EXPECT_EQ(keys(findings),
            (std::vector<std::string>{
                "src/runtime/guarded.cpp:13 guarded-access",
                "src/runtime/guarded.cpp:27 double-acquire",
            }));
  for (const auto& f : findings) EXPECT_EQ(f.rule, "lockdiscipline");
}

TEST(PfmLint, LexerHandlesSplicedCommentsAndPrefixedRawStrings) {
  // The spliced `//` comment swallows a `volatile`, and the u8R/LR raw
  // strings hide a zoo of banned tokens; only the real one survives.
  const auto findings = run_on(fixture("lexer"));
  EXPECT_EQ(keys(findings),
            (std::vector<std::string>{"src/core/spliced.cpp:13 volatile"}));
}

TEST(PfmLint, SuppressionCommentsAreHonored) {
  // Same violation shapes as the bad fixtures — inline allow, allow on
  // the preceding line, and allow-file — all silenced.
  EXPECT_TRUE(run_on(fixture("suppressed")).empty());
}

TEST(PfmLint, RulesCanBeRunSelectively) {
  // The determinism fixture is clean under the other two rules.
  EXPECT_TRUE(run_on(fixture("determinism"), {"layering"}).empty());
  EXPECT_TRUE(run_on(fixture("determinism"), {"concurrency"}).empty());
}

TEST(PfmLint, UnknownRuleAndBadRootThrow) {
  EXPECT_THROW(run_on(repo_root(), {"nonsense"}), std::runtime_error);
  EXPECT_THROW(run_on(repo_root() / "does-not-exist"), std::runtime_error);
}

TEST(PfmLint, FormatIsFileLineRuleCheckMessage) {
  const Finding f{"determinism", "banned-token", "src/a/b.cpp", 7, "no"};
  EXPECT_EQ(pfm::lint::format(f),
            "src/a/b.cpp:7: [determinism/banned-token] no");
}

// The gate itself: the real tree must be finding-free under every rule.
// (The fixtures above are excluded by Options::exclude_dirs.)
TEST(PfmLint, RepositoryTreeIsCleanUnderAllRules) {
  const auto findings = run_on(repo_root());
  for (const auto& f : findings) ADD_FAILURE() << pfm::lint::format(f);
  EXPECT_TRUE(findings.empty());
}

TEST(PfmLint, CliExitCodesDistinguishCleanFindingsAndUsage) {
  EXPECT_EQ(run_cli("--root " + repo_root().string()), 0);
  EXPECT_EQ(run_cli("--root " + fixture("layering").string()), 1);
  EXPECT_EQ(run_cli("--root " + fixture("layering").string() +
                    " --rule concurrency"),
            0);
  EXPECT_EQ(run_cli("--list-rules"), 0);
  EXPECT_EQ(run_cli("--rule nonsense --root " + repo_root().string()), 2);
  EXPECT_EQ(run_cli("--bogus-flag"), 2);
}

TEST(PfmLint, SarifOutputCarriesRulesResultsAndLocations) {
  const auto findings = run_on(fixture("lockdiscipline"), {"lockdiscipline"});
  const std::string sarif = pfm::lint::to_sarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"pfm-analyze\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"lockdiscipline/guarded-access\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/runtime/guarded.cpp\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 13"), std::string::npos);
  // No findings still yields a valid document.
  EXPECT_NE(pfm::lint::to_sarif({}).find("\"results\": []"),
            std::string::npos);
}

TEST(PfmLint, CliSarifFormatAndRuntimeBudget) {
  // SARIF goes to stdout; findings still drive the exit code.
  EXPECT_EQ(run_cli("--format=sarif --root " + fixture("hotpath").string()),
            1);
  EXPECT_EQ(run_cli("--format sarif --root " + fixture("clean").string()), 0);
  EXPECT_EQ(run_cli("--format riff --root " + fixture("clean").string()), 2);
  // A generous budget changes nothing; a zero budget always trips (the
  // test hook for the CI runtime-budget gate).
  EXPECT_EQ(run_cli("--verbose --jobs 2 --budget-ms 600000 --root " +
                    fixture("clean").string()),
            0);
  EXPECT_EQ(run_cli("--budget-ms 0 --root " + fixture("clean").string()), 2);
}

}  // namespace
