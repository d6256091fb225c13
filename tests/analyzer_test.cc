// Tests for the st_analyze static-analysis engine: the fixture corpus must
// produce exactly the golden findings (file:line:rule), NOLINT markers and
// baselines must suppress, and the real tree must stay clean.

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"

namespace streamtune::analysis {
namespace {

namespace fs = std::filesystem;

std::string FixtureDir() { return ST_FIXTURE_DIR; }

// The repo root is two levels above tests/analysis_fixtures.
std::string RepoRoot() {
  return fs::path(FixtureDir()).parent_path().parent_path().string();
}

AnalysisReport MustRun(AnalyzerOptions options) {
  Result<AnalysisReport> report = RunAnalyzer(options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? *std::move(report) : AnalysisReport{};
}

std::set<std::string> Keys(const AnalysisReport& report) {
  std::set<std::string> keys;
  for (const Finding& f : report.findings) keys.insert(f.Key());
  return keys;
}

AnalyzerOptions FixtureOptions() {
  AnalyzerOptions options;
  options.root = FixtureDir();
  options.paths = {"src", "tools"};
  return options;
}

TEST(AnalyzerFixtures, CorpusMatchesGoldenExactly) {
  // The golden file uses the baseline format, so LoadBaseline parses it.
  Result<std::set<std::string>> golden =
      LoadBaseline(FixtureDir() + "/expected.txt");
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  ASSERT_FALSE(golden->empty());

  AnalysisReport report = MustRun(FixtureOptions());
  EXPECT_EQ(Keys(report), *golden);
}

TEST(AnalyzerFixtures, EveryRuleFiresAtLeastOnce) {
  AnalysisReport report = MustRun(FixtureOptions());
  std::set<std::string> fired;
  for (const Finding& f : report.findings) fired.insert(f.rule);
  const std::set<std::string> all = {
      "st-determinism-random",     "st-determinism-unordered-iter",
      "st-determinism-transitive", "st-status-ignored",
      "st-status-value",           "st-lock-guarded-by",
      "st-lock-order-cycle",       "st-requires-unheld",
      "st-banned-endl",            "st-banned-printf",
      "st-pragma-once"};
  EXPECT_EQ(fired, all);
}

TEST(AnalyzerFixtures, SilentFixturesProduceNoFindings) {
  AnalysisReport report = MustRun(FixtureOptions());
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.file.find("_ok."), std::string::npos) << f.ToString();
    EXPECT_EQ(f.file.find("nolint_suppressed"), std::string::npos)
        << f.ToString();
    EXPECT_EQ(f.file.find("tools/"), std::string::npos) << f.ToString();
  }
}

TEST(AnalyzerFixtures, ExactFindingLocations) {
  AnalysisReport report = MustRun(FixtureOptions());
  std::set<std::string> keys = Keys(report);
  // One pinpoint assertion per rule, in catalogue order.
  EXPECT_TRUE(keys.count("src/determinism_random_bad.cc:8:st-determinism-random"));
  EXPECT_TRUE(keys.count(
      "src/determinism_unordered_bad.cc:9:st-determinism-unordered-iter"));
  EXPECT_TRUE(keys.count("src/status_ignored_bad.cc:11:st-status-ignored"));
  EXPECT_TRUE(keys.count("src/status_value_bad.cc:15:st-status-value"));
  EXPECT_TRUE(keys.count("src/lock_guarded_bad.cc:12:st-lock-guarded-by"));
  EXPECT_TRUE(keys.count("src/banned_endl_bad.cc:7:st-banned-endl"));
  EXPECT_TRUE(keys.count("src/banned_printf_bad.cc:8:st-banned-printf"));
  EXPECT_TRUE(keys.count("src/pragma_once_bad.h:1:st-pragma-once"));
  // Interprocedural rules: the finding anchors at the offending call site.
  EXPECT_TRUE(keys.count(
      "src/det_transitive_bad.cc:16:st-determinism-transitive"));
  EXPECT_TRUE(keys.count(
      "src/det_transitive_scc_bad.cc:25:st-determinism-transitive"));
  EXPECT_TRUE(keys.count("src/lock_order_a.cc:20:st-lock-order-cycle"));
  EXPECT_TRUE(keys.count("src/requires_unheld_bad.cc:20:st-requires-unheld"));
  // Satellite recognitions: dominance-aware .value(), operator() bodies,
  // and out-of-line template member definitions.
  EXPECT_TRUE(keys.count("src/status_value_sibling_bad.cc:17:st-status-value"));
  EXPECT_TRUE(keys.count("src/operator_guarded_bad.cc:14:st-lock-guarded-by"));
  EXPECT_TRUE(keys.count("src/template_member_bad.cc:19:st-status-ignored"));
}

TEST(AnalyzerFixtures, NolintMarkersSuppressAndAreCounted) {
  AnalysisReport report = MustRun(FixtureOptions());
  // nolint_suppressed.cc holds three real violations (random_device x2 and
  // a printf) silenced by NOLINT / NOLINTNEXTLINE / bare NOLINT, and
  // det_transitive_ok.cc silences one vetted rand() call.
  EXPECT_EQ(report.suppressed_nolint, 4);
}

TEST(AnalyzerBaseline, FullBaselineSilencesEverything) {
  Result<std::set<std::string>> golden =
      LoadBaseline(FixtureDir() + "/expected.txt");
  ASSERT_TRUE(golden.ok());

  AnalyzerOptions options = FixtureOptions();
  options.baseline = *golden;
  AnalysisReport report = MustRun(options);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.suppressed_baseline,
            static_cast<int>(golden->size()));
}

TEST(AnalyzerBaseline, PartialBaselineSubtractsOnlyItsKeys) {
  AnalyzerOptions options = FixtureOptions();
  options.baseline = {"src/banned_endl_bad.cc:7:st-banned-endl"};
  AnalysisReport report = MustRun(options);
  std::set<std::string> keys = Keys(report);
  EXPECT_FALSE(keys.count("src/banned_endl_bad.cc:7:st-banned-endl"));
  EXPECT_TRUE(keys.count("src/banned_printf_bad.cc:7:st-banned-printf"));
  EXPECT_EQ(report.suppressed_baseline, 1);
}

TEST(AnalyzerBaseline, WriteThenLoadRoundTrips) {
  AnalysisReport report = MustRun(FixtureOptions());
  std::string path =
      (fs::path(::testing::TempDir()) / "st_analyze_baseline.txt").string();
  ASSERT_TRUE(WriteBaseline(path, report.findings).ok());
  Result<std::set<std::string>> loaded = LoadBaseline(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, Keys(report));
  fs::remove(path);
}

TEST(AnalyzerOptionsTest, EnabledRulesRestrictsTheRun) {
  AnalyzerOptions options = FixtureOptions();
  options.enabled_rules = {"st-banned-endl"};
  AnalysisReport report = MustRun(options);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].Key(),
            "src/banned_endl_bad.cc:7:st-banned-endl");
}

TEST(AnalyzerSeededViolation, FreshViolationIsDetected) {
  // Seed a violation into a scratch "src/" tree and confirm the analyzer
  // reports it — the property the lint CI job relies on.
  fs::path root = fs::path(::testing::TempDir()) / "st_seeded_repo";
  fs::create_directories(root / "src");
  {
    std::ofstream out(root / "src" / "seeded.cc");
    out << "#include <random>\n"
        << "int Seed() {\n"
        << "  std::random_device rd;\n"
        << "  return static_cast<int>(rd());\n"
        << "}\n";
  }
  AnalyzerOptions options;
  options.root = root.string();
  options.paths = {"src"};
  AnalysisReport report = MustRun(options);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].Key(),
            "src/seeded.cc:3:st-determinism-random");
  fs::remove_all(root);
}

TEST(AnalyzerRealTree, RepositoryIsCleanWithoutBaseline) {
  // The self-hosting invariant: the real tree carries zero non-baselined
  // findings. If this fails, run the lint target and fix (or justify and
  // NOLINT) what it reports.
  AnalyzerOptions options;
  options.root = RepoRoot();
  options.paths = {"src", "tests", "tools", "bench"};
  AnalysisReport report = MustRun(options);
  for (const Finding& f : report.findings) {
    ADD_FAILURE() << f.ToString();
  }
  EXPECT_GT(report.files_analyzed, 100);
}

}  // namespace
}  // namespace streamtune::analysis
