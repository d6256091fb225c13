// Tests for the per-pair GED execution policy: routing rules, the
// upper-bound-only fast path, termination semantics (budget exhaustion is
// "unknown", never "dissimilar"), the policy counters, and the outcome
// invariance that lets adaptive mode run by default — clustering and
// similarity search produce bit-identical results under every policy mode.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "graph/ged.h"
#include "graph/ged_cache.h"
#include "graph/ged_kmeans.h"
#include "graph/ged_policy.h"
#include "graph/similarity.h"
#include "workloads/random_dag.h"

namespace streamtune::graph {
namespace {

// STREAMTUNE_GED_POLICY is process-global; run each test from a known
// state and restore the harness's value.
class GedPolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("STREAMTUNE_GED_POLICY");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    unsetenv("STREAMTUNE_GED_POLICY");
  }
  void TearDown() override {
    if (had_prev_) {
      setenv("STREAMTUNE_GED_POLICY", prev_.c_str(), 1);
    } else {
      unsetenv("STREAMTUNE_GED_POLICY");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

OperatorSpec Node(const char* name, OperatorType t) {
  OperatorSpec s;
  s.name = name;
  s.type = t;
  if (t == OperatorType::kSource) s.source_rate = 1;
  return s;
}

// source -> mid^(n-2) -> sink.
JobGraph Chain(int nodes, OperatorType mid = OperatorType::kMap) {
  JobGraph g("chain");
  int prev = g.AddOperator(Node("s", OperatorType::kSource));
  for (int i = 0; i < nodes - 2; ++i) {
    const std::string name = "m" + std::to_string(i);
    int v = g.AddOperator(Node(name.c_str(), mid));
    EXPECT_TRUE(g.AddEdge(prev, v).ok());
    prev = v;
  }
  int k = g.AddOperator(Node("k", OperatorType::kSink));
  EXPECT_TRUE(g.AddEdge(prev, k).ok());
  return g;
}

TEST_F(GedPolicyTest, ModeFromEnvParsing) {
  EXPECT_EQ(GedPolicyModeFromEnv(), GedPolicyMode::kAuto);
  setenv("STREAMTUNE_GED_POLICY", "bounded", 1);
  EXPECT_EQ(GedPolicyModeFromEnv(), GedPolicyMode::kBounded);
  setenv("STREAMTUNE_GED_POLICY", "exact", 1);
  EXPECT_EQ(GedPolicyModeFromEnv(), GedPolicyMode::kExact);
  setenv("STREAMTUNE_GED_POLICY", "upper", 1);  // deliberately not a pin
  EXPECT_EQ(GedPolicyModeFromEnv(), GedPolicyMode::kAuto);
}

TEST_F(GedPolicyTest, PinnedModesIgnoreStructure) {
  const JobGraph tiny = Chain(3);
  const JobGraph big = Chain(9, OperatorType::kFilter);
  GedOptions opts;
  opts.threshold = 0.5;  // lb screen would fire in auto mode
  EXPECT_EQ(ChooseGedPolicy(tiny, big, opts, GedPolicyMode::kBounded),
            GedPolicy::kBoundedLsa);
  EXPECT_EQ(ChooseGedPolicy(tiny, big, opts, GedPolicyMode::kExact),
            GedPolicy::kExactAStar);
}

TEST_F(GedPolicyTest, AutoRoutesByStructure) {
  const JobGraph tiny_a = Chain(3);
  const JobGraph tiny_b = Chain(4);
  const JobGraph big_a = Chain(8);
  const JobGraph big_b = Chain(9, OperatorType::kFilter);

  // Thresholded pair whose lower bound already exceeds the threshold: the
  // screen is the proof, skip the search.
  GedOptions screened;
  screened.threshold = 2.0;
  ASSERT_GT(LabelSetLowerBound(tiny_a, big_b), screened.threshold);
  EXPECT_EQ(ChooseGedPolicy(tiny_a, big_b, screened, GedPolicyMode::kAuto),
            GedPolicy::kUpperBoundOnly);

  // Tiny pair, no screen: plain A* (the heuristic costs more than it saves).
  EXPECT_EQ(ChooseGedPolicy(tiny_a, tiny_b, GedOptions{},
                            GedPolicyMode::kAuto),
            GedPolicy::kExactAStar);

  // Mid-sized, plausibly similar: the pre-PR bounded search.
  EXPECT_EQ(ChooseGedPolicy(big_a, big_b, GedOptions{}, GedPolicyMode::kAuto),
            GedPolicy::kBoundedLsa);
}

TEST_F(GedPolicyTest, UpperBoundOnlyReportsStructuralBoundAboveThreshold) {
  const JobGraph a = Chain(3);
  const JobGraph b = Chain(9, OperatorType::kFilter);
  GedOptions opts;
  opts.threshold = 2.0;
  ASSERT_GT(LabelSetLowerBound(a, b), opts.threshold);

  GedPolicyCounters counters;
  const GedResult r = PolicyComputeGed(a, b, opts, &counters);
  EXPECT_FALSE(r.exact);
  EXPECT_EQ(r.termination, GedTermination::kPruned);
  EXPECT_EQ(r.distance, StructuralGedUpperBound(a, b));
  EXPECT_GT(r.distance, opts.threshold);
  EXPECT_EQ(counters.upper.load(), 1u);
  EXPECT_EQ(counters.exact.load(), 0u);
  EXPECT_EQ(counters.bounded.load(), 0u);
  EXPECT_EQ(counters.budget_exhausted.load(), 0u);
}

TEST_F(GedPolicyTest, EveryRouteAgreesOnExactDistances) {
  // Exact answers are policy-independent: when a route completes, it
  // reports the true GED.
  const JobGraph a = Chain(4);
  const JobGraph b = Chain(4, OperatorType::kFilter);
  const GedResult bounded = ComputeGed(a, b);
  ASSERT_TRUE(bounded.exact);

  setenv("STREAMTUNE_GED_POLICY", "exact", 1);
  const GedResult exact = PolicyComputeGed(a, b, GedOptions{});
  unsetenv("STREAMTUNE_GED_POLICY");
  const GedResult adaptive = PolicyComputeGed(a, b, GedOptions{});

  ASSERT_TRUE(exact.exact);
  ASSERT_TRUE(adaptive.exact);
  EXPECT_EQ(exact.distance, bounded.distance);
  EXPECT_EQ(adaptive.distance, bounded.distance);
}

// The uncached threshold query: the pair is within tau iff the result is
// exact and at most tau.
GedResult ThresholdQuery(const JobGraph& a, const JobGraph& b, double tau,
                         GedOptions opts = {}) {
  opts.threshold = tau;
  return PolicyComputeGed(a, b, opts);
}

bool Within(const GedResult& r, double tau) {
  return r.exact && r.distance <= tau + 1e-9;
}

TEST_F(GedPolicyTest, WithinThresholdOutParamDistinguishesOutcomes) {
  const JobGraph g = Chain(4);

  // Proven similar: exact distance within tau.
  const GedResult similar = ThresholdQuery(g, g, 1.0);
  EXPECT_TRUE(Within(similar, 1.0));
  EXPECT_TRUE(similar.exact);
  EXPECT_EQ(similar.termination, GedTermination::kExact);
  EXPECT_EQ(similar.distance, 0.0);

  // Proven dissimilar on the lower-bound screen: synthetic kPruned result
  // carrying the free structural upper bound.
  const JobGraph far = Chain(9, OperatorType::kFilter);
  const GedResult pruned = ThresholdQuery(g, far, 1.0);
  EXPECT_FALSE(Within(pruned, 1.0));
  EXPECT_FALSE(pruned.exact);
  EXPECT_EQ(pruned.termination, GedTermination::kPruned);
  EXPECT_EQ(pruned.distance, StructuralGedUpperBound(g, far));
}

TEST_F(GedPolicyTest, BudgetExhaustionIsUnknownNotDissimilar) {
  // Two mid-sized graphs the screen cannot separate, with a budget far too
  // small to finish: the boolean stays conservative (false) but the
  // termination says "unknown", not "proven > tau" (satellite 6).
  const JobGraph a = Chain(8);
  const JobGraph b = Chain(8, OperatorType::kFilter);
  GedOptions opts;
  opts.expansion_budget = 1;
  const double tau = LabelSetLowerBound(a, b) + 5.0;

  const GedResult r = ThresholdQuery(a, b, tau, opts);
  EXPECT_FALSE(Within(r, tau));
  EXPECT_FALSE(r.exact);
  EXPECT_EQ(r.termination, GedTermination::kBudget);

  GedPolicyCounters counters;
  GedOptions thresholded = opts;
  thresholded.threshold = tau;
  (void)PolicyComputeGed(a, b, thresholded, &counters);
  EXPECT_EQ(counters.bounded.load(), 1u);
  EXPECT_EQ(counters.budget_exhausted.load(), 1u);
}

TEST_F(GedPolicyTest, CacheNeverCertifiesBudgetExhaustedSearches) {
  // A budget-starved miss must not mint a "ged > tau" certificate: a later
  // query with a real budget has to search again and find the true answer.
  const JobGraph a = Chain(6);
  const JobGraph b = Chain(6, OperatorType::kFilter);
  GedOptions starved;
  starved.expansion_budget = 1;
  const double tau = LabelSetLowerBound(a, b) + 3.0;
  starved.threshold = tau;
  GedOptions budgeted;
  budgeted.threshold = tau;

  GedCache cache;
  EXPECT_FALSE(Within(cache.Compute(a, b, starved), tau));
  // The exact search must be a fresh miss (no certified-hit short-circuit).
  const GedResult truth = ComputeGed(a, b);
  ASSERT_TRUE(truth.exact);
  const bool within = truth.distance <= tau + 1e-9;
  EXPECT_EQ(Within(cache.Compute(a, b, budgeted), tau), within);
  const GedCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits_certified, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_GE(stats.budget_exhausted, 1u);
}

TEST_F(GedPolicyTest, CacheComputeCountsPolicyHistogram) {
  const JobGraph tiny = Chain(3);
  const JobGraph far = Chain(9, OperatorType::kFilter);
  GedCache cache;

  GedOptions screened;
  screened.threshold = 2.0;
  (void)cache.Compute(tiny, far, screened);  // lb > tau: upper-bound-only

  (void)cache.Compute(tiny, Chain(4), GedOptions{});  // tiny pair: exact A*

  (void)cache.Compute(Chain(8), Chain(9), GedOptions{});  // bounded search

  const GedCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.policy_upper, 1u);
  EXPECT_EQ(stats.policy_exact, 1u);
  EXPECT_EQ(stats.policy_bounded, 1u);
  EXPECT_EQ(stats.budget_exhausted, 0u);
}

TEST_F(GedPolicyTest, ClusteringIsBitIdenticalAcrossPolicyModes) {
  // The outcome-invariance contract, end to end: adaptive routing changes
  // which search runs per pair, never what clustering computes.
  const std::vector<JobGraph> dataset =
      workloads::GenerateRandomDags(12, /*seed=*/77);
  KMeansOptions opts;
  opts.k = 3;
  opts.max_iterations = 6;
  GedCache pinned_cache, adaptive_cache;

  setenv("STREAMTUNE_GED_POLICY", "bounded", 1);
  opts.cache = &pinned_cache;
  const auto pinned = ClusterDags(dataset, opts);
  unsetenv("STREAMTUNE_GED_POLICY");
  opts.cache = &adaptive_cache;
  const auto adaptive = ClusterDags(dataset, opts);

  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(adaptive.ok());
  EXPECT_EQ(adaptive->assignment, pinned->assignment);
  EXPECT_EQ(adaptive->center_indices, pinned->center_indices);
  EXPECT_EQ(adaptive->within_cluster_distance,
            pinned->within_cluster_distance);
}

TEST_F(GedPolicyTest, SimilaritySearchIsBitIdenticalAcrossPolicyModes) {
  const std::vector<JobGraph> dataset =
      workloads::GenerateRandomDags(16, /*seed=*/123);
  const JobGraph& query = dataset[0];

  setenv("STREAMTUNE_GED_POLICY", "bounded", 1);
  const std::vector<int> pinned = SimilaritySearch(dataset, query, 5.0);
  unsetenv("STREAMTUNE_GED_POLICY");
  const std::vector<int> adaptive = SimilaritySearch(dataset, query, 5.0);

  EXPECT_EQ(adaptive, pinned);
  EXPECT_FALSE(adaptive.empty());  // the query itself always matches
}

}  // namespace
}  // namespace streamtune::graph
