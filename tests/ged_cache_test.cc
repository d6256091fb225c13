#include "graph/ged_cache.h"

#include <gtest/gtest.h>

#include <string>

#include "workloads/pqp.h"

namespace streamtune::graph {
namespace {

JobGraph Linear(int variant) {
  return workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, variant);
}
JobGraph ThreeWay(int variant) {
  return workloads::BuildPqpJob(workloads::PqpTemplate::kThreeWayJoin, variant);
}

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

// A threshold query's pair is within tau iff the result is exact and at
// most tau.
bool Within(const GedResult& r, double tau) {
  return r.exact && r.distance <= tau + 1e-9;
}

// The uncached threshold query.
GedResult ThresholdQuery(const JobGraph& a, const JobGraph& b, double tau,
                         GedOptions opts = {}) {
  opts.threshold = tau;
  return QueryGed(a, b, opts, nullptr);
}

// A threshold query through the cache.
bool Within(GedCache& cache, const JobGraph& a, const JobGraph& b,
            double tau) {
  GedOptions opts;
  opts.threshold = tau;
  return Within(cache.Compute(a, b, opts), tau);
}

TEST(GedCacheTest, ExactDistanceIsCachedAndServed) {
  GedCache cache;
  JobGraph a = Linear(0), b = Linear(1);
  GedResult direct = ComputeGed(a, b);
  ASSERT_TRUE(direct.exact);

  GedResult first = cache.Compute(a, b);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(first.distance, direct.distance);
  EXPECT_TRUE(first.exact);

  GedResult second = cache.Compute(a, b);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(second.distance, direct.distance);
  EXPECT_TRUE(second.exact);
  EXPECT_EQ(second.expansions, 0u);  // served, not searched
}

TEST(GedCacheTest, HitOnSymmetricPairOrder) {
  GedCache cache;
  JobGraph a = Linear(0), b = ThreeWay(0);
  GedResult ab = cache.Compute(a, b);
  GedResult ba = cache.Compute(b, a);  // ged is symmetric: must hit
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(ab.distance, ba.distance);
  EXPECT_DOUBLE_EQ(ab.distance, ComputeGed(b, a).distance);
}

TEST(GedCacheTest, ExactEntryAnswersThresholdQueries) {
  GedCache cache;
  JobGraph a = Linear(0), b = Linear(2);
  double d = cache.Compute(a, b).distance;
  ASSERT_GT(d, 0.0);

  EXPECT_TRUE(Within(cache, a, b, d));
  EXPECT_FALSE(Within(cache, a, b, d - 1.0));
  // Both served from the exact entry.
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // A thresholded Compute against the exact entry mirrors a fresh search:
  // beyond tau the result is flagged inexact, within tau it is exact.
  GedOptions opts;
  opts.threshold = d - 1.0;
  GedResult pruned = cache.Compute(a, b, opts);
  EXPECT_FALSE(pruned.exact);
  EXPECT_GT(pruned.distance, opts.threshold);
  opts.threshold = d;
  GedResult within = cache.Compute(a, b, opts);
  EXPECT_TRUE(within.exact);
  EXPECT_DOUBLE_EQ(within.distance, d);
}

TEST(GedCacheTest, PrunedResultIsNotCachedAsExact) {
  GedCache cache;
  JobGraph a = Linear(0), b = ThreeWay(3);
  double d = ComputeGed(a, b).distance;
  ASSERT_GT(d, 1.0) << "need structurally distant graphs for this test";

  // Threshold-pruned: only certifies ged > 1, must not poison exactness.
  EXPECT_FALSE(Within(cache, a, b, 1.0));
  EXPECT_EQ(cache.stats().misses, 1u);

  // The exact query must run a real search (miss) and return the true
  // distance, not the pruned upper bound.
  GedResult exact = cache.Compute(a, b);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_TRUE(exact.exact);
  EXPECT_DOUBLE_EQ(exact.distance, d);
}

TEST(GedCacheTest, CertifiedLowerBoundAnswersSmallerThresholds) {
  GedCache cache;
  JobGraph a = Linear(1), b = ThreeWay(1);
  ASSERT_GT(ComputeGed(a, b).distance, 2.0);

  EXPECT_FALSE(Within(cache, a, b, 2.0));  // miss: certifies > 2
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_FALSE(Within(cache, a, b, 2.0));  // identical query: hit
  EXPECT_FALSE(Within(cache, a, b, 1.0));  // smaller tau: hit
  EXPECT_FALSE(Within(cache, a, b, 0.0));
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // A larger tau is NOT answered by the certificate; it must search again.
  Within(cache, a, b, 100.0);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(GedCacheTest, PrunedComputeServesUpperBoundAboveTau) {
  GedCache cache;
  JobGraph a = Linear(0), b = ThreeWay(2);
  GedOptions opts;
  opts.threshold = 1.0;
  GedResult first = cache.Compute(a, b, opts);
  ASSERT_FALSE(first.exact);

  GedResult served = cache.Compute(a, b, opts);  // certificate hit
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_FALSE(served.exact);
  EXPECT_GT(served.distance, opts.threshold);
}

TEST(GedCacheTest, UpperBoundOnlyReportsStructuralBoundAboveThreshold) {
  // A thresholded query whose label-set lower bound exceeds tau is answered
  // by the screen: no search, the free structural upper bound, kPruned.
  // Uncached and on the cache's miss path alike.
  const JobGraph a = Chain(3);
  const JobGraph b = Chain(9, OperatorType::kFilter);
  GedOptions opts;
  opts.threshold = 2.0;
  ASSERT_GT(LabelSetLowerBound(a, b), opts.threshold);

  GedCache cache;
  for (const GedResult& r :
       {QueryGed(a, b, opts, nullptr), QueryGed(a, b, opts, &cache)}) {
    EXPECT_FALSE(r.exact);
    EXPECT_EQ(r.termination, GedTermination::kPruned);
    EXPECT_EQ(r.distance, StructuralGedUpperBound(a, b));
    EXPECT_GT(r.distance, opts.threshold);
    EXPECT_EQ(r.expansions, 0u);
  }
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(GedCacheTest, WithinThresholdOutParamDistinguishesOutcomes) {
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

TEST(GedCacheTest, BudgetExhaustionIsUnknownNotDissimilar) {
  // Two mid-sized graphs the screen cannot separate, with a budget far too
  // small to finish: the boolean stays conservative (false) but the
  // termination says "unknown", not "proven > tau".
  const JobGraph a = Chain(8);
  const JobGraph b = Chain(8, OperatorType::kFilter);
  GedOptions opts;
  opts.expansion_budget = 1;
  const double tau = LabelSetLowerBound(a, b) + 5.0;

  const GedResult r = ThresholdQuery(a, b, tau, opts);
  EXPECT_FALSE(Within(r, tau));
  EXPECT_FALSE(r.exact);
  EXPECT_EQ(r.termination, GedTermination::kBudget);
}

TEST(GedCacheTest, CacheNeverCertifiesBudgetExhaustedSearches) {
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
  EXPECT_EQ(stats.budget_exhausted, 1u);
  cache.Clear();
  EXPECT_EQ(cache.stats().budget_exhausted, 0u);
}

TEST(GedCacheTest, WithinThresholdTrueStoresExactDistance) {
  GedCache cache;
  JobGraph a = Linear(0), b = Linear(1);
  double d = ComputeGed(a, b).distance;
  ASSERT_TRUE(Within(cache, a, b, d + 5.0));
  // The in-threshold search proved the exact distance; the exact query is
  // now a hit.
  GedResult r = cache.Compute(a, b);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.distance, d);
}

TEST(GedCacheTest, IdenticalGraphsShareOneEntry) {
  GedCache cache;
  // Same structure built twice (different objects, same canonical hash).
  JobGraph a1 = Linear(4), a2 = Linear(4);
  EXPECT_DOUBLE_EQ(cache.Compute(a1, a2).distance, 0.0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.Compute(a2, a1).distance, 0.0);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(GedCacheTest, StatsSplitHitsByKind) {
  GedCache cache;
  JobGraph a = Linear(0), b = Linear(1);

  cache.Compute(a, b);  // miss, stores the exact distance
  cache.Compute(a, b);  // exact hit
  EXPECT_EQ(cache.stats().hits_exact, 1u);
  EXPECT_EQ(cache.stats().hits_certified, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // A pruned search against a fresh pair stores only a certificate; serving
  // from it is a certified hit, not an exact one.
  JobGraph c = ThreeWay(0);
  GedOptions opts;
  opts.threshold = 1.0;
  ASSERT_FALSE(cache.Compute(a, c, opts).exact);
  ASSERT_FALSE(cache.Compute(a, c, opts).exact);
  EXPECT_EQ(cache.stats().hits_exact, 1u);
  EXPECT_EQ(cache.stats().hits_certified, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);

  // The aggregate stays the sum of the kinds, and entries mirrors size().
  EXPECT_EQ(cache.stats().hits,
            cache.stats().hits_exact + cache.stats().hits_certified);
  EXPECT_EQ(cache.stats().entries, cache.size());
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 2.0 / 4.0);
}

TEST(GedCacheTest, ClearResetsHitKindsToo) {
  GedCache cache;
  JobGraph a = Linear(2), b = ThreeWay(2);
  cache.Compute(a, b);
  cache.Compute(a, b);
  Within(cache, a, ThreeWay(3), 0.5);
  Within(cache, a, ThreeWay(3), 0.25);
  ASSERT_GT(cache.stats().hits_exact, 0u);
  ASSERT_GT(cache.stats().hits_certified, 0u);
  cache.Clear();
  EXPECT_EQ(cache.stats().hits_exact, 0u);
  EXPECT_EQ(cache.stats().hits_certified, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(GedCacheTest, ClearResetsEntriesAndStats) {
  GedCache cache;
  cache.Compute(Linear(0), Linear(1));
  cache.Compute(Linear(0), Linear(1));
  EXPECT_GT(cache.size(), 0u);
  EXPECT_GT(cache.stats().hits, 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 0.0);
}

TEST(GedCacheTest, CanonicalHashIsStructuralNotNominal) {
  // Same wiring, different operator names / insertion order of edges:
  // hashes must agree. Different operator type: hashes must differ.
  JobGraph g1("one");
  int s1 = g1.AddOperator({.name = "src", .type = OperatorType::kSource});
  int m1 = g1.AddOperator({.name = "m", .type = OperatorType::kMap});
  int k1 = g1.AddOperator({.name = "snk", .type = OperatorType::kSink});
  ASSERT_TRUE(g1.AddEdge(s1, m1).ok());
  ASSERT_TRUE(g1.AddEdge(m1, k1).ok());

  JobGraph g2("two");
  int s2 = g2.AddOperator({.name = "SRC2", .type = OperatorType::kSource});
  int m2 = g2.AddOperator({.name = "MAP2", .type = OperatorType::kMap});
  int k2 = g2.AddOperator({.name = "SINK2", .type = OperatorType::kSink});
  ASSERT_TRUE(g2.AddEdge(m2, k2).ok());
  ASSERT_TRUE(g2.AddEdge(s2, m2).ok());

  EXPECT_EQ(g1.CanonicalHash(), g2.CanonicalHash());

  JobGraph g3("three");
  int s3 = g3.AddOperator({.name = "src", .type = OperatorType::kSource});
  int f3 = g3.AddOperator({.name = "f", .type = OperatorType::kFilter});
  int k3 = g3.AddOperator({.name = "snk", .type = OperatorType::kSink});
  ASSERT_TRUE(g3.AddEdge(s3, f3).ok());
  ASSERT_TRUE(g3.AddEdge(f3, k3).ok());
  EXPECT_NE(g1.CanonicalHash(), g3.CanonicalHash());

  // Edge direction matters (direction modification is a real edit).
  JobGraph g4("four");
  int s4 = g4.AddOperator({.name = "src", .type = OperatorType::kSource});
  int m4 = g4.AddOperator({.name = "m", .type = OperatorType::kMap});
  int k4 = g4.AddOperator({.name = "snk", .type = OperatorType::kSink});
  ASSERT_TRUE(g4.AddEdge(s4, m4).ok());
  ASSERT_TRUE(g4.AddEdge(k4, m4).ok());  // reversed second edge
  EXPECT_NE(g1.CanonicalHash(), g4.CanonicalHash());
}

}  // namespace
}  // namespace streamtune::graph
