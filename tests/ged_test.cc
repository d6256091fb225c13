#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/ged.h"
#include "graph/ged_cache.h"
#include "workloads/nexmark.h"
#include "workloads/pqp.h"
#include "workloads/random_dag.h"

namespace streamtune::graph {
namespace {

OperatorSpec Node(const char* name, OperatorType t) {
  OperatorSpec s;
  s.name = name;
  s.type = t;
  if (t == OperatorType::kSource) s.source_rate = 1;
  return s;
}

// src -> map -> sink
JobGraph Chain(OperatorType mid = OperatorType::kMap) {
  JobGraph g("chain");
  int a = g.AddOperator(Node("s", OperatorType::kSource));
  int b = g.AddOperator(Node("m", mid));
  int c = g.AddOperator(Node("k", OperatorType::kSink));
  EXPECT_TRUE(g.AddEdge(a, b).ok());
  EXPECT_TRUE(g.AddEdge(b, c).ok());
  return g;
}

TEST(GedTest, IdenticalGraphsHaveZeroDistance) {
  JobGraph g = Chain();
  GedResult r = ComputeGed(g, g);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.distance, 0.0);
}

TEST(GedTest, OperatorTypeModificationCostsOne) {
  GedResult r = ComputeGed(Chain(OperatorType::kMap),
                           Chain(OperatorType::kFilter));
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.distance, 1.0);
}

TEST(GedTest, NodePlusEdgeInsertionCostsTwo) {
  JobGraph longer("longer");
  int a = longer.AddOperator(Node("s", OperatorType::kSource));
  int b = longer.AddOperator(Node("m", OperatorType::kMap));
  int b2 = longer.AddOperator(Node("m2", OperatorType::kMap));
  int c = longer.AddOperator(Node("k", OperatorType::kSink));
  ASSERT_TRUE(longer.AddEdge(a, b).ok());
  ASSERT_TRUE(longer.AddEdge(b, b2).ok());
  ASSERT_TRUE(longer.AddEdge(b2, c).ok());
  GedResult r = ComputeGed(Chain(), longer);
  EXPECT_TRUE(r.exact);
  // Optimal script maps the chain's sink onto m2 (relabel, 1), inserts a
  // new sink node (1), and inserts the edge m2->k (1): cost 3. The naive
  // "insert m2 in the middle" script costs 4 (node + edge delete + two
  // edge inserts).
  EXPECT_DOUBLE_EQ(r.distance, 3.0);
}

TEST(GedTest, EdgeDirectionModificationCostsOne) {
  // Two two-node graphs with a single edge in opposite directions.
  // (Not valid streaming jobs, but GED operates on any DAG.)
  JobGraph g1("fwd");
  int a1 = g1.AddOperator(Node("a", OperatorType::kMap));
  int b1 = g1.AddOperator(Node("b", OperatorType::kFilter));
  ASSERT_TRUE(g1.AddEdge(a1, b1).ok());
  JobGraph g2("bwd");
  int a2 = g2.AddOperator(Node("a", OperatorType::kMap));
  int b2 = g2.AddOperator(Node("b", OperatorType::kFilter));
  ASSERT_TRUE(g2.AddEdge(b2, a2).ok());
  GedResult r = ComputeGed(g1, g2);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.distance, 1.0);
}

TEST(GedTest, MappingCostMatchesManualScript) {
  JobGraph g1 = Chain(OperatorType::kMap);
  JobGraph g2 = Chain(OperatorType::kFilter);
  // Identity mapping: only the middle label differs.
  EXPECT_DOUBLE_EQ(MappingCost(g1, g2, {0, 1, 2}), 1.0);
  // Mapping source onto sink etc. costs more.
  EXPECT_GT(MappingCost(g1, g2, {2, 1, 0}), 1.0);
  // Deleting everything: 3 node deletions + 2 edge deletions on g1 side,
  // then 3 insertions + 2 edge insertions for g2.
  EXPECT_DOUBLE_EQ(MappingCost(g1, g2, {-1, -1, -1}), 10.0);
}

TEST(GedTest, GreedyIsUpperBoundAndLabelSetIsLowerBound) {
  Rng rng(1);
  workloads::RandomDagConfig cfg;
  auto dags = workloads::GenerateRandomDags(12, 555, cfg);
  for (size_t i = 0; i + 1 < dags.size(); i += 2) {
    GedResult exact = ComputeGed(dags[i], dags[i + 1]);
    if (!exact.exact) continue;
    EXPECT_GE(GreedyGedUpperBound(dags[i], dags[i + 1]),
              exact.distance - 1e-9);
    EXPECT_LE(LabelSetLowerBound(dags[i], dags[i + 1]),
              exact.distance + 1e-9);
  }
}

// Small DAGs keep the exact A* tractable inside the unit-test budget.
workloads::RandomDagConfig SmallDagConfig() {
  workloads::RandomDagConfig cfg;
  cfg.max_sources = 2;
  cfg.max_chain_length = 2;
  return cfg;
}

TEST(GedTest, DirectAndLsaSearchAgree) {
  auto dags = workloads::GenerateRandomDags(8, 777, SmallDagConfig());
  GedOptions direct;
  direct.use_lower_bound = false;
  GedOptions lsa;
  lsa.use_lower_bound = true;
  for (size_t i = 0; i < dags.size(); ++i) {
    for (size_t j = i + 1; j < dags.size(); ++j) {
      GedResult a = ComputeGed(dags[i], dags[j], direct);
      GedResult b = ComputeGed(dags[i], dags[j], lsa);
      if (a.exact && b.exact) {
        EXPECT_DOUBLE_EQ(a.distance, b.distance)
            << dags[i].name() << " vs " << dags[j].name();
      }
      // The bound must not slow discovery: LSa expands no more states.
      EXPECT_LE(b.expansions, a.expansions);
    }
  }
}

class GedMetricPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GedMetricPropertyTest, SymmetryHolds) {
  auto dags = workloads::GenerateRandomDags(6, GetParam(), SmallDagConfig());
  for (size_t i = 0; i < dags.size(); ++i) {
    for (size_t j = i + 1; j < dags.size(); ++j) {
      GedResult ab = ComputeGed(dags[i], dags[j]);
      GedResult ba = ComputeGed(dags[j], dags[i]);
      if (ab.exact && ba.exact) {
        EXPECT_DOUBLE_EQ(ab.distance, ba.distance);
      }
    }
  }
}

TEST_P(GedMetricPropertyTest, TriangleInequalityHolds) {
  auto dags =
      workloads::GenerateRandomDags(5, GetParam() ^ 0x77, SmallDagConfig());
  for (size_t i = 0; i < dags.size(); ++i) {
    for (size_t j = 0; j < dags.size(); ++j) {
      for (size_t k = 0; k < dags.size(); ++k) {
        if (i == j || j == k || i == k) continue;
        GedResult ij = ComputeGed(dags[i], dags[j]);
        GedResult jk = ComputeGed(dags[j], dags[k]);
        GedResult ik = ComputeGed(dags[i], dags[k]);
        if (ij.exact && jk.exact && ik.exact) {
          EXPECT_LE(ik.distance, ij.distance + jk.distance + 1e-9);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GedMetricPropertyTest,
                         ::testing::Values(10, 20, 30));

TEST(GedTest, ThresholdSearchAgreesWithExact) {
  auto dags = workloads::GenerateRandomDags(8, 999, SmallDagConfig());
  for (size_t i = 0; i < dags.size(); ++i) {
    for (size_t j = i + 1; j < dags.size(); ++j) {
      GedResult exact = ComputeGed(dags[i], dags[j]);
      if (!exact.exact) continue;
      for (double tau : {2.0, 5.0, 8.0}) {
        GedOptions opts;
        opts.threshold = tau;
        const GedResult r = QueryGed(dags[i], dags[j], opts, nullptr);
        EXPECT_EQ(r.exact && r.distance <= tau + 1e-9,
                  exact.distance <= tau + 1e-9)
            << "tau=" << tau << " d=" << exact.distance;
      }
    }
  }
}

// The 33 Flink jobs the bench corpus is collected from: the five Nexmark
// queries, 6 Linear, 10 2-way-join and 12 3-way-join PQP jobs.
std::vector<JobGraph> FlinkCorpusJobs() {
  std::vector<JobGraph> jobs;
  for (auto q : workloads::AllNexmarkQueries()) {
    jobs.push_back(workloads::BuildNexmarkJob(q, workloads::Engine::kFlink));
  }
  const std::pair<workloads::PqpTemplate, int> templates[] = {
      {workloads::PqpTemplate::kLinear, 6},
      {workloads::PqpTemplate::kTwoWayJoin, 10},
      {workloads::PqpTemplate::kThreeWayJoin, 12}};
  for (const auto& [t, count] : templates) {
    for (int i = 0; i < count; ++i) {
      jobs.push_back(workloads::BuildPqpJob(t, i));
    }
  }
  return jobs;
}

// The label-set screen on production-shaped graphs: on every corpus pair,
// the screened threshold query answers as the exact search does, and the
// screen both fires and lets pairs through at each tau. Pairs of jobs with
// at most five operators also get plain A*'s (h = 0) distance; plain A*
// runs on no larger job, where it can exhaust its expansion budget.
TEST(GedTest, ScreenedQueryAgreesWithExactOnFlinkCorpus) {
  const std::vector<JobGraph> jobs = FlinkCorpusJobs();
  ASSERT_EQ(jobs.size(), 33u);
  GedOptions plain;
  plain.use_lower_bound = false;
  std::vector<double> distance;  // row-major over the pairs i < j
  int small_pairs = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    for (size_t j = i + 1; j < jobs.size(); ++j) {
      const GedResult exact = ComputeGed(jobs[i], jobs[j]);
      ASSERT_TRUE(exact.exact) << jobs[i].name() << " / " << jobs[j].name();
      distance.push_back(exact.distance);
      if (jobs[i].num_operators() <= 5 && jobs[j].num_operators() <= 5) {
        ++small_pairs;
        const GedResult astar = ComputeGed(jobs[i], jobs[j], plain);
        ASSERT_TRUE(astar.exact);
        EXPECT_EQ(exact.distance, astar.distance)
            << jobs[i].name() << " / " << jobs[j].name();
      }
    }
  }
  EXPECT_GT(small_pairs, 0);

  for (double tau : {2.0, 5.0, 8.0}) {
    int screened = 0, searched = 0;
    size_t pair = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
      for (size_t j = i + 1; j < jobs.size(); ++j) {
        const double d = distance[pair++];
        GedOptions opts;
        opts.threshold = tau;
        const GedResult r = QueryGed(jobs[i], jobs[j], opts, nullptr);
        EXPECT_EQ(r.exact && r.distance <= tau + 1e-9, d <= tau + 1e-9)
            << jobs[i].name() << " / " << jobs[j].name() << " tau=" << tau
            << " d=" << d;
        if (LabelSetLowerBound(jobs[i], jobs[j]) > tau + 1e-9) {
          ++screened;
        } else {
          ++searched;
        }
      }
    }
    EXPECT_GT(screened, 0) << "tau=" << tau;
    EXPECT_GT(searched, 0) << "tau=" << tau;
  }
}

TEST(GedTest, BudgetExhaustionFallsBackToUpperBound) {
  auto dags = workloads::GenerateRandomDags(2, 1234);
  GedOptions opts;
  opts.expansion_budget = 1;  // force the fallback
  GedResult r = ComputeGed(dags[0], dags[1], opts);
  if (!r.exact) {
    EXPECT_DOUBLE_EQ(r.distance, GreedyGedUpperBound(dags[0], dags[1]));
  }
}

TEST(GedTest, SizeDifferenceLowerBoundsDistance) {
  auto small = workloads::GenerateRandomDags(1, 42)[0];
  auto big = workloads::GenerateRandomDags(
      1, 43, workloads::RandomDagConfig{3, 3, 3, 1e3, 1e4})[0];
  GedResult r = ComputeGed(small, big);
  EXPECT_GE(r.distance,
            std::abs(small.num_operators() - big.num_operators()) - 1e-9);
}

}  // namespace
}  // namespace streamtune::graph
