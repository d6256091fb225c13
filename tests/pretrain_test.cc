#include <gtest/gtest.h>

#include <cmath>

#include "core/history.h"
#include "core/pretrain.h"
#include "workloads/pqp.h"

namespace streamtune::core {
namespace {

std::vector<HistoryRecord> SmallCorpus() {
  std::vector<JobGraph> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, i));
  }
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(
        workloads::BuildPqpJob(workloads::PqpTemplate::kThreeWayJoin, i));
  }
  HistoryOptions opts;
  opts.samples_per_job = 8;
  return CollectHistory(jobs, opts);
}

PretrainOptions FastOptions() {
  PretrainOptions opts;
  opts.k = 2;
  opts.epochs = 8;
  opts.hidden_dim = 16;
  return opts;
}

TEST(PretrainTest, RejectsEmptyCorpus) {
  Pretrainer pretrainer(FastOptions());
  EXPECT_FALSE(pretrainer.Run({}).ok());
}

TEST(PretrainTest, RejectsNonFiniteRecord) {
  std::vector<HistoryRecord> corpus = SmallCorpus();
  corpus[3].source_rates[0] = std::nan("");
  auto bundle = Pretrainer(FastOptions()).Run(corpus);
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kInvalidArgument);
}

TEST(PretrainTest, ProducesRequestedClusters) {
  auto bundle = Pretrainer(FastOptions()).Run(SmallCorpus());
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle->num_clusters(), 2);
  // Every record lands in exactly one cluster.
  size_t assigned = 0;
  for (int c = 0; c < bundle->num_clusters(); ++c) {
    assigned += bundle->cluster(c).record_indices.size();
  }
  EXPECT_EQ(assigned, bundle->records().size());
}

TEST(PretrainTest, GlobalEncoderFallback) {
  PretrainOptions opts = FastOptions();
  opts.use_clustering = false;  // Sec. VII limited-dataset mode
  auto bundle = Pretrainer(opts).Run(SmallCorpus());
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle->num_clusters(), 1);
}

TEST(PretrainTest, AssignClusterIsNearestCenter) {
  auto bundle = Pretrainer(FastOptions()).Run(SmallCorpus());
  ASSERT_TRUE(bundle.ok());
  ASSERT_EQ(bundle->num_clusters(), 2);
  // Each cluster's own center graph must assign to that cluster (GED 0),
  // and the two centers must be distinct structures.
  int c0 = bundle->AssignCluster(bundle->cluster(0).center);
  int c1 = bundle->AssignCluster(bundle->cluster(1).center);
  EXPECT_EQ(c0, 0);
  EXPECT_EQ(c1, 1);
  EXPECT_NE(bundle->cluster(0).center.name(),
            bundle->cluster(1).center.name());
}

TEST(PretrainTest, WarmUpDatasetShape) {
  auto bundle = Pretrainer(FastOptions()).Run(SmallCorpus());
  ASSERT_TRUE(bundle.ok());
  for (int c = 0; c < bundle->num_clusters(); ++c) {
    auto warmup = bundle->WarmUpDataset(c, 16, 7);
    EXPECT_FALSE(warmup.empty());
    for (const auto& s : warmup) {
      // hidden_dim plus the appended mean-rate skip connection.
      EXPECT_EQ(static_cast<int>(s.embedding.size()),
                16 + FeatureEncoder::kRateFeatures);
      EXPECT_GE(s.parallelism, 1);
      EXPECT_TRUE(s.label == 0 || s.label == 1);
    }
  }
}

TEST(PretrainTest, WarmUpRespectsMaxRecords) {
  auto bundle = Pretrainer(FastOptions()).Run(SmallCorpus());
  ASSERT_TRUE(bundle.ok());
  auto small = bundle->WarmUpDataset(0, 2, 7);
  auto large = bundle->WarmUpDataset(0, 100, 7);
  EXPECT_LE(small.size(), large.size());
}

TEST(PretrainTest, HeadProbabilitiesValidAndParallelismSensitive) {
  auto bundle = Pretrainer(FastOptions()).Run(SmallCorpus());
  ASSERT_TRUE(bundle.ok());
  JobGraph target = workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 7);
  std::vector<double> rates(target.num_operators(), 0.0);
  for (int v = 0; v < target.num_operators(); ++v) {
    if (target.op(v).is_source()) rates[v] = 5e3;
  }
  int c = bundle->AssignCluster(target);
  std::vector<int> low(target.num_operators(), 1);
  std::vector<int> high(target.num_operators(), 50);
  auto p_low = bundle->PretrainHeadProbabilities(c, target, rates, low);
  auto p_high = bundle->PretrainHeadProbabilities(c, target, rates, high);
  double diff = 0;
  for (size_t v = 0; v < p_low.size(); ++v) {
    EXPECT_GE(p_low[v], 0.0);
    EXPECT_LE(p_low[v], 1.0);
    diff += std::fabs(p_low[v] - p_high[v]);
  }
  EXPECT_GT(diff, 1e-4);  // parallelism reaches the prediction
}

TEST(PretrainTest, PretrainedHeadBeatsChanceOnHeldOutLabels) {
  // Train on the corpus, evaluate label accuracy on a held-out job of the
  // same family. Uses more epochs than the other (pipeline-shape) tests.
  auto corpus = SmallCorpus();
  PretrainOptions pre_opts = FastOptions();
  pre_opts.epochs = 25;
  auto bundle = Pretrainer(pre_opts).Run(corpus);
  ASSERT_TRUE(bundle.ok());

  std::vector<JobGraph> held_out{
      workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 7)};
  HistoryOptions opts;
  opts.samples_per_job = 12;
  opts.seed = 4242;
  auto test_records = CollectHistory(held_out, opts);

  int correct = 0, total = 0;
  for (const auto& rec : test_records) {
    int c = bundle->AssignCluster(rec.graph);
    auto probs = bundle->PretrainHeadProbabilities(c, rec.graph,
                                                   rec.source_rates,
                                                   rec.parallelism);
    for (int v = 0; v < rec.graph.num_operators(); ++v) {
      if (rec.labels[v] < 0) continue;
      ++total;
      if ((probs[v] >= 0.5) == (rec.labels[v] == 1)) ++correct;
    }
  }
  ASSERT_GT(total, 10);
  EXPECT_GT(static_cast<double>(correct) / total, 0.6)
      << correct << "/" << total;
}

TEST(PretrainTest, AgnosticEmbeddingsVaryWithRates) {
  auto bundle = Pretrainer(FastOptions()).Run(SmallCorpus());
  ASSERT_TRUE(bundle.ok());
  JobGraph target = workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 0);
  std::vector<double> low(target.num_operators(), 0.0);
  std::vector<double> high(target.num_operators(), 0.0);
  for (int v = 0; v < target.num_operators(); ++v) {
    if (target.op(v).is_source()) {
      low[v] = 5e3;
      high[v] = 5e4;
    }
  }
  auto e_low = bundle->AgnosticEmbeddings(0, target, low);
  auto e_high = bundle->AgnosticEmbeddings(0, target, high);
  EXPECT_GT(e_low.Sub(e_high).SquaredNorm(), 1e-6);
}

TEST(PretrainTest, ElbowPathSelectsK) {
  PretrainOptions opts = FastOptions();
  opts.k = 0;  // force elbow selection
  opts.max_k = 4;
  auto bundle = Pretrainer(opts).Run(SmallCorpus());
  ASSERT_TRUE(bundle.ok());
  EXPECT_GE(bundle->num_clusters(), 2);
  EXPECT_LE(bundle->num_clusters(), 4);
}

}  // namespace
}  // namespace streamtune::core
