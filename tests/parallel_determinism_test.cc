// Determinism of the offline pipeline: clustering must be identical with or
// without the GED memo cache, and pre-training bit-identical whether its
// per-cluster training runs on 1 thread or many (see DESIGN.md
// "Concurrency model").

#include <gtest/gtest.h>

#include "core/history.h"
#include "core/pretrain.h"
#include "graph/ged_kmeans.h"
#include "workloads/pqp.h"

namespace streamtune {
namespace {

std::vector<JobGraph> MixedDataset() {
  std::vector<JobGraph> dags;
  for (int i = 0; i < 5; ++i) {
    dags.push_back(workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, i));
  }
  for (int i = 0; i < 5; ++i) {
    dags.push_back(
        workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, i));
  }
  for (int i = 0; i < 5; ++i) {
    dags.push_back(
        workloads::BuildPqpJob(workloads::PqpTemplate::kThreeWayJoin, i));
  }
  return dags;
}

TEST(ParallelDeterminismTest, CacheDoesNotChangeClustering) {
  // The memo table must be invisible: same assignments, centers and inertia
  // as the uncached (pre-cache) pipeline.
  auto dags = MixedDataset();
  graph::KMeansOptions uncached;
  uncached.k = 3;
  graph::GedCache cache;
  graph::KMeansOptions cached = uncached;
  cached.cache = &cache;

  auto a = graph::ClusterDags(dags, uncached);
  auto b = graph::ClusterDags(dags, cached);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_EQ(a->center_indices, b->center_indices);
  EXPECT_DOUBLE_EQ(a->within_cluster_distance, b->within_cluster_distance);
}

TEST(ParallelDeterminismTest, ClusteringCacheCountersRepeat) {
  // Clustering queries the cache in one fixed order, so its counters are a
  // pure function of the input: two runs, each with a fresh cache, agree.
  auto dags = MixedDataset();
  auto run = [&dags](graph::GedCache::Stats* stats) {
    graph::GedCache cache;
    graph::KMeansOptions opts;
    opts.cache = &cache;
    auto k = graph::SelectKByElbow(dags, 2, 5, opts);
    ASSERT_TRUE(k.ok());
    opts.k = *k;
    ASSERT_TRUE(graph::ClusterDags(dags, opts).ok());
    *stats = cache.stats();
  };
  graph::GedCache::Stats a, b;
  run(&a);
  run(&b);
  EXPECT_GT(a.hits_exact, 0u);
  EXPECT_EQ(a.hits_exact, b.hits_exact);
  EXPECT_EQ(a.hits_certified, b.hits_certified);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.entries, b.entries);
}

TEST(ParallelDeterminismTest, ElbowShortRangeSkipsClustering) {
  auto dags = MixedDataset();
  graph::KMeansOptions opts;
  graph::GedCache cache;
  opts.cache = &cache;
  auto k = graph::SelectKByElbow(dags, 2, 3, opts);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(*k, 2);
  // Early return: no clustering, no GED work at all.
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(ParallelDeterminismTest, PretrainerMatchesSerial) {
  std::vector<JobGraph> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, i));
    jobs.push_back(
        workloads::BuildPqpJob(workloads::PqpTemplate::kThreeWayJoin, i));
  }
  core::HistoryOptions hopts;
  hopts.samples_per_job = 3;
  auto corpus = core::CollectHistory(jobs, hopts);
  ASSERT_FALSE(corpus.empty());

  core::PretrainOptions base;
  base.k = 2;
  base.epochs = 2;
  core::PretrainOptions serial = base;
  serial.num_threads = 1;
  core::PretrainOptions parallel = base;
  parallel.num_threads = 8;

  auto a = core::Pretrainer(serial).Run(corpus);
  auto b = core::Pretrainer(parallel).Run(corpus);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_clusters(), b->num_clusters());
  for (int c = 0; c < a->num_clusters(); ++c) {
    const core::ClusterModel& ca = a->cluster(c);
    const core::ClusterModel& cb = b->cluster(c);
    EXPECT_EQ(ca.record_indices, cb.record_indices) << "cluster " << c;
    EXPECT_EQ(ca.center.name(), cb.center.name()) << "cluster " << c;

    // Model weights must be bit-identical (same seeds, same update order).
    auto pa = ca.encoder.Params();
    auto pb = cb.encoder.Params();
    auto ha = ca.head.Params();
    auto hb = cb.head.Params();
    pa.insert(pa.end(), ha.begin(), ha.end());
    pb.insert(pb.end(), hb.begin(), hb.end());
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t p = 0; p < pa.size(); ++p) {
      const ml::Matrix& ma = pa[p]->value;
      const ml::Matrix& mb = pb[p]->value;
      ASSERT_TRUE(ma.same_shape(mb));
      for (int r = 0; r < ma.rows(); ++r) {
        for (int col = 0; col < ma.cols(); ++col) {
          ASSERT_EQ(ma.at(r, col), mb.at(r, col))
              << "cluster " << c << " param " << p << " @ (" << r << ","
              << col << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace streamtune
