#include <gtest/gtest.h>

#include "baselines/conttune.h"
#include "baselines/ds2.h"
#include "baselines/zerotune.h"
#include "core/history.h"
#include "sim/engine.h"
#include "workloads/cost_config.h"
#include "workloads/nexmark.h"
#include "workloads/pqp.h"

namespace streamtune::baselines {
namespace {

sim::FlinkEngine NoiselessEngine(const JobGraph& job) {
  sim::PerfModel model(job, workloads::CostConfigFor(job));
  sim::SimConfig cfg;
  cfg.useful_time_noise = 0.0;
  return sim::FlinkEngine(job, model, cfg);
}

sim::FlinkEngine NoisyEngine(const JobGraph& job) {
  sim::PerfModel model(job, workloads::CostConfigFor(job));
  return sim::FlinkEngine(job, model, sim::SimConfig{});
}

JobGraph Q3() {
  return workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                    workloads::Engine::kFlink);
}

void DeployOnes(sim::StreamEngine* engine) {
  std::vector<int> ones(engine->graph().num_operators(), 1);
  ASSERT_TRUE(engine->Deploy(ones).ok());
}

TEST(Ds2Test, ConvergesNearOracleWithoutNoise) {
  JobGraph job = Q3();
  sim::FlinkEngine engine = NoiselessEngine(job);
  DeployOnes(&engine);
  engine.ScaleAllSources(10.0);
  Ds2Tuner ds2;
  auto outcome = ds2.Tune(&engine);
  ASSERT_TRUE(outcome.ok());
  auto m = engine.Measure();
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->job_backpressure);
  int oracle_total = 0;
  for (int p : engine.OracleParallelism()) oracle_total += p;
  // Without measurement noise DS2 should land close to the oracle.
  EXPECT_LE(outcome->total_parallelism, oracle_total + 5);
  EXPECT_GE(outcome->total_parallelism, oracle_total - 2);
}

TEST(Ds2Test, ConvergesInFewSteps) {
  // "Three steps is all you need" — without noise DS2 needs only a couple
  // of reconfigurations even from an all-ones deployment.
  JobGraph job = Q3();
  sim::FlinkEngine engine = NoiselessEngine(job);
  DeployOnes(&engine);
  engine.ScaleAllSources(5.0);
  Ds2Tuner ds2;
  auto outcome = ds2.Tune(&engine);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome->reconfigurations, 4);
}

TEST(Ds2Test, ScalesDownAfterRateDrop) {
  JobGraph job = Q3();
  sim::FlinkEngine engine = NoiselessEngine(job);
  DeployOnes(&engine);
  engine.ScaleAllSources(10.0);
  Ds2Tuner ds2;
  ASSERT_TRUE(ds2.Tune(&engine).ok());
  int high_total = 0;
  for (int p : engine.parallelism()) high_total += p;
  engine.ScaleAllSources(1.0);
  auto outcome = ds2.Tune(&engine);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LT(outcome->total_parallelism, high_total);
}

TEST(Ds2Test, RecommendationKeepsIdleOperatorsUnchanged) {
  JobGraph job = Q3();
  sim::FlinkEngine engine = NoiselessEngine(job);
  std::vector<int> p(job.num_operators(), 3);
  ASSERT_TRUE(engine.Deploy(p).ok());
  for (int v = 0; v < job.num_operators(); ++v) {
    if (job.op(v).is_source()) {
      ASSERT_TRUE(engine.simulator().SetSourceRate(v, 0.0).ok());
    }
  }
  auto m = engine.Measure();
  ASSERT_TRUE(m.ok());
  Ds2Tuner ds2;
  EXPECT_EQ(ds2.Recommend(engine, *m), p);
}

TEST(ContTuneTest, EliminatesBackpressure) {
  JobGraph job = Q3();
  sim::FlinkEngine engine = NoisyEngine(job);
  DeployOnes(&engine);
  engine.ScaleAllSources(10.0);
  ContTuneTuner conttune;
  auto outcome = conttune.Tune(&engine);
  ASSERT_TRUE(outcome.ok());
  auto m = engine.Measure();
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->severe_backpressure);
}

TEST(ContTuneTest, AccumulatesHistoryAcrossProcesses) {
  JobGraph job = Q3();
  sim::FlinkEngine engine = NoisyEngine(job);
  DeployOnes(&engine);
  ContTuneTuner conttune;
  engine.ScaleAllSources(5.0);
  auto first = conttune.Tune(&engine);
  ASSERT_TRUE(first.ok());
  engine.ScaleAllSources(10.0);
  auto second = conttune.Tune(&engine);
  ASSERT_TRUE(second.ok());
  engine.ScaleAllSources(5.0);
  // Third process at a previously seen rate: the GP surrogate has data, so
  // the process should be short.
  auto third = conttune.Tune(&engine);
  ASSERT_TRUE(third.ok());
  EXPECT_LE(third->reconfigurations, first->reconfigurations + 2);
}

TEST(ContTuneTest, BigPhaseScalesUpUnderDeficit) {
  JobGraph job = Q3();
  sim::FlinkEngine engine = NoisyEngine(job);
  DeployOnes(&engine);
  engine.ScaleAllSources(10.0);
  ContTuneTuner conttune;
  auto outcome = conttune.Tune(&engine);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->total_parallelism, job.num_operators());
}

// The big phase raises a bottleneck to at least one above its degree, but
// never past max_parallelism: an operator already at the cap stays there
// (the bound above the cap is below the floor, which std::clamp forbids).
TEST(ContTuneTest, BottleneckAtMaxParallelismStaysAtCap) {
  JobGraph job = Q3();
  sim::FlinkEngine engine = NoisyEngine(job);
  const int p_max = engine.max_parallelism();
  const std::vector<int> at_cap(job.num_operators(), p_max);
  ASSERT_TRUE(engine.Deploy(at_cap).ok());
  engine.ScaleAllSources(1000.0);
  auto m = engine.Measure();
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->severe_backpressure);
  ContTuneTuner conttune;
  auto outcome = conttune.Tune(&engine);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->final_parallelism, at_cap);
  EXPECT_TRUE(outcome->ended_with_backpressure);
}

std::vector<ZeroTuneExample> ZeroTuneCorpus() {
  std::vector<JobGraph> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, i));
  }
  core::HistoryOptions opts;
  opts.samples_per_job = 10;
  auto records = core::CollectHistory(jobs, opts);
  std::vector<ZeroTuneExample> examples;
  for (auto& r : records) {
    ZeroTuneExample ex;
    ex.graph = r.graph;
    ex.parallelism = r.parallelism;
    ex.cost = r.job_cost;
    examples.push_back(std::move(ex));
  }
  return examples;
}

TEST(ZeroTuneTest, RequiresTraining) {
  ZeroTuneTuner zerotune;
  EXPECT_FALSE(zerotune.trained());
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 7);
  sim::FlinkEngine engine = NoisyEngine(job);
  DeployOnes(&engine);
  EXPECT_FALSE(zerotune.Tune(&engine).ok());
  EXPECT_FALSE(zerotune.PredictCost(job, std::vector<int>(
                                             job.num_operators(), 1))
                   .ok());
}

TEST(ZeroTuneTest, TrainsAndPerformsSingleReconfiguration) {
  ZeroTuneOptions opts;
  opts.epochs = 15;
  ZeroTuneTuner zerotune(opts);
  ASSERT_TRUE(zerotune.Train(ZeroTuneCorpus()).ok());
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 7);
  sim::FlinkEngine engine = NoisyEngine(job);
  DeployOnes(&engine);
  engine.ScaleAllSources(10.0);
  auto outcome = zerotune.Tune(&engine);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->reconfigurations, 1);
  EXPECT_EQ(outcome->iterations, 1);
}

TEST(ZeroTuneTest, CostModelPrefersHigherParallelismUnderLoad) {
  ZeroTuneOptions opts;
  opts.epochs = 15;
  ZeroTuneTuner zerotune(opts);
  ASSERT_TRUE(zerotune.Train(ZeroTuneCorpus()).ok());
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 2);
  for (int v = 0; v < job.num_operators(); ++v) {
    if (job.op(v).is_source()) {
      job.mutable_op(v).source_rate *= 10;  // peak load
    }
  }
  std::vector<int> low(job.num_operators(), 1);
  std::vector<int> high(job.num_operators(), 40);
  auto c_low = zerotune.PredictCost(job, low);
  auto c_high = zerotune.PredictCost(job, high);
  ASSERT_TRUE(c_low.ok());
  ASSERT_TRUE(c_high.ok());
  EXPECT_GT(*c_low, *c_high);
}

TEST(ZeroTuneTest, RejectsMalformedTrainingData) {
  ZeroTuneTuner zerotune;
  EXPECT_FALSE(zerotune.Train({}).ok());
  ZeroTuneExample bad;
  bad.graph = workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 0);
  bad.parallelism = {1};  // wrong arity
  bad.cost = 1.0;
  EXPECT_FALSE(zerotune.Train({bad}).ok());
}

}  // namespace
}  // namespace streamtune::baselines
