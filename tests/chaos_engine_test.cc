// ChaosEngine: determinism, empty-plan transparency, counter hygiene.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baselines/ds2.h"
#include "sim/chaos_engine.h"
#include "sim/engine.h"
#include "workloads/cost_config.h"
#include "workloads/nexmark.h"

namespace streamtune::sim {
namespace {

JobGraph Q3() {
  return workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                    workloads::Engine::kFlink);
}

FlinkEngine MakeEngine(const JobGraph& job, double noise = 0.08) {
  PerfModel model(job, workloads::CostConfigFor(job));
  SimConfig cfg;
  cfg.useful_time_noise = noise;
  return FlinkEngine(job, model, cfg);
}

void DeployOnes(StreamEngine* engine) {
  std::vector<int> ones(engine->graph().num_operators(), 1);
  ASSERT_TRUE(engine->Deploy(ones).ok());
}

TEST(FaultPlanTest, ValidateRejectsBadValues) {
  FaultPlan plan;
  EXPECT_TRUE(plan.Validate().ok());
  EXPECT_TRUE(FaultPlan::Standard().Validate().ok());
  plan.deploy_failure_prob = 1.5;
  EXPECT_FALSE(plan.Validate().ok());
  plan = FaultPlan{};
  plan.measure_dropout_prob = -0.1;
  EXPECT_FALSE(plan.Validate().ok());
  plan = FaultPlan{};
  plan.straggler_factor = 0.5;
  EXPECT_FALSE(plan.Validate().ok());
  plan = FaultPlan{};
  plan.max_consecutive_deploy_failures = 0;
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(ChaosEngineTest, EmptyPlanIsBitIdenticalToBareEngine) {
  JobGraph job = Q3();
  FlinkEngine bare = MakeEngine(job);
  FlinkEngine inner = MakeEngine(job);
  FaultPlan empty;
  ASSERT_TRUE(empty.Empty());
  ChaosEngine wrapped(&inner, empty);

  DeployOnes(&bare);
  DeployOnes(&wrapped);
  bare.ScaleAllSources(8.0);
  wrapped.ScaleAllSources(8.0);

  baselines::Ds2Tuner ds2_a, ds2_b;
  auto a = ds2_a.Tune(&bare);
  auto b = ds2_b.Tune(&wrapped);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->final_parallelism, b->final_parallelism);
  EXPECT_EQ(a->reconfigurations, b->reconfigurations);
  EXPECT_EQ(a->tuning_minutes, b->tuning_minutes);
  EXPECT_EQ(a->backpressure_events, b->backpressure_events);
  EXPECT_EQ(0, a->faults_survived);
  EXPECT_EQ(0, b->faults_survived);
  EXPECT_EQ(0, wrapped.stats().total());
}

TEST(ChaosEngineTest, SamePlanAndSeedGiveIdenticalFaultSequence) {
  JobGraph job = Q3();
  FaultPlan plan = FaultPlan::Standard(1234);
  plan.metric_corruption_prob = 0.2;
  plan.rate_spike_prob = 0.1;

  auto run = [&](std::vector<bool>* deploy_ok, std::vector<bool>* measure_ok) {
    FlinkEngine inner = MakeEngine(job, /*noise=*/0.0);
    ChaosEngine chaos(&inner, plan);
    std::vector<int> p(job.num_operators(), 1);
    for (int i = 0; i < 40; ++i) {
      p[i % p.size()] = 1 + (i % 4);
      deploy_ok->push_back(chaos.Deploy(p).ok());
      measure_ok->push_back(chaos.Measure().ok());
    }
    return chaos.stats();
  };

  std::vector<bool> d1, m1, d2, m2;
  ChaosStats s1 = run(&d1, &m1);
  ChaosStats s2 = run(&d2, &m2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(s1.deploy_failures, s2.deploy_failures);
  EXPECT_EQ(s1.measure_dropouts, s2.measure_dropouts);
  EXPECT_EQ(s1.corrupted_samples, s2.corrupted_samples);
  EXPECT_EQ(s1.stragglers, s2.stragglers);
  EXPECT_EQ(s1.rate_spikes, s2.rate_spikes);
  EXPECT_GT(s1.total(), 0);  // the plan actually fired at these rates
}

TEST(ChaosEngineTest, FailedDeployDoesNotTouchCountersOrClock) {
  JobGraph job = Q3();
  FlinkEngine inner = MakeEngine(job);
  FaultPlan plan;
  plan.deploy_failure_prob = 1.0;
  plan.max_consecutive_deploy_failures = 3;
  ChaosEngine chaos(&inner, plan);

  std::vector<int> ones(job.num_operators(), 1);
  Status st = chaos.Deploy(ones);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kUnavailable, st.code());
  EXPECT_EQ(0, chaos.deployment_count());
  EXPECT_EQ(0, chaos.reconfiguration_count());
  EXPECT_EQ(0.0, chaos.virtual_minutes());
  EXPECT_EQ(1, chaos.stats().deploy_failures);

  // The consecutive-failure cap eventually lets a retry through, and only
  // the successful attempt reaches the inner engine's counters.
  int failures = 1;
  while (!chaos.Deploy(ones).ok()) ++failures;
  EXPECT_EQ(plan.max_consecutive_deploy_failures, failures);
  EXPECT_EQ(1, chaos.deployment_count());
}

TEST(ChaosEngineTest, DropoutsAreBoundedAndRetriable) {
  JobGraph job = Q3();
  FlinkEngine inner = MakeEngine(job);
  FaultPlan plan;
  plan.measure_dropout_prob = 1.0;
  plan.max_consecutive_dropouts = 2;
  ChaosEngine chaos(&inner, plan);
  DeployOnes(&chaos);

  int dropouts = 0;
  Result<JobMetrics> m = chaos.Measure();
  while (!m.ok()) {
    EXPECT_EQ(StatusCode::kUnavailable, m.status().code());
    ++dropouts;
    m = chaos.Measure();
  }
  EXPECT_EQ(plan.max_consecutive_dropouts, dropouts);
  EXPECT_TRUE(m->Validate().ok());
}

TEST(ChaosEngineTest, CorruptedSamplesFailValidationOrReplayFrozen) {
  JobGraph job = Q3();
  FlinkEngine inner = MakeEngine(job, /*noise=*/0.0);
  FaultPlan plan;
  plan.metric_corruption_prob = 1.0;
  ChaosEngine chaos(&inner, plan);
  DeployOnes(&chaos);

  for (int i = 0; i < 10; ++i) {
    Result<JobMetrics> m = chaos.Measure();
    ASSERT_TRUE(m.ok());  // corruption delivers a sample, it does not drop
  }
  // Every sample is corrupted except possibly the very first (a frozen
  // replay needs a previous sample to replay).
  EXPECT_GE(chaos.stats().corrupted_samples, 9);
}

TEST(ChaosEngineTest, StragglerSkewsBusyTime) {
  JobGraph job = Q3();
  FlinkEngine inner = MakeEngine(job, /*noise=*/0.0);
  FaultPlan plan;
  plan.straggler_prob = 1.0;
  plan.straggler_factor = 5.0;
  ChaosEngine chaos(&inner, plan);
  DeployOnes(&chaos);

  Result<JobMetrics> clean = inner.Measure();
  ASSERT_TRUE(clean.ok());
  Result<JobMetrics> skew = chaos.Measure();
  ASSERT_TRUE(skew.ok());
  EXPECT_GE(chaos.stats().stragglers, 1);
  // Exactly one operator's observed useful time was inflated.
  double max_ratio = 0;
  for (size_t v = 0; v < clean->ops.size(); ++v) {
    double base = clean->ops[v].useful_time_frac_observed;
    if (base <= 0) continue;
    max_ratio =
        std::max(max_ratio, skew->ops[v].useful_time_frac_observed / base);
  }
  EXPECT_GT(max_ratio, 1.0);
}

TEST(ChaosEngineTest, RateSpikeInflatesSourceDemandOnly) {
  JobGraph job = Q3();
  FlinkEngine inner = MakeEngine(job, /*noise=*/0.0);
  FaultPlan plan;
  plan.rate_spike_prob = 1.0;
  plan.rate_spike_factor = 2.0;
  ChaosEngine chaos(&inner, plan);
  DeployOnes(&chaos);

  Result<JobMetrics> clean = inner.Measure();
  ASSERT_TRUE(clean.ok());
  Result<JobMetrics> spiked = chaos.Measure();
  ASSERT_TRUE(spiked.ok());
  EXPECT_GE(chaos.stats().rate_spikes, 1);
  const JobGraph& g = chaos.graph();
  for (int v = 0; v < g.num_operators(); ++v) {
    if (g.upstream(v).empty()) {
      EXPECT_NEAR(2.0 * clean->ops[v].desired_input_rate,
                  spiked->ops[v].desired_input_rate, 1e-9);
    } else {
      EXPECT_NEAR(clean->ops[v].desired_input_rate,
                  spiked->ops[v].desired_input_rate, 1e-9);
    }
  }
}

TEST(FleetFaultPlanTest, PerJobPlansIndependentOfInsertionOrder) {
  FleetFaultPlan fleet;
  fleet.master_seed = 42;
  fleet.fault_fraction = 0.3;

  // Query the same ids in ascending, descending, and interleaved order: a
  // job's plan is a pure function of (master seed, id), so every traversal
  // must agree fault-by-fault and seed-by-seed.
  std::vector<int64_t> asc, desc, shuffled;
  for (int64_t id = 0; id < 200; ++id) asc.push_back(id);
  desc.assign(asc.rbegin(), asc.rend());
  for (int64_t id = 0; id < 200; id += 2) shuffled.push_back(id);
  for (int64_t id = 1; id < 200; id += 2) shuffled.push_back(id);

  std::map<int64_t, FaultPlan> by_asc;
  for (int64_t id : asc) by_asc[id] = fleet.PlanFor(id);
  for (const auto& order : {desc, shuffled}) {
    for (int64_t id : order) {
      FaultPlan plan = fleet.PlanFor(id);
      EXPECT_EQ(plan.seed, by_asc[id].seed) << "job " << id;
      EXPECT_EQ(plan.Empty(), by_asc[id].Empty()) << "job " << id;
      EXPECT_EQ(fleet.Faulted(id), !plan.Empty()) << "job " << id;
    }
  }
}

TEST(FleetFaultPlanTest, FaultedJobsGetPairwiseDistinctSeeds) {
  FleetFaultPlan fleet;
  fleet.master_seed = 7;
  fleet.fault_fraction = 1.0;
  std::set<uint64_t> seeds;
  for (int64_t id = 0; id < 1000; ++id) {
    FaultPlan plan = fleet.PlanFor(id);
    EXPECT_FALSE(plan.Empty());
    seeds.insert(plan.seed);
  }
  // Splitmix mixing: no collisions across 1000 sequential ids.
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(FleetFaultPlanTest, FaultStreamsDecorrelatedAcrossNeighborJobs) {
  // Sequential job ids must not produce correlated fault streams: drive two
  // RNGs from neighboring derived seeds and check their Bernoulli draws
  // disagree a healthy fraction of the time.
  FleetFaultPlan fleet;
  fleet.fault_fraction = 1.0;
  Rng a(fleet.PlanFor(1).seed), b(fleet.PlanFor(2).seed);
  int disagreements = 0;
  const int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    disagreements += a.Bernoulli(0.5) != b.Bernoulli(0.5) ? 1 : 0;
  }
  EXPECT_GT(disagreements, kDraws / 3);
  EXPECT_LT(disagreements, 2 * kDraws / 3);
}

TEST(FleetFaultPlanTest, StormFractionRoughlyRespected) {
  FleetFaultPlan fleet;
  fleet.master_seed = 1234;
  fleet.fault_fraction = 0.3;
  int faulted = 0;
  const int kFleet = 10000;
  for (int64_t id = 0; id < kFleet; ++id) faulted += fleet.Faulted(id) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(faulted) / kFleet, 0.3, 0.03);
}

TEST(FleetFaultPlanTest, UnfaultedJobsGetStrictNoOpPlans) {
  FleetFaultPlan fleet;
  fleet.fault_fraction = 0.0;
  for (int64_t id = 0; id < 50; ++id) {
    EXPECT_TRUE(fleet.PlanFor(id).Empty());
    EXPECT_FALSE(fleet.Faulted(id));
  }
  fleet.fault_fraction = 1.0;
  for (int64_t id = 0; id < 50; ++id) EXPECT_TRUE(fleet.Faulted(id));
}

}  // namespace
}  // namespace streamtune::sim
