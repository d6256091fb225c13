// Every tuner must survive the standard fault plan (10% deploy failures,
// 10% metric dropouts, 5% stragglers) and still finish with an ok()
// outcome; StreamTune must additionally converge backpressure-free without
// blowing its fault-free reconfiguration budget.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "baselines/conttune.h"
#include "baselines/ds2.h"
#include "baselines/robust_loop.h"
#include "baselines/zerotune.h"
#include "core/history.h"
#include "core/pretrain.h"
#include "core/streamtune_tuner.h"
#include "sim/chaos_engine.h"
#include "sim/engine.h"
#include "workloads/cost_config.h"
#include "workloads/nexmark.h"
#include "workloads/pqp.h"

namespace streamtune {
namespace {

JobGraph TestJob() {
  return workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, 9);
}

sim::FlinkEngine MakeEngine(const JobGraph& job) {
  sim::PerfModel model(job, workloads::CostConfigFor(job));
  return sim::FlinkEngine(job, model, sim::SimConfig{});
}

/// Forwards every call to an engine and records each successful deploy.
class RecordingEngine : public sim::StreamEngine {
 public:
  explicit RecordingEngine(sim::StreamEngine* inner) : inner_(inner) {}

  const JobGraph& graph() const override { return inner_->graph(); }
  int max_parallelism() const override { return inner_->max_parallelism(); }
  Status Deploy(const std::vector<int>& parallelism) override {
    Status st = inner_->Deploy(parallelism);
    if (st.ok()) deployed.push_back(parallelism);
    return st;
  }
  Result<sim::JobMetrics> Measure() override { return inner_->Measure(); }
  const std::vector<int>& parallelism() const override {
    return inner_->parallelism();
  }
  void ScaleAllSources(double factor) override {
    inner_->ScaleAllSources(factor);
  }
  std::vector<double> current_source_rates() const override {
    return inner_->current_source_rates();
  }
  int reconfiguration_count() const override {
    return inner_->reconfiguration_count();
  }
  int deployment_count() const override { return inner_->deployment_count(); }
  double virtual_minutes() const override { return inner_->virtual_minutes(); }
  void ResetCounters() override { inner_->ResetCounters(); }
  void AdvanceVirtualMinutes(double minutes) override {
    inner_->AdvanceVirtualMinutes(minutes);
  }
  std::vector<int> OracleParallelism() const override {
    return inner_->OracleParallelism();
  }

  std::vector<std::vector<int>> deployed;

 private:
  sim::StreamEngine* inner_;
};

void DeployOnesWithRetry(sim::StreamEngine* engine) {
  std::vector<int> ones(engine->graph().num_operators(), 1);
  ASSERT_TRUE(baselines::RobustLoop(engine).Deploy(ones).ok());
}

// Shared fixture: pre-train once for the whole suite.
class TunerRobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::vector<JobGraph> jobs;
    for (int i = 0; i < 6; ++i) {
      jobs.push_back(
          workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, i));
      jobs.push_back(
          workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, i));
    }
    core::HistoryOptions hist;
    hist.samples_per_job = 12;
    corpus_ = new std::vector<core::HistoryRecord>(
        core::CollectHistory(jobs, hist));
    core::PretrainOptions pre;
    pre.k = 2;
    pre.epochs = 15;
    auto bundle = core::Pretrainer(pre).Run(*corpus_);
    ASSERT_TRUE(bundle.ok());
    bundle_ = std::make_shared<core::PretrainedBundle>(std::move(*bundle));
  }

  static std::unique_ptr<baselines::ZeroTuneTuner> TrainedZeroTune() {
    baselines::ZeroTuneOptions opts;
    opts.epochs = 15;
    auto tuner = std::make_unique<baselines::ZeroTuneTuner>(opts);
    std::vector<baselines::ZeroTuneExample> examples;
    for (const auto& r : *corpus_) {
      baselines::ZeroTuneExample ex;
      ex.graph = r.graph;
      ex.parallelism = r.parallelism;
      ex.cost = r.job_cost;
      examples.push_back(std::move(ex));
    }
    EXPECT_TRUE(tuner->Train(examples).ok());
    return tuner;
  }

  static std::shared_ptr<core::PretrainedBundle> bundle_;
  static std::vector<core::HistoryRecord>* corpus_;
};

std::shared_ptr<core::PretrainedBundle> TunerRobustnessTest::bundle_;
std::vector<core::HistoryRecord>* TunerRobustnessTest::corpus_ = nullptr;

struct ChaosRun {
  baselines::TuningOutcome outcome;
  sim::ChaosStats injected;
  bool severe_backpressure = false;
};

ChaosRun RunUnderChaos(baselines::Tuner* tuner, uint64_t seed) {
  JobGraph job = TestJob();
  sim::FlinkEngine inner = MakeEngine(job);
  sim::ChaosEngine chaos(&inner, sim::FaultPlan::Standard(seed));
  DeployOnesWithRetry(&chaos);
  chaos.ScaleAllSources(8.0);
  auto outcome = tuner->Tune(&chaos);
  EXPECT_TRUE(outcome.ok()) << tuner->name() << " seed " << seed << ": "
                            << outcome.status().ToString();
  ChaosRun run;
  if (outcome.ok()) run.outcome = *outcome;
  run.injected = chaos.stats();
  auto m = inner.Measure();
  if (m.ok()) run.severe_backpressure = m->severe_backpressure;
  return run;
}

TEST_F(TunerRobustnessTest, Ds2SurvivesStandardFaultPlan) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    baselines::Ds2Tuner tuner;
    ChaosRun run = RunUnderChaos(&tuner, seed);
    EXPECT_GE(run.outcome.iterations, 1);
  }
}

TEST_F(TunerRobustnessTest, ContTuneSurvivesStandardFaultPlan) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    baselines::ContTuneTuner tuner;
    ChaosRun run = RunUnderChaos(&tuner, seed);
    EXPECT_GE(run.outcome.iterations, 1);
  }
}

TEST_F(TunerRobustnessTest, ZeroTuneSurvivesStandardFaultPlan) {
  auto tuner = TrainedZeroTune();
  for (uint64_t seed : {1u, 2u, 3u}) {
    ChaosRun run = RunUnderChaos(tuner.get(), seed);
    EXPECT_EQ(1, run.outcome.iterations);
  }
}

TEST_F(TunerRobustnessTest, StreamTuneSurvivesAndConvergesClean) {
  // Fault-free reference run.
  JobGraph job = TestJob();
  sim::FlinkEngine clean_engine = MakeEngine(job);
  std::vector<int> ones(job.num_operators(), 1);
  ASSERT_TRUE(clean_engine.Deploy(ones).ok());
  clean_engine.ScaleAllSources(8.0);
  core::StreamTuneTuner clean_tuner(bundle_);
  auto clean = clean_tuner.Tune(&clean_engine);
  ASSERT_TRUE(clean.ok());

  for (uint64_t seed : {1u, 2u, 3u}) {
    core::StreamTuneTuner tuner(bundle_);
    ChaosRun run = RunUnderChaos(&tuner, seed);
    // Converges backpressure-free on the real (inner) engine...
    EXPECT_FALSE(run.severe_backpressure) << "seed " << seed;
    // ...within twice the fault-free reconfiguration budget.
    EXPECT_LE(run.outcome.reconfigurations,
              2 * std::max(1, clean.value().reconfigurations))
        << "seed " << seed;
  }
}

TEST_F(TunerRobustnessTest, StreamTuneNeverRollsBackTheSameDeploymentTwice) {
  // Nexmark Q3 on a small Nexmark KB: under these plans a rollback that
  // dropped the regressed probe's evidence re-recommended the same probe
  // until the iteration budget ran out. (The PQP suite bundle never rolls
  // back.)
  std::vector<JobGraph> jobs;
  for (auto q : workloads::AllNexmarkQueries()) {
    jobs.push_back(workloads::BuildNexmarkJob(q, workloads::Engine::kFlink));
  }
  core::HistoryOptions hist;
  hist.samples_per_job = 6;
  hist.seed = 5;
  core::PretrainOptions pre;
  pre.k = 2;
  pre.epochs = 4;
  auto trained = core::Pretrainer(pre).Run(core::CollectHistory(jobs, hist));
  ASSERT_TRUE(trained.ok());
  auto bundle = std::make_shared<core::PretrainedBundle>(std::move(*trained));

  sim::FaultPlan corrupt;
  corrupt.seed = 42;
  corrupt.metric_corruption_prob = 0.2;
  const JobGraph job = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                                  workloads::Engine::kFlink);
  for (const sim::FaultPlan& plan : {sim::FaultPlan::Standard(42), corrupt}) {
    for (double rate : {4.0, 6.0, 8.0}) {
      sim::SimConfig cfg;
      cfg.noise_seed = 7;  // streamtune_cli tune's engine
      sim::FlinkEngine inner(
          job, sim::PerfModel(job, workloads::CostConfigFor(job)), cfg);
      sim::ChaosEngine chaos(&inner, plan);
      RecordingEngine engine(&chaos);
      DeployOnesWithRetry(&engine);
      engine.ScaleAllSources(rate);
      core::StreamTuneTuner tuner(bundle);
      auto session = tuner.NewSession(&engine);
      ASSERT_TRUE(session.ok());
      std::set<std::vector<int>> rolled_back;
      for (bool stopped = false; !stopped;) {
        const size_t before = engine.deployed.size();
        auto step = (*session)->Step();
        ASSERT_TRUE(step.ok());
        stopped = *step;
        // A Step with two successful deploys rolled its first one back.
        if (engine.deployed.size() == before + 2) {
          EXPECT_TRUE(rolled_back.insert(engine.deployed[before]).second)
              << "corruption " << plan.metric_corruption_prob << " rate "
              << rate << ": a deployment was rolled back twice";
        }
      }
      ASSERT_TRUE((*session)->Finish().ok());
    }
  }
}

TEST_F(TunerRobustnessTest, OutcomeCountsSurvivedFaults) {
  // With a deterministic always-dropping-then-recovering plan the outcome
  // must report the retries it performed.
  JobGraph job = TestJob();
  sim::FlinkEngine inner = MakeEngine(job);
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.measure_dropout_prob = 0.5;
  sim::ChaosEngine chaos(&inner, plan);
  DeployOnesWithRetry(&chaos);
  chaos.ScaleAllSources(8.0);
  baselines::Ds2Tuner tuner;
  auto outcome = tuner.Tune(&chaos);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(chaos.stats().measure_dropouts, 0);
  EXPECT_EQ(outcome->retries, outcome->faults_survived);
  EXPECT_GT(outcome->retries, 0);
}

TEST_F(TunerRobustnessTest, FaultFreeRunReportsZeroFaults) {
  JobGraph job = TestJob();
  sim::FlinkEngine engine = MakeEngine(job);
  std::vector<int> ones(job.num_operators(), 1);
  ASSERT_TRUE(engine.Deploy(ones).ok());
  engine.ScaleAllSources(8.0);
  baselines::Ds2Tuner tuner;
  auto outcome = tuner.Tune(&engine);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(0, outcome->faults_survived);
  EXPECT_EQ(0, outcome->retries);
  EXPECT_EQ(0, outcome->rollbacks);
}

}  // namespace
}  // namespace streamtune
