// Metric validation and the hardened engine call (baselines::RobustLoop):
// retry with virtual-clock backoff, median-of-k replacement of invalid
// samples, step clamping and rollback.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <string>

#include "baselines/robust_loop.h"
#include "sim/metrics_sanitizer.h"
#include "workloads/cost_config.h"
#include "workloads/nexmark.h"

namespace streamtune::sim {
namespace {

JobMetrics PlausibleMetrics(int n_ops = 3) {
  JobMetrics m;
  m.lambda = 1.0;
  m.total_parallelism = n_ops;
  m.used_cores = 0.5 * n_ops;
  m.ops.resize(n_ops);
  for (int v = 0; v < n_ops; ++v) {
    OperatorMetrics& om = m.ops[v];
    om.busy_frac = 0.5;
    om.idle_frac = 0.5;
    om.backpressured_frac = 0.0;
    om.cpu_load = 0.5;
    om.input_rate = 100.0 + v;
    om.output_rate = 90.0 + v;
    om.desired_input_rate = 100.0 + v;
    om.useful_time_frac_observed = 0.5;
  }
  return m;
}

TEST(ValidateTest, AcceptsPlausibleMetrics) {
  EXPECT_TRUE(PlausibleMetrics().Validate().ok());
}

TEST(ValidateTest, RejectsNaN) {
  JobMetrics m = PlausibleMetrics();
  m.ops[1].busy_frac = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(m.Validate().ok());
  m = PlausibleMetrics();
  m.lambda = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(m.Validate().ok());
}

TEST(ValidateTest, RejectsNegativeRates) {
  JobMetrics m = PlausibleMetrics();
  m.ops[0].input_rate = -5.0;
  EXPECT_FALSE(m.Validate().ok());
  m = PlausibleMetrics();
  m.ops[2].output_rate = -1.0;
  EXPECT_FALSE(m.Validate().ok());
}

TEST(ValidateTest, RejectsOutOfRangeFractions) {
  JobMetrics m = PlausibleMetrics();
  m.ops[0].busy_frac = 1.5;
  EXPECT_FALSE(m.Validate().ok());
  m = PlausibleMetrics();
  m.ops[1].backpressured_frac = -0.2;
  EXPECT_FALSE(m.Validate().ok());
  m = PlausibleMetrics();
  m.lambda = 0.0;  // lambda lives in (0, 1]
  EXPECT_FALSE(m.Validate().ok());
  m = PlausibleMetrics();
  m.lambda = 1.2;
  EXPECT_FALSE(m.Validate().ok());
}

TEST(MedianTest, ComponentWiseMedian) {
  JobMetrics a = PlausibleMetrics(1), b = PlausibleMetrics(1),
             c = PlausibleMetrics(1);
  a.ops[0].busy_frac = 0.2;
  b.ops[0].busy_frac = 0.9;
  c.ops[0].busy_frac = 0.4;
  a.lambda = 0.8;
  b.lambda = 1.0;
  c.lambda = 0.9;
  a.job_backpressure = true;
  b.job_backpressure = true;
  c.job_backpressure = false;
  JobMetrics med = MedianOfSamples({a, b, c});
  EXPECT_DOUBLE_EQ(0.4, med.ops[0].busy_frac);
  EXPECT_DOUBLE_EQ(0.9, med.lambda);
  EXPECT_TRUE(med.job_backpressure);  // 2-of-3 majority
}

/// Scripted engine: serves a fixed queue of Measure results.
class ScriptedEngine : public StreamEngine {
 public:
  explicit ScriptedEngine(JobGraph graph) : graph_(std::move(graph)) {
    parallelism_.assign(graph_.num_operators(), 1);
  }

  void Push(Result<JobMetrics> r) { script_.push_back(std::move(r)); }

  const JobGraph& graph() const override { return graph_; }
  int max_parallelism() const override { return 100; }
  Status Deploy(const std::vector<int>& p) override {
    ++deploy_calls_;
    if (!deploy_status_.ok()) {
      Status st = deploy_status_;
      if (--deploy_failures_left_ <= 0) deploy_status_ = Status::OK();
      return st;
    }
    parallelism_ = p;
    ++reconfigurations_;
    return Status::OK();
  }
  Result<JobMetrics> Measure() override {
    ++measure_calls_;
    if (script_.empty()) {
      JobMetrics m = PlausibleMetrics(graph_.num_operators());
      m.total_parallelism = 0;
      for (int p : parallelism_) m.total_parallelism += p;
      return m;
    }
    Result<JobMetrics> r = std::move(script_.front());
    script_.pop_front();
    return r;
  }
  const std::vector<int>& parallelism() const override {
    return parallelism_;
  }
  void ScaleAllSources(double) override {}
  std::vector<double> current_source_rates() const override {
    return std::vector<double>(graph_.num_operators(), 0.0);
  }
  int reconfiguration_count() const override { return reconfigurations_; }
  int deployment_count() const override { return reconfigurations_; }
  double virtual_minutes() const override { return virtual_minutes_; }
  void ResetCounters() override { reconfigurations_ = 0; }
  void AdvanceVirtualMinutes(double minutes) override {
    virtual_minutes_ += minutes;
  }
  std::vector<int> OracleParallelism() const override { return parallelism_; }

  void FailDeploys(int count, Status status) {
    deploy_failures_left_ = count;
    deploy_status_ = std::move(status);
  }

  int deploy_calls() const { return deploy_calls_; }
  int measure_calls() const { return measure_calls_; }

 private:
  JobGraph graph_;
  std::vector<int> parallelism_;
  std::deque<Result<JobMetrics>> script_;
  Status deploy_status_ = Status::OK();
  int deploy_failures_left_ = 0;
  int reconfigurations_ = 0;
  int deploy_calls_ = 0;
  int measure_calls_ = 0;
  double virtual_minutes_ = 0;
};

JobGraph Q3() {
  return workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                    workloads::Engine::kFlink);
}

/// The loop's fault counters, as a tuner reports them.
baselines::TuningOutcome OutcomeOf(const baselines::RobustLoop& loop) {
  baselines::TuningOutcome outcome;
  loop.FillOutcome(&outcome);
  return outcome;
}

JobMetrics NegativeRateSample(int n_ops) {
  JobMetrics bad = PlausibleMetrics(n_ops);
  bad.ops[0].input_rate = -1.0;
  return bad;
}

TEST(SanitizerTest, InvalidVerdictCarriesDetail) {
  ScriptedEngine engine(Q3());
  const int n = engine.graph().num_operators();
  for (int i = 0; i < 4; ++i) engine.Push(NegativeRateSample(n));
  baselines::RobustLoop loop(&engine);
  auto r = loop.Measure();
  ASSERT_FALSE(r.ok());
  // The first sample's validation error, naming the violated invariant.
  EXPECT_EQ(StatusCode::kOutOfRange, r.status().code());
  EXPECT_NE(std::string::npos, r.status().message().find("input_rate"));
  EXPECT_EQ(1, OutcomeOf(loop).faults_survived);
}

TEST(MeasureSanitizedTest, CleanSampleCostsExactlyOneCall) {
  ScriptedEngine engine(Q3());
  baselines::RobustLoop loop(&engine);
  auto r = loop.Measure();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(1, engine.measure_calls());
  EXPECT_EQ(0, OutcomeOf(loop).faults_survived);
}

TEST(MeasureSanitizedTest, RetriesTransientDropoutsAndChargesClock) {
  ScriptedEngine engine(Q3());
  engine.Push(Status::Unavailable("dropped"));
  engine.Push(Status::Unavailable("dropped"));
  baselines::RobustLoop loop(&engine);
  auto r = loop.Measure();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(3, engine.measure_calls());
  EXPECT_EQ(2, OutcomeOf(loop).retries);
  // Backoff: 0.5 + 1.0 virtual minutes charged to the engine.
  EXPECT_DOUBLE_EQ(1.5, engine.virtual_minutes());
}

TEST(MeasureSanitizedTest, NonRetryableErrorPropagatesImmediately) {
  ScriptedEngine engine(Q3());
  engine.Push(Status::FailedPrecondition("job not deployed"));
  baselines::RobustLoop loop(&engine);
  auto r = loop.Measure();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, r.status().code());
  EXPECT_EQ(1, engine.measure_calls());
}

TEST(MeasureSanitizedTest, CorruptedSampleReplacedByMedian) {
  const JobGraph g = Q3();
  const int n = g.num_operators();
  ScriptedEngine engine(g);
  JobMetrics bad = PlausibleMetrics(n);
  bad.ops[0].busy_frac = std::numeric_limits<double>::quiet_NaN();
  engine.Push(bad);
  JobMetrics s1 = PlausibleMetrics(n), s2 = PlausibleMetrics(n),
             s3 = PlausibleMetrics(n);
  s1.lambda = 0.7;
  s2.lambda = 0.9;
  s3.lambda = 0.8;
  engine.Push(s1);
  engine.Push(s2);
  engine.Push(s3);

  baselines::RobustLoop loop(&engine);
  auto r = loop.Measure();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(0.8, r->lambda);  // median of the fresh samples
  EXPECT_TRUE(r->Validate().ok());
  EXPECT_EQ(1, OutcomeOf(loop).faults_survived);  // one rejected sample
  EXPECT_EQ(0, OutcomeOf(loop).retries);
  EXPECT_EQ(4, engine.measure_calls());  // 3 re-measures
}

TEST(MeasureSanitizedTest, AllSamplesCorruptedReturnsError) {
  const JobGraph g = Q3();
  const int n = g.num_operators();
  ScriptedEngine engine(g);
  for (int i = 0; i < 8; ++i) engine.Push(NegativeRateSample(n));
  baselines::RobustLoop loop(&engine);
  auto r = loop.Measure();
  EXPECT_FALSE(r.ok());
}

TEST(DeployWithRetryTest, RetriesTransientFailures) {
  ScriptedEngine engine(Q3());
  engine.FailDeploys(2, Status::Unavailable("injected"));
  baselines::RobustLoop loop(&engine);
  std::vector<int> p(engine.graph().num_operators(), 2);
  Status st = loop.Deploy(p);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(2, OutcomeOf(loop).retries);
  EXPECT_EQ(p, engine.parallelism());
  EXPECT_EQ(1, engine.reconfiguration_count());
}

TEST(DeployWithRetryTest, GivesUpAfterBudget) {
  ScriptedEngine engine(Q3());
  engine.FailDeploys(100, Status::Unavailable("injected"));
  baselines::RobustLoop loop(&engine);
  std::vector<int> p(engine.graph().num_operators(), 2);
  Status st = loop.Deploy(p);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kUnavailable, st.code());
  EXPECT_EQ(0, engine.reconfiguration_count());
  // Four attempts, with 0.5 + 1 + 2 virtual minutes of backoff between.
  EXPECT_EQ(4, engine.deploy_calls());
  EXPECT_DOUBLE_EQ(3.5, engine.virtual_minutes());
}

TEST(RetryTest, RetryableCodes) {
  // Only kUnavailable is retried.
  for (const Status& st :
       {Status::InvalidArgument("x"), Status::FailedPrecondition("x"),
        Status::Internal("x")}) {
    ScriptedEngine engine(Q3());
    engine.Push(st);
    baselines::RobustLoop loop(&engine);
    EXPECT_EQ(st.code(), loop.Measure().status().code());
    EXPECT_EQ(1, engine.measure_calls());
  }
  ScriptedEngine engine(Q3());
  engine.Push(Status::Unavailable("x"));
  baselines::RobustLoop loop(&engine);
  EXPECT_TRUE(loop.Measure().ok());
  EXPECT_EQ(2, engine.measure_calls());
}

TEST(RetryTest, SucceedsAfterTransientFailures) {
  ScriptedEngine engine(Q3());
  engine.FailDeploys(2, Status::Unavailable("flaky"));
  baselines::RobustLoop loop(&engine);
  std::vector<int> p(engine.graph().num_operators(), 2);
  EXPECT_TRUE(loop.Deploy(p).ok());
  EXPECT_EQ(3, engine.deploy_calls());
  EXPECT_EQ(2, OutcomeOf(loop).retries);
  // Exponential: 0.5 then 1.0 virtual minutes.
  EXPECT_DOUBLE_EQ(1.5, engine.virtual_minutes());
}

TEST(RetryTest, NonRetryableFailsImmediately) {
  ScriptedEngine engine(Q3());
  engine.FailDeploys(1, Status::InvalidArgument("bad"));
  baselines::RobustLoop loop(&engine);
  std::vector<int> p(engine.graph().num_operators(), 2);
  EXPECT_FALSE(loop.Deploy(p).ok());
  EXPECT_EQ(1, engine.deploy_calls());
}

TEST(RetryTest, ExhaustsBudgetAndReturnsLastError) {
  ScriptedEngine engine(Q3());
  for (int i = 0; i < 8; ++i) engine.Push(Status::Unavailable("still down"));
  baselines::RobustLoop loop(&engine);
  auto r = loop.Measure();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(StatusCode::kUnavailable, r.status().code());
  EXPECT_EQ(4, engine.measure_calls());
}

TEST(RetryTest, ResultFlavorReturnsValue) {
  ScriptedEngine engine(Q3());
  engine.Push(Status::Unavailable("flaky"));
  JobMetrics m = PlausibleMetrics(engine.graph().num_operators());
  m.lambda = 0.42;
  engine.Push(m);
  baselines::RobustLoop loop(&engine);
  auto r = loop.Measure();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(0.42, r->lambda);
  EXPECT_EQ(1, OutcomeOf(loop).retries);
}

TEST(RobustLoopTest, CleanCallsCostOneEngineCallAndStayPristine) {
  ScriptedEngine engine(Q3());
  baselines::RobustLoop loop(&engine);
  std::vector<int> p(engine.graph().num_operators(), 3);
  ASSERT_TRUE(loop.Deploy(p).ok());
  EXPECT_EQ(1, engine.deploy_calls());
  ASSERT_TRUE(loop.Measure().ok());
  EXPECT_EQ(1, engine.measure_calls());
  EXPECT_FALSE(loop.hardened());
  EXPECT_DOUBLE_EQ(0.0, engine.virtual_minutes());

  // Pristine: no clamp, however wild the recommendation.
  std::vector<int> rec(p.size(), 100);
  loop.ClampStep(&rec);
  EXPECT_EQ(std::vector<int>(p.size(), 100), rec);
  EXPECT_EQ(0, OutcomeOf(loop).retries);
  EXPECT_EQ(0, OutcomeOf(loop).faults_survived);
}

TEST(RobustLoopTest, StaleSampleAfterDeployIsReplacedAsOneFault) {
  const JobGraph g = Q3();
  const int n = g.num_operators();
  ScriptedEngine engine(g);
  baselines::RobustLoop loop(&engine);
  ASSERT_TRUE(loop.Deploy(std::vector<int>(n, 2)).ok());
  // A frozen window replays the all-ones deployment's (valid) sample.
  engine.Push(PlausibleMetrics(n));
  auto r = loop.Measure();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(2 * n, r->total_parallelism);  // the median of fresh samples
  EXPECT_EQ(4, engine.measure_calls());
  EXPECT_EQ(1, OutcomeOf(loop).faults_survived);
  EXPECT_TRUE(loop.hardened());
}

TEST(RobustLoopTest, OneRetriedDeployClampsEachStepToFourfold) {
  ScriptedEngine engine(Q3());
  const int n = engine.graph().num_operators();
  baselines::RobustLoop loop(&engine);
  engine.FailDeploys(1, Status::Unavailable("injected"));
  std::vector<int> cur(n);
  for (int v = 0; v < n; ++v) cur[v] = 1 + 3 * v;  // 1, 4, 7, ...
  ASSERT_TRUE(loop.Deploy(cur).ok());
  EXPECT_TRUE(loop.hardened());

  std::vector<int> up(n, 100), down(n, 1);
  loop.ClampStep(&up);
  loop.ClampStep(&down);
  for (int v = 0; v < n; ++v) {
    // [floor(cur/4), ceil(cur*4)], never below 1.
    EXPECT_EQ(std::max(1, cur[v] / 4), down[v]) << "op " << v;
    EXPECT_EQ(std::min(100, 4 * cur[v]), up[v]) << "op " << v;
  }
}

TEST(RobustLoopTest, LambdaDropBeyondMarginRollsBackToBestCleanRun) {
  const JobGraph g = Q3();
  const int n = g.num_operators();
  ScriptedEngine engine(g);
  baselines::RobustLoop loop(&engine);
  const std::vector<int> good(n, 2), worse(n, 1), worst(n, 3);
  ASSERT_TRUE(loop.Deploy(good).ok());
  JobMetrics clean = PlausibleMetrics(n);
  clean.total_parallelism = 2 * n;
  EXPECT_FALSE(loop.MaybeRollback(clean));  // becomes the known-good run

  engine.FailDeploys(1, Status::Unavailable("injected"));
  ASSERT_TRUE(loop.Deploy(worse).ok());
  ASSERT_TRUE(loop.hardened());
  // Within the margin: kept.
  JobMetrics dip = PlausibleMetrics(n);
  dip.lambda = 0.95;
  dip.job_backpressure = true;
  EXPECT_FALSE(loop.MaybeRollback(dip));
  EXPECT_EQ(worse, engine.parallelism());

  ASSERT_TRUE(loop.Deploy(worst).ok());
  JobMetrics drop = PlausibleMetrics(n);
  drop.lambda = 0.85;
  drop.job_backpressure = true;
  drop.total_parallelism = 3 * n;
  const int deploys_before = engine.deploy_calls();
  EXPECT_TRUE(loop.MaybeRollback(drop));
  EXPECT_EQ(deploys_before + 1, engine.deploy_calls());
  EXPECT_EQ(good, engine.parallelism());
  EXPECT_EQ(1, OutcomeOf(loop).rollbacks);
}

}  // namespace
}  // namespace streamtune::sim
