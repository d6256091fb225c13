#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/history.h"
#include "core/pretrain.h"
#include "core/streamtune_tuner.h"
#include "ml/gbdt.h"
#include "ml/nn_classifier.h"
#include "ml/svm.h"
#include "sim/engine.h"
#include "workloads/cost_config.h"
#include "workloads/pqp.h"

namespace streamtune::core {
namespace {

// Shared fixture state: pre-training once keeps the suite fast.
class StreamTuneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::vector<JobGraph> jobs;
    for (int i = 0; i < 6; ++i) {
      jobs.push_back(
          workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, i));
    }
    for (int i = 0; i < 6; ++i) {
      jobs.push_back(
          workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, i));
    }
    HistoryOptions hist;
    hist.samples_per_job = 12;
    auto corpus = CollectHistory(jobs, hist);
    PretrainOptions pre;
    pre.k = 2;
    pre.epochs = 15;
    auto bundle = Pretrainer(pre).Run(std::move(corpus));
    ASSERT_TRUE(bundle.ok());
    bundle_ = std::make_shared<PretrainedBundle>(std::move(*bundle));
  }

  static sim::FlinkEngine MakeEngine(const JobGraph& job) {
    sim::PerfModel model(job, workloads::CostConfigFor(job));
    return sim::FlinkEngine(job, model, sim::SimConfig{});
  }

  static std::shared_ptr<PretrainedBundle> bundle_;
};

std::shared_ptr<PretrainedBundle> StreamTuneTest::bundle_;

TEST_F(StreamTuneTest, EliminatesBackpressureOnUnseenJob) {
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin,
                                        9);  // not in the corpus
  sim::FlinkEngine engine = MakeEngine(job);
  std::vector<int> ones(job.num_operators(), 1);
  ASSERT_TRUE(engine.Deploy(ones).ok());
  engine.ScaleAllSources(10.0);
  StreamTuneTuner tuner(bundle_);
  auto outcome = tuner.Tune(&engine);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->model_fallbacks, 0);  // M_f decided every iteration
  auto m = engine.Measure();
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->severe_backpressure);
}

TEST_F(StreamTuneTest, RecommendationsWithinPhysicalLimits) {
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 7);
  sim::FlinkEngine engine = MakeEngine(job);
  std::vector<int> ones(job.num_operators(), 1);
  ASSERT_TRUE(engine.Deploy(ones).ok());
  engine.ScaleAllSources(8.0);
  StreamTuneTuner tuner(bundle_);
  auto outcome = tuner.Tune(&engine);
  ASSERT_TRUE(outcome.ok());
  for (int p : outcome->final_parallelism) {
    EXPECT_GE(p, 1);
    EXPECT_LE(p, engine.max_parallelism());
  }
}

TEST_F(StreamTuneTest, FeedbackAccumulationTightensRecommendations) {
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin,
                                        10);
  sim::FlinkEngine engine = MakeEngine(job);
  std::vector<int> ones(job.num_operators(), 1);
  ASSERT_TRUE(engine.Deploy(ones).ok());
  StreamTuneTuner tuner(bundle_);
  // Run several tuning processes across the rate cycle.
  int first_total = -1, last_total = -1;
  for (double mult : {10.0, 3.0, 7.0, 10.0, 5.0, 10.0}) {
    engine.ScaleAllSources(mult);
    auto outcome = tuner.Tune(&engine);
    ASSERT_TRUE(outcome.ok());
    if (mult == 10.0) {
      if (first_total < 0) first_total = outcome->total_parallelism;
      last_total = outcome->total_parallelism;
    }
  }
  // With accumulated feedback the final 10x recommendation must not be
  // looser than the cold-start one.
  EXPECT_LE(last_total, first_total);
}

TEST_F(StreamTuneTest, BinarySearchMatchesLinearScanForMonotonicModels) {
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 3);
  sim::FlinkEngine engine = MakeEngine(job);
  std::vector<int> ones(job.num_operators(), 1);
  ASSERT_TRUE(engine.Deploy(ones).ok());
  engine.ScaleAllSources(10.0);

  StreamTuneOptions opts;
  StreamTuneTuner tuner(bundle_, opts);
  int cluster = bundle_->AssignCluster(job);
  auto warmup = bundle_->WarmUpDataset(cluster, 60, 5);
  auto model = tuner.MakeModel(
      bundle_->cluster(cluster).encoder.config().hidden_dim +
      FeatureEncoder::kRateFeatures);
  ASSERT_TRUE(model->Fit(warmup).ok());
  std::vector<int> rec = tuner.Recommend(engine, *model, cluster);

  // Verify the binary search against an exhaustive scan per operator.
  ml::Matrix emb = bundle_->AgnosticEmbeddings(cluster, job,
                                               engine.current_source_rates());
  for (int v = 0; v < job.num_operators(); ++v) {
    int expected = engine.max_parallelism();
    for (int p = 1; p <= engine.max_parallelism(); ++p) {
      if (model->PredictProbability(emb.Row(v), p) <
          opts.probability_threshold) {
        expected = p;
        break;
      }
    }
    EXPECT_EQ(rec[v], expected) << "operator " << v;
  }
}

TEST_F(StreamTuneTest, AllThreeModelFamiliesRun) {
  for (FineTuneModel mtype : {FineTuneModel::kSvm, FineTuneModel::kXgboost,
                              FineTuneModel::kNn}) {
    JobGraph job =
        workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, 11);
    sim::FlinkEngine engine = MakeEngine(job);
    std::vector<int> ones(job.num_operators(), 1);
    ASSERT_TRUE(engine.Deploy(ones).ok());
    engine.ScaleAllSources(6.0);
    StreamTuneOptions opts;
    opts.model = mtype;
    opts.nn.epochs = 60;  // keep the NN ablation fast in tests
    StreamTuneTuner tuner(bundle_, opts);
    auto outcome = tuner.Tune(&engine);
    ASSERT_TRUE(outcome.ok()) << FineTuneModelName(mtype);
    EXPECT_GE(outcome->iterations, 1);
  }
}

// One training-set check guards every M_f family: a NaN or Inf embedding
// entry (undefined behaviour in the GBDT's split sort), a parallelism below
// 1 and a label outside {0, 1} are all rejected before any fitting starts.
TEST(BottleneckModelTest, EveryFamilyRejectsInvalidSamples) {
  const int dim = 3;
  std::vector<std::unique_ptr<ml::BottleneckModel>> models;
  models.push_back(std::make_unique<ml::MonotonicSvm>(dim));
  models.push_back(std::make_unique<ml::MonotonicGbdt>(dim));
  models.push_back(std::make_unique<ml::NnClassifier>(dim));
  ml::LabeledSample hot{{0.1, 0.2, 0.3}, 2, 1};
  ml::LabeledSample cold{{0.1, 0.2, 0.3}, 8, 0};
  std::vector<ml::LabeledSample> bad(4, hot);
  bad[0].embedding[1] = std::nan("");
  bad[1].embedding[2] = std::numeric_limits<double>::infinity();
  bad[2].parallelism = 0;
  bad[3].label = 2;
  for (const auto& model : models) {
    EXPECT_TRUE(model->Fit({hot, cold}).ok()) << model->name();
    for (size_t i = 0; i < bad.size(); ++i) {
      EXPECT_EQ(model->Fit({hot, cold, bad[i]}).code(),
                StatusCode::kInvalidArgument)
          << model->name() << " bad sample " << i;
    }
  }
}

// A NaN sample in the seeded feedback makes every M_f fit fail, so each
// iteration takes the DS2 fallback: the process still completes, exactly
// like one whose seeded sample has the wrong embedding width.
TEST_F(StreamTuneTest, NanSeedFeedbackFallsBackToDs2) {
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin,
                                        9);
  const int cluster = bundle_->AssignCluster(job);
  const int dim = bundle_->cluster(cluster).encoder.config().hidden_dim +
                  FeatureEncoder::kRateFeatures;
  ml::LabeledSample nan_sample{std::vector<double>(dim, 0.5), 4, 1};
  nan_sample.embedding[0] = std::nan("");
  ml::LabeledSample short_sample{std::vector<double>(dim - 1, 0.5), 4, 1};

  std::vector<baselines::TuningOutcome> outcomes;
  for (const ml::LabeledSample& seeded : {nan_sample, short_sample}) {
    sim::FlinkEngine engine = MakeEngine(job);
    ASSERT_TRUE(engine.Deploy(std::vector<int>(job.num_operators(), 1)).ok());
    engine.ScaleAllSources(10.0);
    StreamTuneTuner tuner(bundle_);
    tuner.SeedFeedback(job.name(), {seeded});
    auto outcome = tuner.Tune(&engine);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_GE(outcome->iterations, 1);
    // Every fit fails, so the DS2 rule decides every iteration.
    EXPECT_EQ(outcome->model_fallbacks, outcome->iterations);
    outcomes.push_back(*outcome);
  }
  EXPECT_EQ(outcomes[0].final_parallelism, outcomes[1].final_parallelism);
  EXPECT_EQ(outcomes[0].reconfigurations, outcomes[1].reconfigurations);
  EXPECT_EQ(outcomes[0].iterations, outcomes[1].iterations);
}

// A long-lived tuner opens every process after the first on exactly the
// set its previous process's stop decision fitted (that decision folds
// nothing), so it reuses that fit. A fresh tuner seeded with the same
// feedback refits the set: every family must decide alike either way.
TEST_F(StreamTuneTest, ReusedFitDecidesLikeARefit) {
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin,
                                        10);
  for (FineTuneModel mtype : {FineTuneModel::kSvm, FineTuneModel::kXgboost,
                              FineTuneModel::kNn}) {
    SCOPED_TRACE(FineTuneModelName(mtype));
    StreamTuneOptions opts;
    opts.model = mtype;
    opts.nn.epochs = 60;  // keep the NN ablation fast in tests
    StreamTuneTuner tuner(bundle_, opts);
    sim::FlinkEngine engine = MakeEngine(job);
    sim::FlinkEngine fresh_engine = MakeEngine(job);
    const std::vector<int> ones(job.num_operators(), 1);
    ASSERT_TRUE(engine.Deploy(ones).ok());
    ASSERT_TRUE(fresh_engine.Deploy(ones).ok());
    int process = 0;
    for (double mult : {10.0, 3.0, 7.0, 5.0, 10.0}) {
      SCOPED_TRACE(mult);
      engine.ScaleAllSources(mult);
      fresh_engine.ScaleAllSources(mult);
      StreamTuneTuner fresh(bundle_, opts);
      fresh.SeedFeedback(job.name(), tuner.FeedbackFor(job.name()));
      auto reused = tuner.Tune(&engine);
      auto refit = fresh.Tune(&fresh_engine);
      ASSERT_TRUE(reused.ok());
      ASSERT_TRUE(refit.ok());
      EXPECT_EQ(reused->final_parallelism, refit->final_parallelism);
      EXPECT_EQ(reused->reconfigurations, refit->reconfigurations);
      EXPECT_EQ(reused->iterations, refit->iterations);
      EXPECT_EQ(refit->model_fits, refit->iterations);
      EXPECT_EQ(reused->model_fits, refit->model_fits - (process > 0 ? 1 : 0));
      EXPECT_EQ(tuner.FeedbackFor(job.name()).size(),
                fresh.FeedbackFor(job.name()).size());
      ++process;
    }
  }
}

// Replacing a job's feedback drops its fitted model, even when the new
// feedback equals the old: the next process refits.
TEST_F(StreamTuneTest, SeedFeedbackForcesARefit) {
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 7);
  StreamTuneTuner kept(bundle_), reseeded(bundle_);
  sim::FlinkEngine kept_engine = MakeEngine(job);
  sim::FlinkEngine reseeded_engine = MakeEngine(job);
  const std::vector<int> ones(job.num_operators(), 1);
  ASSERT_TRUE(kept_engine.Deploy(ones).ok());
  ASSERT_TRUE(reseeded_engine.Deploy(ones).ok());
  std::vector<baselines::TuningOutcome> kept_out, reseeded_out;
  for (double mult : {8.0, 4.0}) {
    kept_engine.ScaleAllSources(mult);
    reseeded_engine.ScaleAllSources(mult);
    reseeded.SeedFeedback(job.name(), reseeded.FeedbackFor(job.name()));
    auto a = kept.Tune(&kept_engine);
    auto b = reseeded.Tune(&reseeded_engine);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    kept_out.push_back(*a);
    reseeded_out.push_back(*b);
  }
  EXPECT_EQ(kept_out[1].final_parallelism, reseeded_out[1].final_parallelism);
  EXPECT_EQ(kept_out[1].iterations, reseeded_out[1].iterations);
  EXPECT_EQ(reseeded_out[1].model_fits, reseeded_out[1].iterations);
  EXPECT_EQ(kept_out[1].model_fits, reseeded_out[1].model_fits - 1);
}

// With the feedback at its cap every fold evicts, and the session's dataset
// keeps the evicted rows: its later fits are not of the job's set, so
// none may be kept for the next process, which must refit.
TEST_F(StreamTuneTest, EvictingProcessKeepsNoFit) {
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin,
                                        9);
  const std::vector<int> ones(job.num_operators(), 1);
  std::vector<ml::LabeledSample> full;
  {
    StreamTuneTuner donor(bundle_);
    sim::FlinkEngine engine = MakeEngine(job);
    ASSERT_TRUE(engine.Deploy(ones).ok());
    engine.ScaleAllSources(10.0);
    ASSERT_TRUE(donor.Tune(&engine).ok());
    const std::vector<ml::LabeledSample>& some = donor.FeedbackFor(job.name());
    ASSERT_FALSE(some.empty());
    while (full.size() < StreamTuneTuner::kMaxAccumulatedSamples) {
      full.insert(full.end(), some.begin(), some.end());
    }
  }
  StreamTuneTuner tuner(bundle_);
  tuner.SeedFeedback(job.name(), full);
  ASSERT_EQ(tuner.FeedbackFor(job.name()).size(),
            StreamTuneTuner::kMaxAccumulatedSamples);
  sim::FlinkEngine engine = MakeEngine(job);
  sim::FlinkEngine fresh_engine = MakeEngine(job);
  ASSERT_TRUE(engine.Deploy(ones).ok());
  ASSERT_TRUE(fresh_engine.Deploy(ones).ok());
  for (double mult : {10.0, 4.0}) {
    SCOPED_TRACE(mult);
    engine.ScaleAllSources(mult);
    fresh_engine.ScaleAllSources(mult);
    StreamTuneTuner fresh(bundle_);
    fresh.SeedFeedback(job.name(), tuner.FeedbackFor(job.name()));
    auto kept = tuner.Tune(&engine);
    auto refit = fresh.Tune(&fresh_engine);
    ASSERT_TRUE(kept.ok());
    ASSERT_TRUE(refit.ok());
    // The first process folds, so it evicts; the second must refit.
    if (mult == 10.0) {
      ASSERT_GT(kept->reconfigurations, 0);
    }
    EXPECT_EQ(kept->final_parallelism, refit->final_parallelism);
    EXPECT_EQ(kept->reconfigurations, refit->reconfigurations);
    EXPECT_EQ(kept->iterations, refit->iterations);
    EXPECT_EQ(kept->model_fits, refit->model_fits);
    EXPECT_EQ(tuner.FeedbackFor(job.name()).size(),
              StreamTuneTuner::kMaxAccumulatedSamples);
  }
}

TEST_F(StreamTuneTest, NameReflectsModelFamily) {
  StreamTuneOptions opts;
  EXPECT_EQ(StreamTuneTuner(bundle_, opts).name(), "StreamTune");
  opts.model = FineTuneModel::kSvm;
  EXPECT_EQ(StreamTuneTuner(bundle_, opts).name(), "StreamTune-SVM");
  opts.model = FineTuneModel::kNn;
  EXPECT_EQ(StreamTuneTuner(bundle_, opts).name(), "StreamTune-NN");
}

TEST_F(StreamTuneTest, StableRecommendationShortCircuits) {
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 2);
  sim::FlinkEngine engine = MakeEngine(job);
  std::vector<int> ones(job.num_operators(), 1);
  ASSERT_TRUE(engine.Deploy(ones).ok());
  engine.ScaleAllSources(4.0);
  StreamTuneTuner tuner(bundle_);
  auto first = tuner.Tune(&engine);
  ASSERT_TRUE(first.ok());
  // Re-tuning at the same rate must be cheap (at most a small refinement),
  // must not loosen the deployment, and must leave the job clean.
  auto second = tuner.Tune(&engine);
  ASSERT_TRUE(second.ok());
  EXPECT_LE(second->reconfigurations, 2);
  EXPECT_LE(second->total_parallelism, first->total_parallelism + 1);
  EXPECT_FALSE(second->ended_with_backpressure);
}


TEST_F(StreamTuneTest, ProbabilityThresholdShiftsRecommendations) {
  // A stricter (lower) threshold demands more confidence that a degree is
  // safe, so recommendations are never lower than with a lax threshold.
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 4);
  sim::FlinkEngine engine = MakeEngine(job);
  std::vector<int> ones(job.num_operators(), 1);
  ASSERT_TRUE(engine.Deploy(ones).ok());
  engine.ScaleAllSources(8.0);

  int cluster = bundle_->AssignCluster(job);
  auto warmup = bundle_->WarmUpDataset(cluster, 80, 5);
  StreamTuneOptions lax_opts;
  lax_opts.probability_threshold = 0.7;
  StreamTuneOptions strict_opts;
  strict_opts.probability_threshold = 0.3;
  StreamTuneTuner lax(bundle_, lax_opts), strict(bundle_, strict_opts);
  int dim = bundle_->cluster(cluster).encoder.config().hidden_dim +
            FeatureEncoder::kRateFeatures;
  auto model = lax.MakeModel(dim);
  ASSERT_TRUE(model->Fit(warmup).ok());
  std::vector<int> lax_rec = lax.Recommend(engine, *model, cluster);
  std::vector<int> strict_rec = strict.Recommend(engine, *model, cluster);
  for (int v = 0; v < job.num_operators(); ++v) {
    EXPECT_GE(strict_rec[v], lax_rec[v]) << "operator " << v;
  }
}

TEST_F(StreamTuneTest, LiveReconfigurationChargesLessTime) {
  JobGraph job = workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin,
                                        13);
  auto run = [&](bool live) {
    sim::PerfModel model(job, workloads::CostConfigFor(job));
    sim::SimConfig cfg;
    cfg.live_reconfiguration = live;
    sim::FlinkEngine engine(job, model, cfg);
    std::vector<int> ones(job.num_operators(), 1);
    (void)engine.Deploy(ones);
    engine.ScaleAllSources(10.0);
    StreamTuneTuner tuner(bundle_);
    auto outcome = tuner.Tune(&engine);
    EXPECT_TRUE(outcome.ok());
    return std::make_pair(outcome->tuning_minutes,
                          outcome->final_parallelism);
  };
  auto [stop_minutes, stop_final] = run(false);
  auto [live_minutes, live_final] = run(true);
  // Same decisions, ~10x cheaper deployments.
  EXPECT_EQ(stop_final, live_final);
  if (stop_minutes > 0) {
    EXPECT_LT(live_minutes, 0.2 * stop_minutes);
  }
}

}  // namespace
}  // namespace streamtune::core
