#include "core/streamtune_tuner.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "baselines/ds2.h"
#include "ml/gbdt.h"
#include "ml/svm.h"

namespace streamtune::core {

const char* FineTuneModelName(FineTuneModel m) {
  switch (m) {
    case FineTuneModel::kSvm:
      return "SVM";
    case FineTuneModel::kXgboost:
      return "XGBoost";
    case FineTuneModel::kNn:
      return "NN";
  }
  return "?";
}

StreamTuneTuner::StreamTuneTuner(
    std::shared_ptr<const PretrainedBundle> bundle, StreamTuneOptions options)
    : bundle_(std::move(bundle)), options_(options) {}

std::string StreamTuneTuner::name() const {
  return options_.model == FineTuneModel::kXgboost
             ? "StreamTune"
             : std::string("StreamTune-") + FineTuneModelName(options_.model);
}

std::unique_ptr<ml::BottleneckModel> StreamTuneTuner::MakeModel(
    int embedding_dim) const {
  switch (options_.model) {
    case FineTuneModel::kSvm:
      return std::make_unique<ml::MonotonicSvm>(embedding_dim);
    case FineTuneModel::kXgboost:
      return std::make_unique<ml::MonotonicGbdt>(embedding_dim);
    case FineTuneModel::kNn:
      return std::make_unique<ml::NnClassifier>(embedding_dim, options_.nn);
  }
  return nullptr;
}

void StreamTuneTuner::SeedFeedback(const std::string& job,
                                   std::vector<ml::LabeledSample> samples) {
  if (samples.size() > kMaxAccumulatedSamples) {
    samples.erase(samples.begin(),
                  samples.begin() + (samples.size() - kMaxAccumulatedSamples));
  }
  JobState& state = jobs_[job];
  state.feedback = std::move(samples);
  state.model.reset();
}

const std::vector<ml::LabeledSample>& StreamTuneTuner::FeedbackFor(
    const std::string& job) const {
  static const std::vector<ml::LabeledSample> kEmpty;
  auto it = jobs_.find(job);
  return it == jobs_.end() ? kEmpty : it->second.feedback;
}

int StreamTuneTuner::MinSafeParallelism(const ml::BottleneckModel& model,
                                        const std::vector<double>& embedding,
                                        int p_max) const {
  const double thr = options_.probability_threshold;
  if (model.PredictProbability(embedding, p_max) >= thr) return p_max;
  if (model.PredictProbability(embedding, 1) < thr) return 1;
  int lo = 1, hi = p_max;  // prob(lo) >= thr > prob(hi)
  while (lo + 1 < hi) {
    int mid = (lo + hi) / 2;
    if (model.PredictProbability(embedding, mid) < thr) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

std::vector<int> StreamTuneTuner::Recommend(const sim::StreamEngine& engine,
                                            const ml::BottleneckModel& model,
                                            int cluster) const {
  const JobGraph& g = engine.graph();
  const ml::Matrix emb =
      bundle_->AgnosticEmbeddings(cluster, g, engine.current_source_rates());
  std::vector<int> rec(g.num_operators(), 1);
  auto order = g.TopologicalOrder();
  assert(order.ok() && "deployed job graphs are acyclic");
  for (int v : order.value()) {
    rec[v] = MinSafeParallelism(model, emb.Row(v), engine.max_parallelism());
  }
  return rec;
}

StreamTuneTuner::Session::Session(StreamTuneTuner* tuner,
                                  sim::StreamEngine* engine)
    : tuner_(tuner),
      engine_(engine),
      loop_(engine) {}

Status StreamTuneTuner::Session::Init() {
  cluster_ = tuner_->bundle_->AssignCluster(engine_->graph());
  emb_dim_ =
      tuner_->bundle_->cluster(cluster_).encoder.config().hidden_dim +
      FeatureEncoder::kRateFeatures;

  // Algorithm 2, line 3: warm-up dataset from the cluster's history, plus
  // the feedback this tuner has already accumulated for this job from
  // earlier tuning processes ("iteratively refines ... for the target job").
  dataset_ = tuner_->bundle_->WarmUpDataset(
      cluster_, tuner_->options_.warmup_records, tuner_->options_.seed);
  job_ = &tuner_->jobs_[engine_->graph().name()];
  dataset_.insert(dataset_.end(), job_->feedback.begin(),
                  job_->feedback.end());

  // The pre-tuning state, shared by every method, tells Algorithm 1 where
  // the current bottlenecks are before the first recommendation.
  ST_ASSIGN_OR_RETURN(last_metrics_, loop_.Measure());
  last_labels_ = LabelBottlenecks(engine_->graph(), last_metrics_);
  last_backpressure_ = last_metrics_.job_backpressure;
  last_severe_ = last_metrics_.severe_backpressure;

  // The last deployment observed to run without backpressure; used to
  // revert a failed scale-down probe.
  if (!last_backpressure_) last_clean_ = engine_->parallelism();

  // Within-process bracketing from this process's own observations at the
  // current rates: a bottleneck at degree d pins the lower bound above d,
  // a clean run at degree d pins the upper bound at d. Clamping every
  // recommendation into the bracket makes the process converge
  // monotonically instead of ping-ponging across the threshold.
  const int n_ops = engine_->graph().num_operators();
  bracket_lo_.assign(n_ops, 1);
  bracket_hi_.assign(n_ops, engine_->max_parallelism());
  return Status::OK();
}

Result<bool> StreamTuneTuner::Session::Step() {
  if (done_) return true;
  const int iter = outcome_.iterations;
  if (iter >= tuner_->options_.max_iterations) {
    done_ = true;
    return true;
  }
  outcome_.iterations = iter + 1;
  sim::StreamEngine* engine = engine_;
  const int n_ops = engine->graph().num_operators();

  auto total_of = [](const std::vector<int>& p) {
    int t = 0;
    for (int x : p) t += x;
    return t;
  };

  // Line 5: fit the monotonic model to the dataset, unless the job's
  // model was already fitted on exactly this set (see JobState::model).
  std::unique_ptr<ml::BottleneckModel> fitted;
  const ml::BottleneckModel* model = nullptr;
  if (dataset_is_job_set_ && job_->model != nullptr) {
    model = job_->model.get();
  } else if (!dataset_.empty()) {
    fitted = tuner_->MakeModel(emb_dim_);
    ++outcome_.model_fits;
    if (fitted->Fit(dataset_).ok()) {
      model = fitted.get();
      if (dataset_is_job_set_) job_->model = std::move(fitted);
    }
  }

  // Lines 6-9: recommend in topological order. Graceful degradation:
  // when M_f cannot be fitted (e.g. a corrupted dataset under faults),
  // fall back to the DS2-style rate rule for this iteration rather than
  // aborting the tuning process.
  std::vector<int> rec;
  if (model != nullptr) {
    rec = tuner_->Recommend(*engine, *model, cluster_);
  } else if (dataset_.empty()) {
    rec = engine->parallelism();
  } else {
    rec = baselines::Ds2Tuner().Recommend(*engine, last_metrics_);
    ++outcome_.model_fallbacks;
  }

  // Progress guard: an operator that was just observed to be a bottleneck
  // at its current degree must strictly scale up, even if the refitted
  // model's boundary has not yet moved past it. Guarantees the loop makes
  // progress toward eliminating backpressure instead of stalling.
  if (last_backpressure_) {
    const std::vector<int>& cur = engine->parallelism();
    for (int v = 0; v < engine->graph().num_operators(); ++v) {
      if (last_labels_[v] != 1) continue;
      if (bracket_hi_[v] < engine->max_parallelism()) {
        // A clean degree is already known above: bisect toward it.
        rec[v] = std::max(rec[v], (bracket_lo_[v] + bracket_hi_[v] + 1) / 2);
      } else {
        // No upper evidence yet: jump by the observed demand deficit
        // (unthrottled demand over achieved rate — the same rate logs
        // Algorithm 1 reads), with a small margin; fall back to doubling
        // when no rate was observed.
        const sim::OperatorMetrics& om = last_metrics_.ops[v];
        double factor = om.input_rate > 1e-9
                            ? om.desired_input_rate / om.input_rate
                            : 2.0;
        factor = std::clamp(factor * 1.1, 1.25, 8.0);
        rec[v] = std::min(engine->max_parallelism(),
                          static_cast<int>(std::ceil(cur[v] * factor)));
      }
    }
  } else {
    // Scale-down probes move at most halfway down per step: a drastically
    // wrong downward recommendation would cost a reconfiguration and a
    // backpressure episode to discover.
    const std::vector<int>& cur = engine->parallelism();
    for (int v = 0; v < engine->graph().num_operators(); ++v) {
      rec[v] = std::max(rec[v], (cur[v] + 1) / 2);
    }
  }

  // Clamp into the bracket established by this process's observations,
  // then (hardened mode only) into a bounded step from the deployment.
  for (int v = 0; v < n_ops; ++v) {
    rec[v] = std::clamp(rec[v], bracket_lo_[v], bracket_hi_[v]);
  }
  loop_.ClampStep(&rec);

  // Stop rule (Algorithm 2, line 12): stop when the recommendation no
  // longer differs from the deployed configuration, with hysteresis —
  // once the job runs clean, a redeployment is only worth its cost if the
  // recommendation saves a meaningful amount of parallelism (small +-1
  // model jitter must not trigger endless reconfigurations).
  if (rec == engine->parallelism()) {
    done_ = true;
    return true;
  }
  if (!last_backpressure_) {
    int cur_total = total_of(engine->parallelism());
    int rec_total = total_of(rec);
    int margin = std::max(1, cur_total / 20);
    if (rec_total >= cur_total - margin) {
      done_ = true;
      return true;
    }
  }

  // Labels observed at `rec` pin this process's bracket: a bottleneck
  // pins the lower bound above rec, a clean operator pins the upper bound
  // at rec.
  auto pin_bracket = [&](const std::vector<int>& labels) {
    for (int v = 0; v < n_ops; ++v) {
      if (labels[v] == 1) {
        bracket_lo_[v] = std::max(bracket_lo_[v], rec[v] + 1);
        // Bottleneck evidence wins a contradiction (noise can mislabel 0).
        bracket_hi_[v] = std::max(bracket_hi_[v], bracket_lo_[v]);
      } else if (labels[v] == 0) {
        bracket_hi_[v] =
            std::max(bracket_lo_[v], std::min(bracket_hi_[v], rec[v]));
      }
    }
  };

  // Line 10: redeploy and monitor. A persistently failing Deploy or
  // Measure degrades gracefully: the loop stops and keeps what it has.
  if (!loop_.Deploy(rec).ok()) {
    done_ = true;
    return true;
  }
  Result<sim::JobMetrics> measured = loop_.Measure();
  if (!measured.ok()) {
    done_ = true;
    return true;
  }
  last_metrics_ = *measured;
  const sim::JobMetrics& metrics = last_metrics_;
  if (metrics.job_backpressure) ++outcome_.backpressure_events;
  if (loop_.MaybeRollback(metrics)) {
    // The regressed deployment was replaced by the last known-good one.
    // Its labels still pin the bracket (a bottleneck it exposed raises
    // that operator's lower bound, so the refit does not recommend the
    // same probe again) but stay out of M_f's dataset. Refresh the
    // observation so the next iteration labels the restored configuration.
    pin_bracket(LabelBottlenecks(engine->graph(), metrics));
    Result<sim::JobMetrics> restored = loop_.Measure();
    if (!restored.ok()) {
      done_ = true;
      return true;
    }
    last_metrics_ = *restored;
    last_labels_ = LabelBottlenecks(engine->graph(), last_metrics_);
    last_backpressure_ = last_metrics_.job_backpressure;
    last_severe_ = last_metrics_.severe_backpressure;
    if (!last_backpressure_) last_clean_ = engine->parallelism();
    return false;
  }

  // Line 11: fold the fresh Algorithm-1 labels into the dataset (and the
  // job's feedback, used by future tuning processes). The monotonic
  // assumption licenses augmentation — a bottleneck at p is a bottleneck
  // at every p' < p, and a safe degree stays safe at every p' > p — and
  // job-specific feedback is replicated so it is not drowned out by the
  // generic warm-up samples.
  last_labels_ = LabelBottlenecks(engine->graph(), metrics);
  last_backpressure_ = metrics.job_backpressure;
  last_severe_ = metrics.severe_backpressure;
  if (!last_backpressure_) last_clean_ = engine->parallelism();
  pin_bracket(last_labels_);
  const ml::Matrix emb = tuner_->bundle_->AgnosticEmbeddings(
      cluster_, engine->graph(), engine->current_source_rates());
  const int p_max = engine->max_parallelism();
  std::vector<ml::LabeledSample>& feedback = job_->feedback;
  for (int v = 0; v < engine->graph().num_operators(); ++v) {
    if (last_labels_[v] < 0) continue;
    ml::LabeledSample s;
    s.embedding = emb.Row(v);
    s.parallelism = rec[v];
    s.label = last_labels_[v];
    std::vector<ml::LabeledSample> induced{s, s, s};  // 3x weight
    if (s.label == 1 && s.parallelism > 1) {
      ml::LabeledSample lower = s;
      lower.parallelism = std::max(1, s.parallelism / 2);
      induced.push_back(lower);
    } else if (s.label == 0 && s.parallelism < p_max) {
      ml::LabeledSample higher = s;
      higher.parallelism = std::min(p_max, 2 * s.parallelism);
      induced.push_back(higher);
    }
    for (ml::LabeledSample& is : induced) {
      dataset_.push_back(is);
      feedback.push_back(std::move(is));
    }
    job_->model.reset();  // fitted on the feedback before this fold
    // FIFO eviction: recent feedback reflects the current workload and
    // model state; stale scale-up labels must not dominate forever.
    if (feedback.size() > kMaxAccumulatedSamples) {
      feedback.erase(feedback.begin(),
                     feedback.begin() +
                         (feedback.size() - kMaxAccumulatedSamples));
      dataset_is_job_set_ = false;
    }
  }
  return false;
}

Result<baselines::TuningOutcome> StreamTuneTuner::Session::Finish() {
  done_ = true;
  // A failed scale-down probe at the iteration limit must not leave the job
  // backpressured: revert to the last configuration known to run clean.
  if (last_backpressure_ && !last_clean_.empty() &&
      last_clean_ != engine_->parallelism()) {
    ST_RETURN_NOT_OK(loop_.Deploy(last_clean_));
    ST_ASSIGN_OR_RETURN(sim::JobMetrics metrics, loop_.Measure());
    last_backpressure_ = metrics.job_backpressure;
    last_severe_ = metrics.severe_backpressure;
    ++outcome_.rollbacks;
  }

  loop_.Account(&outcome_);
  outcome_.ended_with_backpressure = last_severe_;
  loop_.FillOutcome(&outcome_);
  return outcome_;
}

Result<std::unique_ptr<StreamTuneTuner::Session>> StreamTuneTuner::NewSession(
    sim::StreamEngine* engine) {
  std::unique_ptr<Session> session(new Session(this, engine));
  ST_RETURN_NOT_OK(session->Init());
  return session;
}

Result<baselines::TuningOutcome> StreamTuneTuner::Tune(
    sim::StreamEngine* engine) {
  ST_ASSIGN_OR_RETURN(std::unique_ptr<Session> session, NewSession(engine));
  return baselines::RunToCompletion(session.get());
}

}  // namespace streamtune::core
