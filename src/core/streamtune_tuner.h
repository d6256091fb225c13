// StreamTune's online fine-tuning phase — Algorithm 2.
//
// Given the pre-trained bundle: assign the target DAG to its nearest cluster
// (GED), retrieve the frozen encoder, build a warm-up dataset of
// (embedding, parallelism, label) samples, then iterate: fit the monotonic
// bottleneck model M_f, recommend — per operator, in topological order — the
// minimum parallelism whose predicted bottleneck probability clears the
// threshold (a binary search, valid because M_f is monotonic), redeploy,
// monitor, fold the fresh Algorithm-1 labels back into the dataset. Stops
// when no backpressure is observed and the recommendation is stable.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/robust_loop.h"
#include "baselines/tuner.h"
#include "core/pretrain.h"
#include "ml/nn_classifier.h"

namespace streamtune::core {

/// Which model family backs the fine-tuned prediction layer M_f.
enum class FineTuneModel { kSvm, kXgboost, kNn };

const char* FineTuneModelName(FineTuneModel m);

/// Online-phase knobs.
struct StreamTuneOptions {
  /// Default M_f family. The paper reports SVM and XGBoost as comparable
  /// (Fig. 11a) and uses SVM for its headline runs; in this implementation
  /// the monotonic GBDT brackets per-operator thresholds noticeably more
  /// tightly than the random-Fourier-feature SVM approximation, so it is
  /// the default.
  FineTuneModel model = FineTuneModel::kXgboost;
  int max_iterations = 14;
  /// History records sampled into the warm-up dataset (Algorithm 2 line 3).
  int warmup_records = 120;
  /// An operator is considered safe at parallelism p when
  /// P(bottleneck | h, p) falls below this.
  double probability_threshold = 0.5;
  /// Only the NN ablation's epoch count is settable.
  ml::NnClassifierConfig nn;
  uint64_t seed = 19;
};

/// The StreamTune online tuner.
class StreamTuneTuner : public baselines::Tuner {
  struct JobState;

 public:
  StreamTuneTuner(std::shared_ptr<const PretrainedBundle> bundle,
                  StreamTuneOptions options = {});

  std::string name() const override;
  Result<baselines::TuningOutcome> Tune(sim::StreamEngine* engine) override;

  /// One resumable Algorithm-2 tuning process at decision granularity (see
  /// NewSession). Tune() runs one to completion.
  class Session : public baselines::TuningSession {
   public:
    /// One fit -> recommend -> deploy -> measure -> fold iteration. True
    /// when the stop rule fired (stable recommendation, iteration budget,
    /// or graceful degradation on persistent engine failure).
    Result<bool> Step() override;

    /// Finalization: reverts a failed scale-down probe to the last clean
    /// deployment and fills the outcome. Call once, after the last Step().
    Result<baselines::TuningOutcome> Finish() override;

    bool done() const { return done_; }

   private:
    friend class StreamTuneTuner;
    Session(StreamTuneTuner* tuner, sim::StreamEngine* engine);
    /// Warm-up dataset + the shared pre-tuning measurement (Algorithm 2
    /// lines 3-4); the only step that can fail on a pristine engine.
    Status Init();

    StreamTuneTuner* tuner_;
    sim::StreamEngine* engine_;
    baselines::RobustLoop loop_;
    baselines::TuningOutcome outcome_;
    int cluster_ = 0;
    int emb_dim_ = 0;
    std::vector<ml::LabeledSample> dataset_;
    /// The tuner's state for this job (stable std::map ref).
    JobState* job_ = nullptr;
    /// True while dataset_ is exactly WarmUpDataset(cluster_) followed by
    /// job_->feedback. A FIFO eviction ends that for good (dataset_ keeps
    /// the evicted rows): from then on this session neither reads nor
    /// stores job_->model.
    bool dataset_is_job_set_ = true;
    sim::JobMetrics last_metrics_;
    std::vector<int> last_labels_;
    bool last_backpressure_ = false;
    bool last_severe_ = false;
    /// Last deployment observed to run without backpressure.
    std::vector<int> last_clean_;
    /// Per-operator bracket pinned by this process's own observations.
    std::vector<int> bracket_lo_, bracket_hi_;
    bool done_ = false;
  };

  /// Starts a resumable tuning process on `engine` (already deployed). The
  /// tuner must outlive the session; a tuner's sessions must not overlap
  /// (they share the job's feedback and fitted M_f).
  Result<std::unique_ptr<Session>> NewSession(sim::StreamEngine* engine);

  /// One recommendation pass (Algorithm 2 lines 6-9) with a fitted model:
  /// per operator, the minimum degree predicted bottleneck-free. Exposed
  /// for unit tests.
  std::vector<int> Recommend(const sim::StreamEngine& engine,
                             const ml::BottleneckModel& model,
                             int cluster) const;

  /// Fresh, unfitted M_f of the configured family.
  std::unique_ptr<ml::BottleneckModel> MakeModel(int embedding_dim) const;

  /// Seeds the per-job feedback accumulator with samples from earlier
  /// tuning sessions (e.g. a knowledge base), so a fresh process
  /// warm-starts with the job's own fine-tune data instead of only the
  /// cluster's generic warm-up corpus. Replaces any existing accumulation
  /// for `job` (and drops its fitted M_f); truncated FIFO to the
  /// accumulator bound. Call it between tuning processes of `job`.
  void SeedFeedback(const std::string& job,
                    std::vector<ml::LabeledSample> samples);

  /// The fine-tune samples accumulated for `job` across this tuner's
  /// sessions — the payload a knowledge-base admission persists.
  const std::vector<ml::LabeledSample>& FeedbackFor(
      const std::string& job) const;

  /// FIFO bound on one job's feedback, here and in the knowledge base:
  /// long schedules cannot grow the fit unboundedly.
  static constexpr size_t kMaxAccumulatedSamples = 1500;

 private:
  /// Minimum p in [1, p_max] with P(bottleneck) below the threshold; p_max
  /// if none qualifies. Binary search (monotonic models) — the same search
  /// is applied to the NN ablation, whose non-monotonic predictions can
  /// mislead it (Fig. 11a).
  int MinSafeParallelism(const ml::BottleneckModel& model,
                         const std::vector<double>& embedding,
                         int p_max) const;

  std::shared_ptr<const PretrainedBundle> bundle_;
  StreamTuneOptions options_;

  /// What the tuner keeps for one job across its tuning processes.
  struct JobState {
    /// Feedback collected so far, bounded by kMaxAccumulatedSamples.
    std::vector<ml::LabeledSample> feedback;
    /// M_f fitted on the job's cluster's WarmUpDataset followed by
    /// `feedback`, or null. Every change to `feedback` drops it. A fit is
    /// a pure function of the options and the dataset, so a session about
    /// to fit that same set uses this model instead: the stop decision
    /// that ends a process folds nothing, and the next process opens on
    /// its set.
    std::unique_ptr<ml::BottleneckModel> model;
  };

  /// Keyed by job name: one name stands for one graph, so for one cluster
  /// of the fixed bundle.
  std::map<std::string, JobState> jobs_;
};

}  // namespace streamtune::core
