#include "baselines/robust_loop.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "sim/metrics_sanitizer.h"

namespace streamtune::baselines {

namespace {

/// Engine-call attempts, including the first. The chaos engine caps fault
/// bursts at 2, so every fault plan is survivable.
constexpr int kMaxAttempts = 4;
/// Virtual minutes slept before the first re-attempt; doubles per
/// re-attempt, capped at kMaxBackoffMinutes.
constexpr double kFirstBackoffMinutes = 0.5;
constexpr double kMaxBackoffMinutes = 8.0;
/// Fresh samples drawn to replace an invalid one by their median.
constexpr int kMedianSamples = 3;
/// Hardened mode: per-iteration parallelism changes stay within this factor
/// of the deployed degree, so one corrupted window cannot trigger a wild
/// reconfiguration.
constexpr double kMaxStepFactor = 4.0;
/// Hardened mode: a lambda this far below the best clean run rolls back.
constexpr double kRollbackLambdaMargin = 0.10;

/// A valid sample of the current deployment: JobMetrics::Validate, and a
/// total parallelism equal to the deployed one (a frozen metric window
/// replays a sample of an earlier deployment).
Status CheckSample(const sim::JobMetrics& m,
                   const std::vector<int>& deployed) {
  ST_RETURN_NOT_OK(m.Validate());
  int total = 0;
  for (int p : deployed) total += p;
  if (m.total_parallelism != total) {
    return Status::OutOfRange("stale metric sample: total_parallelism = " +
                              std::to_string(m.total_parallelism) +
                              ", deployed " + std::to_string(total));
  }
  return Status::OK();
}

const Status& StatusOf(const Status& status) { return status; }
const Status& StatusOf(const Result<sim::JobMetrics>& result) {
  return result.status();
}

/// Runs `call` until it returns anything but kUnavailable or the attempts
/// run out, charging each backoff sleep to `engine`'s virtual clock.
/// Returns the last result.
template <typename Call>
auto WithRetry(sim::StreamEngine* engine, int* retries, const Call& call) {
  auto last = call();
  double sleep = kFirstBackoffMinutes;
  for (int attempt = 1; attempt < kMaxAttempts &&
                        StatusOf(last).code() == StatusCode::kUnavailable;
       ++attempt) {
    engine->AdvanceVirtualMinutes(sleep);
    ++*retries;
    sleep = std::min(2 * sleep, kMaxBackoffMinutes);
    last = call();
  }
  return last;
}

}  // namespace

Result<sim::JobMetrics> RobustLoop::Measure() {
  auto measure = [this] {
    return WithRetry(engine_, &retries_, [this] { return engine_->Measure(); });
  };
  Result<sim::JobMetrics> first = measure();
  if (!first.ok()) return first;
  Status invalid = CheckSample(*first, engine_->parallelism());
  if (invalid.ok()) return first;

  // Median-of-k replacement: draw fresh samples, keep the valid ones.
  ++rejected_;
  std::vector<sim::JobMetrics> valid;
  for (int i = 0; i < kMedianSamples; ++i) {
    Result<sim::JobMetrics> again = measure();
    // A dropout burst spends the budget and moves on.
    if (again.ok() && CheckSample(*again, engine_->parallelism()).ok()) {
      valid.push_back(std::move(*again));
    }
  }
  if (valid.empty()) return invalid;
  return sim::MedianOfSamples(valid);
}

Status RobustLoop::Deploy(const std::vector<int>& parallelism) {
  return WithRetry(engine_, &retries_,
                   [&] { return engine_->Deploy(parallelism); });
}

void RobustLoop::ClampStep(std::vector<int>* rec) const {
  if (!hardened()) return;
  const std::vector<int>& cur = engine_->parallelism();
  if (cur.size() != rec->size()) return;
  for (size_t v = 0; v < rec->size(); ++v) {
    const int lo =
        std::max(1, static_cast<int>(std::floor(cur[v] / kMaxStepFactor)));
    const int hi =
        std::max(lo, static_cast<int>(std::ceil(cur[v] * kMaxStepFactor)));
    (*rec)[v] = std::clamp((*rec)[v], lo, hi);
  }
}

void RobustLoop::Account(TuningOutcome* outcome) const {
  outcome->final_parallelism = engine_->parallelism();
  outcome->total_parallelism = 0;
  for (int p : outcome->final_parallelism) outcome->total_parallelism += p;
  outcome->reconfigurations =
      engine_->reconfiguration_count() - reconfig_before_;
  outcome->tuning_minutes = engine_->virtual_minutes() - minutes_before_;
}

bool RobustLoop::MaybeRollback(const sim::JobMetrics& m) {
  // A clean run at least as good as the best seen becomes the new
  // known-good deployment.
  if (!m.job_backpressure && m.lambda >= known_good_lambda_) {
    known_good_ = engine_->parallelism();
    known_good_lambda_ = m.lambda;
    return false;
  }
  if (!hardened() || known_good_.empty()) return false;
  if (engine_->parallelism() == known_good_) return false;
  if (m.lambda >= known_good_lambda_ - kRollbackLambdaMargin) return false;
  // The reconfiguration regressed the sustained rate past the margin:
  // restore the last deployment known to run clean. A rollback that itself
  // fails transiently is abandoned — the normal loop keeps iterating.
  if (!Deploy(known_good_).ok()) return false;
  ++rollbacks_;
  return true;
}

}  // namespace streamtune::baselines
