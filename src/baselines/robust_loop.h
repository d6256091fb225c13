// The hardened engine call, shared by every tuning loop.
//
// Every tuner (DS2, ContTune, ZeroTune, StreamTune) drives its engine
// through a RobustLoop. Deploy() and Measure() retry transient
// (kUnavailable) failures up to 4 attempts, sleeping 0.5, 1 and 2 virtual
// minutes (doubling, capped at 8) on the engine's clock. Measure() also
// replaces an invalid sample — one failing JobMetrics::Validate, or a stale
// one whose total parallelism is not the deployed total — by the median of
// 3 fresh valid ones. Once a fault has actually been observed ("hardened
// mode"), recommendations are clamped to within 4x of the deployed degree
// per iteration, and a lambda regression of more than 0.10 below the best
// clean run rolls back to that run's deployment.
//
// Determinism contract: on a fault-free run the loop stays in pristine
// mode — one engine call per Measure/Deploy, no clamping, no rollback — so
// tuner outcomes with chaos disabled are bit-identical to the unhardened
// implementation. Hardened mode latches only on observed faults (retries
// or rejected samples), which cannot occur on a clean engine.

#pragma once

#include <vector>

#include "baselines/tuner.h"

namespace streamtune::baselines {

/// Per-tuning-process harness wrapping one engine. Stateful: construct one
/// per tuning process, when the process starts.
class RobustLoop {
 public:
  explicit RobustLoop(sim::StreamEngine* engine)
      : engine_(engine),
        reconfig_before_(engine->reconfiguration_count()),
        minutes_before_(engine->virtual_minutes()) {}

  /// Measures with retry; an invalid or stale sample is replaced by the
  /// median of fresh valid re-measurements, or its validation error is
  /// returned when none can be obtained (the caller degrades gracefully).
  Result<sim::JobMetrics> Measure();

  /// Deploys with retry on transient failures.
  Status Deploy(const std::vector<int>& parallelism);

  /// True once any fault has been observed (a retried call or a rejected
  /// sample). Clamping and rollback only engage in hardened mode.
  bool hardened() const { return retries_ > 0 || rejected_ > 0; }

  /// Hardened mode: clamps each operator's recommended degree to within 4x
  /// of its currently deployed degree. Pristine: no-op.
  void ClampStep(std::vector<int>* rec) const;

  /// Call with each accepted measurement. Tracks the best clean deployment
  /// seen; in hardened mode, if the current deployment regressed lambda
  /// beyond the margin, redeploys the known-good configuration and returns
  /// true (callers should re-measure before recommending again). Never
  /// returns an error: a failed rollback degrades to "keep going".
  bool MaybeRollback(const sim::JobMetrics& m);

  /// Fills the final deployment, its total, and the reconfigurations and
  /// virtual minutes spent since construction.
  void Account(TuningOutcome* outcome) const;

  /// Copies fault/retry/rollback counters into the outcome.
  void FillOutcome(TuningOutcome* outcome) const {
    outcome->retries = retries_;
    outcome->rollbacks += rollbacks_;
    outcome->faults_survived = retries_ + rejected_;
  }

 private:
  sim::StreamEngine* engine_;
  const int reconfig_before_;
  const double minutes_before_;
  /// Engine calls re-attempted after a transient failure.
  int retries_ = 0;
  /// Samples rejected as invalid or stale.
  int rejected_ = 0;
  int rollbacks_ = 0;
  std::vector<int> known_good_;
  double known_good_lambda_ = -1.0;
};

}  // namespace streamtune::baselines
