// DS2 (Kalavri et al., OSDI'18): analytical scaling on the linearity
// assumption.
//
// For every operator DS2 estimates the *true processing rate* as
// observed-rate / useful-time and assumes capacity grows linearly with
// parallelism. Target input rates are propagated from the sources through
// the DAG with observed selectivities; the recommended degree is
// ceil(target_rate / per-instance true rate). The method iterates ("three
// steps is all you need") because the linearity assumption and the noisy
// useful-time measurements leave residual error after each step.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "baselines/robust_loop.h"
#include "baselines/tuner.h"

namespace streamtune::baselines {

/// Options for the DS2 tuner.
struct Ds2Options {
  int max_iterations = 10;
};

/// Target (unthrottled) input rate of every operator: the sources' desired
/// rates propagated downstream through the observed selectivities.
std::vector<double> TargetInputRates(const JobGraph& graph,
                                     const sim::JobMetrics& metrics);

/// A rate rule: given metrics of the current deployment, the recommended
/// parallelism per operator.
using RateRule = std::function<std::vector<int>(const sim::StreamEngine&,
                                                const sim::JobMetrics&)>;

/// The measure -> recommend -> deploy loop that DS2 and ContTune share,
/// parameterised by the method's rate rule. Each Step() makes one decision;
/// the process stops on a stable recommendation, an exhausted iteration
/// budget, or graceful degradation on persistent engine failure. Errors
/// only propagate for a failed initial measurement on a pristine engine (a
/// caller error, e.g. never deployed).
class RateRuleSession : public TuningSession {
 public:
  RateRuleSession(RateRule rule, int max_iterations, sim::StreamEngine* engine);

  Result<bool> Step() override;

  /// Final accounting plus a trailing measurement for the backpressure
  /// verdict.
  Result<TuningOutcome> Finish() override;

 private:
  const RateRule rule_;
  const int max_iterations_;
  sim::StreamEngine* engine_;
  RobustLoop loop_;
  TuningOutcome outcome_;
  bool last_severe_ = false;
  bool done_ = false;
};

/// The DS2 scaling controller.
class Ds2Tuner : public Tuner {
 public:
  explicit Ds2Tuner(Ds2Options options = {}) : options_(options) {}

  std::string name() const override { return "DS2"; }
  Result<TuningOutcome> Tune(sim::StreamEngine* engine) override {
    return RunToCompletion(NewSession(engine).get());
  }

  /// Starts a resumable DS2 tuning process on `engine` (already deployed).
  std::unique_ptr<TuningSession> NewSession(sim::StreamEngine* engine) const;

  /// One DS2 policy step: given metrics of the current deployment, the new
  /// recommended parallelism per operator. Exposed for unit tests.
  std::vector<int> Recommend(const sim::StreamEngine& engine,
                             const sim::JobMetrics& metrics) const;

 private:
  Ds2Options options_;
};

}  // namespace streamtune::baselines
