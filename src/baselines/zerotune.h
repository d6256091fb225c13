// ZeroTune (Agnihotri et al., ICDE'24): zero-shot job-level cost model.
//
// A GNN consumes the dataflow DAG (with candidate parallelisms injected) and
// regresses a single job-level performance cost via a graph-level readout —
// the aggregation step that, per the paper's critique (C2), discards
// operator-level detail. Since ZeroTune defines no tuning strategy, the
// evaluation samples candidate parallelism assignments and deploys the one
// with the lowest predicted cost, in a single reconfiguration (Sec. V-A).
// Because the cost objective rewards performance only, the picked
// configurations are resource-hungry.

#pragma once

#include <memory>
#include <vector>

#include "baselines/tuner.h"
#include "dataflow/feature_encoder.h"
#include "ml/gnn.h"
#include "ml/nn.h"

namespace streamtune::baselines {

/// One training example for the job-level cost model.
struct ZeroTuneExample {
  JobGraph graph;
  std::vector<int> parallelism;
  /// Job-level performance cost (higher = worse), e.g. a latency proxy.
  double cost = 0;
};

/// Options for ZeroTune.
struct ZeroTuneOptions {
  int hidden_dim = 32;
  int gnn_layers = 3;
  int epochs = 60;
  double learning_rate = 3e-3;
  /// Candidate configurations sampled per tuning call.
  int num_samples = 64;
  uint64_t seed = 31;
};

/// The ZeroTune cost-model tuner.
class ZeroTuneTuner : public Tuner {
 public:
  explicit ZeroTuneTuner(ZeroTuneOptions options = {});

  std::string name() const override { return "ZeroTune"; }

  /// Trains the zero-shot cost model on historical executions.
  Status Train(const std::vector<ZeroTuneExample>& data);

  /// Predicted job-level cost of running `graph` at `parallelism`.
  Result<double> PredictCost(const JobGraph& graph,
                             const std::vector<int>& parallelism) const;

  /// Samples candidate configurations, deploys the predicted-best one.
  /// Always a single reconfiguration.
  Result<TuningOutcome> Tune(sim::StreamEngine* engine) override;

  bool trained() const { return trained_; }

 private:
  ZeroTuneOptions options_;
  FeatureEncoder encoder_;
  ml::GnnEncoder gnn_;
  ml::Mlp readout_;
  Rng rng_;
  bool trained_ = false;
};

}  // namespace streamtune::baselines
