// Unconstrained neural-network bottleneck classifier.
//
// The ablation baseline of Fig. 11a: an MLP over [h, p] trained with BCE.
// Nothing enforces monotonicity in p, so Algorithm 2's minimum-parallelism
// search can be misled — exactly the failure mode the paper demonstrates.

#pragma once

#include <cstdint>
#include <memory>

#include "ml/bottleneck_model.h"
#include "ml/nn.h"

namespace streamtune::ml {

/// The one settable NnClassifier hyperparameter.
struct NnClassifierConfig {
  int epochs = 200;
};

/// MLP classifier on [embedding | scaled parallelism], no monotonic
/// constraint.
class NnClassifier : public BottleneckModel {
 public:
  explicit NnClassifier(int embedding_dim, NnClassifierConfig config = {});

  Status Fit(const std::vector<LabeledSample>& data) override;
  double PredictProbability(const std::vector<double>& h,
                            int parallelism) const override;
  bool is_monotonic() const override { return false; }
  std::string name() const override { return "NN"; }

  /// Width of both hidden layers.
  static constexpr int kHiddenDim = 32;
  static constexpr double kLearningRate = 5e-3;
  /// The parallelism feature is the degree divided by this.
  static constexpr double kParallelismScale = 100.0;
  static constexpr uint64_t kSeed = 17;

 private:
  int embedding_dim_;
  NnClassifierConfig config_;
  Mlp mlp_;
};

}  // namespace streamtune::ml
