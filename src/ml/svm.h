// Monotonic soft-margin SVM (Sec. IV-B, model choice (a)).
//
// The decision function is f(x) = w_e^T phi(h) + w_p * p + b (Eq. 4) with the
// kernel trick realized through random Fourier features (an explicit
// finite-dimensional approximation of the RBF feature map), trained with a
// Pegasos-style projected subgradient method on the hinge objective (Eq. 5).
// The monotonic constraint w_p <= 0 is enforced by projection after every
// update, so the bottleneck score is non-increasing in the parallelism by
// construction.

#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ml/bottleneck_model.h"
#include "ml/matrix.h"

namespace streamtune::ml {

/// RBF-kernel SVM with the w_p <= 0 monotonic constraint.
class MonotonicSvm : public BottleneckModel {
 public:
  explicit MonotonicSvm(int embedding_dim);

  Status Fit(const std::vector<LabeledSample>& data) override;
  double PredictProbability(const std::vector<double>& h,
                            int parallelism) const override;
  bool is_monotonic() const override { return true; }
  std::string name() const override { return "SVM"; }

  /// Raw decision value f(x); >= 0 classifies as bottleneck.
  double DecisionValue(const std::vector<double>& h, int parallelism) const;

  /// The learned parallelism weight (always <= 0 after Fit).
  double parallelism_weight() const { return w_p_; }

  /// Number of random Fourier features approximating the RBF kernel.
  static constexpr int kRffDim = 96;
  /// RBF bandwidth sigma in k(x,y) = exp(-||x-y||^2 / (2 sigma^2)).
  /// Upstream embeddings are RMS-normalized rows (L2 norm ~ sqrt(dim)), so
  /// typical pairwise distances are O(1); the bandwidth is matched to that.
  static constexpr double kRbfSigma = 2.0;
  /// Inverse regularization strength (paper's C); lambda = 1 / (C * n).
  static constexpr double kC = 30.0;
  static constexpr int kEpochs = 100;
  /// Steepness of the sigmoid mapping margins to probabilities.
  static constexpr double kProbScale = 2.0;
  /// The parallelism feature is the degree divided by this.
  static constexpr double kParallelismScale = 100.0;
  static constexpr uint64_t kSeed = 11;

 private:
  /// Random Fourier feature map z(h), dimension kRffDim.
  std::vector<double> FeatureMap(const std::vector<double>& h) const;

  int embedding_dim_;
  Matrix omega_;                  // kRffDim x embedding_dim projection
  std::vector<double> phase_;     // kRffDim phases
  std::vector<double> w_e_;       // weights on z(h)
  double w_p_ = 0.0;              // weight on parallelism (constrained <= 0)
  double b_ = 0.0;
  bool fitted_ = false;
};

}  // namespace streamtune::ml
