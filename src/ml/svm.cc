#include "ml/svm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "common/math_util.h"

namespace streamtune::ml {

MonotonicSvm::MonotonicSvm(int embedding_dim)
    : embedding_dim_(embedding_dim) {
  assert(embedding_dim > 0);
  Rng rng(kSeed);
  // RFF for RBF: omega rows ~ N(0, 1/sigma^2), phase ~ U[0, 2pi).
  omega_ = Matrix(kRffDim, embedding_dim_);
  for (double& v : omega_.data()) {
    v = rng.Normal(0.0, 1.0 / kRbfSigma);
  }
  phase_.resize(kRffDim);
  for (double& p : phase_) p = rng.Uniform(0.0, 6.283185307179586);
  w_e_.assign(kRffDim, 0.0);
}

std::vector<double> MonotonicSvm::FeatureMap(
    const std::vector<double>& h) const {
  assert(static_cast<int>(h.size()) == embedding_dim_);
  std::vector<double> z(kRffDim);
  double scale = std::sqrt(2.0 / kRffDim);
  for (int i = 0; i < kRffDim; ++i) {
    double dot = phase_[i];
    for (int j = 0; j < embedding_dim_; ++j) dot += omega_.at(i, j) * h[j];
    z[i] = scale * std::cos(dot);
  }
  return z;
}

Status MonotonicSvm::Fit(const std::vector<LabeledSample>& data) {
  ST_RETURN_NOT_OK(CheckTrainingSet(data, embedding_dim_));

  const size_t n = data.size();
  std::vector<std::vector<double>> z(n);
  std::vector<double> pf(n);  // scaled parallelism feature
  std::vector<double> y(n);   // +1 bottleneck / -1 not
  size_t positives = 0;
  for (size_t i = 0; i < n; ++i) {
    z[i] = FeatureMap(data[i].embedding);
    pf[i] = data[i].parallelism / kParallelismScale;
    y[i] = data[i].label == 1 ? 1.0 : -1.0;
    if (data[i].label == 1) ++positives;
  }

  // Class weights to counter label imbalance (bottlenecks are the
  // minority). The ratio is capped: the decision boundary must stay near
  // the samples bracketing each operator's threshold, and an unbounded
  // minority weight would push it far past the last observed bottleneck.
  double w_pos = positives == 0 ? 1.0 : 0.5 * n / positives;
  double w_neg = positives == n ? 1.0 : 0.5 * n / (n - positives);
  constexpr double kMaxClassWeightRatio = 2.0;
  if (w_pos > kMaxClassWeightRatio * w_neg) {
    w_pos = kMaxClassWeightRatio * w_neg;
  }
  if (w_neg > kMaxClassWeightRatio * w_pos) {
    w_neg = kMaxClassWeightRatio * w_pos;
  }

  std::fill(w_e_.begin(), w_e_.end(), 0.0);
  w_p_ = -0.5;  // start inside the feasible region
  b_ = 0.0;

  const double lambda = 1.0 / (kC * static_cast<double>(n));
  Rng rng(kSeed ^ 0xabcdef);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  // Adaptive epoch count: Pegasos needs a number of *steps*, not passes;
  // large datasets converge in proportionally fewer passes.
  int epochs = kEpochs;
  if (n > 500) {
    epochs = std::max(20, static_cast<int>(kEpochs * 500 / n));
  }
  size_t t = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t idx : order) {
      ++t;
      double eta = 1.0 / (lambda * static_cast<double>(t));
      eta = std::min(eta, 10.0);  // cap the early steps
      double f = b_ + w_p_ * pf[idx];
      for (int j = 0; j < kRffDim; ++j) f += w_e_[j] * z[idx][j];

      double cw = y[idx] > 0 ? w_pos : w_neg;
      double shrink = 1.0 - eta * lambda;
      for (double& w : w_e_) w *= shrink;
      w_p_ *= shrink;
      if (y[idx] * f < 1.0) {
        double step = eta * cw * y[idx];
        for (int j = 0; j < kRffDim; ++j) {
          w_e_[j] += step * z[idx][j];
        }
        w_p_ += step * pf[idx];
        b_ += 0.1 * step;  // unregularized bias, damped
      }
      // Projection onto the feasible set {w_p <= 0} (Eq. 5 constraint).
      w_p_ = std::min(w_p_, 0.0);
    }
  }
  fitted_ = true;
  return Status::OK();
}

double MonotonicSvm::DecisionValue(const std::vector<double>& h,
                                   int parallelism) const {
  std::vector<double> z = FeatureMap(h);
  double f = b_ + w_p_ * (parallelism / kParallelismScale);
  for (int j = 0; j < kRffDim; ++j) f += w_e_[j] * z[j];
  return f;
}

double MonotonicSvm::PredictProbability(const std::vector<double>& h,
                                        int parallelism) const {
  return Sigmoid(kProbScale * DecisionValue(h, parallelism));
}

}  // namespace streamtune::ml
