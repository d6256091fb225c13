// Interface for the fine-tuned bottleneck prediction model M_f (Sec. IV-B).
//
// M_f consumes an operator's parallelism-agnostic embedding h plus a
// candidate parallelism degree p and estimates P(bottleneck | h, p).
// Monotonic implementations guarantee this probability is non-increasing in
// p, which Algorithm 2 exploits to binary-search the minimum safe degree.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace streamtune::ml {

/// One fine-tuning training example: (embedding, parallelism) -> label.
struct LabeledSample {
  std::vector<double> embedding;  ///< parallelism-agnostic operator embedding
  int parallelism = 1;            ///< deployed parallelism degree
  int label = 0;                  ///< 1 = bottleneck, 0 = not
};

/// Rejects a training set no M_f family can fit: empty, an embedding whose
/// width is not `embedding_dim` or that holds a NaN/Inf entry, a
/// parallelism below 1, or a label outside {0, 1}. Every Fit calls it
/// first, so no model ever sorts or trains on non-finite values.
Status CheckTrainingSet(const std::vector<LabeledSample>& data,
                        int embedding_dim);

/// Classification model estimating P(operator is a bottleneck | h, p).
class BottleneckModel {
 public:
  virtual ~BottleneckModel() = default;

  /// Fits (or refits) the model on the full dataset. Called once per tuning
  /// iteration, so implementations favour fast retraining over incremental
  /// updates.
  virtual Status Fit(const std::vector<LabeledSample>& data) = 0;

  /// P(bottleneck) for embedding `h` at parallelism `p`.
  virtual double PredictProbability(const std::vector<double>& h,
                                    int parallelism) const = 0;

  /// Classification with a 0.5 threshold.
  bool PredictBottleneck(const std::vector<double>& h, int parallelism) const {
    return PredictProbability(h, parallelism) >= 0.5;
  }

  /// True when PredictProbability is guaranteed non-increasing in p.
  virtual bool is_monotonic() const = 0;

  virtual std::string name() const = 0;
};

}  // namespace streamtune::ml
