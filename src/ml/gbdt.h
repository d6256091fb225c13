// Monotonic gradient-boosted decision trees (Sec. IV-B, model choice (b)).
//
// An XGBoost-style ensemble on logistic loss with exact greedy split search.
// The parallelism feature (the last input column) carries a monotone
// *decreasing* constraint, enforced exactly as the paper describes:
//   - a split on the constrained feature whose tentative child values would
//     violate the ordering (left/low-p value < right/high-p value) has its
//     gain set to -inf, excluding it;
//   - accepted constrained splits propagate [lower, upper] value bounds into
//     the subtrees so every leaf respects the monotone order.
// Since each tree is individually non-increasing in p, the ensemble is too.
//
// Split search is presorted exact greedy (XGBoost's column blocks): Fit
// copies the features once into a feature-major block and sorts each
// feature's row ids once, by (value, row id). Every node owns one position
// range in each sorted list; a split stably partitions the lists so both
// children's ranges stay sorted. A node's scan therefore sums gradients in
// (value, row id) order, and its totals in row-id order, exactly as a
// per-node sort with that comparator would: the trees do not depend on how
// the lists were built.

#pragma once

#include <vector>

#include "ml/bottleneck_model.h"

namespace streamtune::ml {

/// Hyperparameters for MonotonicGbdt.
struct GbdtConfig {
  int num_trees = 40;
  int max_depth = 4;
  double learning_rate = 0.2;
  double reg_lambda = 1.0;      ///< L2 regularization on leaf values
  double min_split_gain = 0.0;  ///< gamma
  double min_child_hessian = 1e-3;
  int min_samples_leaf = 2;
  double parallelism_scale = 100.0;
  /// When false, the monotone constraint is dropped (for ablations/tests).
  bool enforce_monotonic = true;
};

/// Gradient-boosted bottleneck classifier with a monotone-decreasing
/// constraint on the parallelism feature.
class MonotonicGbdt : public BottleneckModel {
 public:
  explicit MonotonicGbdt(int embedding_dim, GbdtConfig config = {});

  Status Fit(const std::vector<LabeledSample>& data) override;
  double PredictProbability(const std::vector<double>& h,
                            int parallelism) const override;
  bool is_monotonic() const override { return config_.enforce_monotonic; }
  std::string name() const override { return "XGBoost"; }

  /// Raw additive score (log-odds of being a bottleneck).
  double PredictLogit(const std::vector<double>& h, int parallelism) const;

  int num_trees_built() const { return static_cast<int>(trees_.size()); }

 private:
  struct TreeNode {
    int feature = -1;        // -1 for leaves
    double threshold = 0.0;  // go left if x[feature] < threshold
    int left = -1, right = -1;
    double value = 0.0;  // leaf value (already shrunk by learning_rate)
  };
  struct Tree {
    std::vector<TreeNode> nodes;
    double Predict(const std::vector<double>& x) const;
  };
  struct FitState;  // one Fit's columns, sorted lists and gradients

  std::vector<double> MakeFeatures(const std::vector<double>& h,
                                   int parallelism) const;
  int BuildNode(Tree* tree, FitState* s, int begin, int end, int depth,
                double lower, double upper);

  int embedding_dim_;
  GbdtConfig config_;
  double base_score_ = 0.0;  // initial log-odds
  std::vector<Tree> trees_;
};

}  // namespace streamtune::ml
