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
//
// The search is sparsity-aware (XGBoost's sparse split finding). Most
// embedding columns are ReLU outputs: mostly exact zeros, never negative.
// In a column with no negative entry (-0.0 counts as zero), the zero rows
// are the first run of the (value, row id) order, in row-id order, so the
// column's list holds only its nonzero rows and each node sums its zero run
// directly: one row-major pass over the node's row ids accumulates
// mask * grad and mask * hess for every such column at once, with a 1.0/0.0
// mask. That is exact: a masked-out row adds +-0.0, which leaves the running
// sum unchanged, so each sum is the zero run's prefix sum in row-id order,
// bit for bit. The scan starts from it, evaluates the zero->nonzero
// boundary, then continues over the nonzero rows; a column with a negative
// entry lists every row and has an empty zero run.
//
// The search is split by column block (XGBoost's column blocks again) and
// runs on T threads that share one fit state. The sparse columns go in
// blocks of eight, which share one zero-pass sweep; each other column is a
// block of its own. Each block has a home thread, dealt by cost. The trees
// grow level by level as phases of independent items: a level's items are
// (split parent, block) pairs, each of which stably partitions the block's
// lists by the parent's split and scans them at each child that may split,
// writing one best candidate per (child, feature). A thread claims its home
// items first, then steals any other thread's, so no level waits for a
// thread that has claimed nothing. Between phases the calling thread alone
// reduces each node's candidates in feature order with a strict >, which
// keeps the serial scan's first-best tie break, routes the rows, partitions
// the row ids and sums the children's totals in row-id order. The scan of
// each feature is the serial one, so the trees are the same for every T and
// every claim order. T is derived, never set: the CPUs in the process's
// affinity mask, at most 4; 1 below 256 rows or inside a ThreadPool task.

#pragma once

#include <vector>

#include "ml/bottleneck_model.h"

namespace streamtune::ml {

/// Hyperparameters for MonotonicGbdt.
struct GbdtConfig {
  int num_trees = 40;
  int max_depth = 4;
  double min_split_gain = 0.0;  ///< gamma
  int min_samples_leaf = 2;
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
  /// Threads the last Fit grew its trees on; 1 when it ran on the calling
  /// thread alone.
  int fit_threads() const { return fit_threads_; }

  /// Shrinkage applied to every leaf value.
  static constexpr double kLearningRate = 0.2;
  /// L2 regularization on leaf values.
  static constexpr double kRegLambda = 1.0;
  /// A split needs at least this hessian sum on each side.
  static constexpr double kMinChildHessian = 1e-3;
  /// The parallelism feature is the degree divided by this.
  static constexpr double kParallelismScale = 100.0;

 private:
  struct TreeNode {
    int feature = -1;        // -1 for leaves
    double threshold = 0.0;  // go left if x[feature] < threshold
    int left = -1, right = -1;
    double value = 0.0;  // leaf value (already shrunk by kLearningRate)
  };
  struct Tree {
    std::vector<TreeNode> nodes;
    double Predict(const std::vector<double>& x) const;
  };
  struct FitState;  // one Fit's lists, blocks, queues and helper threads

  std::vector<double> MakeFeatures(const std::vector<double>& h,
                                   int parallelism) const;
  // Grows every tree of trees_ over the presorted `s`: the serial step of
  // each level here, the phases of items on all of s's threads.
  void GrowTrees(FitState* s);

  int embedding_dim_;
  GbdtConfig config_;
  double base_score_ = 0.0;  // initial log-odds
  int fit_threads_ = 0;
  std::vector<Tree> trees_;
};

}  // namespace streamtune::ml
