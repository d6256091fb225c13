#include "ml/gbdt.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/math_util.h"

namespace streamtune::ml {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

MonotonicGbdt::MonotonicGbdt(int embedding_dim, GbdtConfig config)
    : embedding_dim_(embedding_dim), config_(config) {
  assert(embedding_dim > 0);
}

std::vector<double> MonotonicGbdt::MakeFeatures(const std::vector<double>& h,
                                                int parallelism) const {
  std::vector<double> x = h;
  x.push_back(parallelism / config_.parallelism_scale);
  return x;
}

double MonotonicGbdt::Tree::Predict(const std::vector<double>& x) const {
  int node = 0;
  while (nodes[node].feature >= 0) {
    node = x[nodes[node].feature] < nodes[node].threshold ? nodes[node].left
                                                          : nodes[node].right;
  }
  return nodes[node].value;
}

int MonotonicGbdt::BuildNode(Tree* tree,
                             const std::vector<std::vector<double>>& x,
                             const std::vector<double>& grad,
                             const std::vector<double>& hess,
                             const std::vector<int>& indices, int depth,
                             double lower, double upper) {
  double g_total = 0, h_total = 0;
  for (int i : indices) {
    g_total += grad[i];
    h_total += hess[i];
  }
  const double lam = config_.reg_lambda;
  auto leaf_value = [&](double g, double h, double lo, double hi) {
    return Clamp(-g / (h + lam), lo, hi);
  };

  int node_id = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  tree->nodes[node_id].value =
      config_.learning_rate * leaf_value(g_total, h_total, lower, upper);

  if (depth >= config_.max_depth ||
      static_cast<int>(indices.size()) < 2 * config_.min_samples_leaf) {
    return node_id;
  }

  const int num_features = static_cast<int>(x[0].size());
  const int p_feature = num_features - 1;  // constrained feature

  double parent_score = g_total * g_total / (h_total + lam);
  double best_gain = config_.min_split_gain;
  int best_feature = -1;
  double best_threshold = 0;
  double best_wl = 0, best_wr = 0;

  std::vector<int> sorted = indices;
  for (int f = 0; f < num_features; ++f) {
    std::sort(sorted.begin(), sorted.end(),
              [&](int a, int b) { return x[a][f] < x[b][f]; });
    double gl = 0, hl = 0;
    for (size_t k = 0; k + 1 < sorted.size(); ++k) {
      int i = sorted[k];
      gl += grad[i];
      hl += hess[i];
      // Only split between distinct feature values.
      if (x[sorted[k]][f] >= x[sorted[k + 1]][f]) continue;
      double gr = g_total - gl, hr = h_total - hl;
      if (hl < config_.min_child_hessian || hr < config_.min_child_hessian) {
        continue;
      }
      if (static_cast<int>(k + 1) < config_.min_samples_leaf ||
          static_cast<int>(sorted.size() - k - 1) < config_.min_samples_leaf) {
        continue;
      }
      double gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) -
                           parent_score);
      if (config_.enforce_monotonic && f == p_feature) {
        // Monotone DECREASING in p: left child (smaller p) must not predict
        // a lower value than the right child. Violations get gain = -inf
        // (i.e. are skipped).
        double wl = -gl / (hl + lam);
        double wr = -gr / (hr + lam);
        if (wl < wr) continue;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5 * (x[sorted[k]][f] + x[sorted[k + 1]][f]);
        best_wl = Clamp(-gl / (hl + lam), lower, upper);
        best_wr = Clamp(-gr / (hr + lam), lower, upper);
      }
    }
  }

  if (best_feature < 0) return node_id;  // no admissible split

  std::vector<int> left_idx, right_idx;
  for (int i : indices) {
    (x[i][best_feature] < best_threshold ? left_idx : right_idx).push_back(i);
  }
  assert(!left_idx.empty() && !right_idx.empty());

  double l_lower = lower, l_upper = upper;
  double r_lower = lower, r_upper = upper;
  if (config_.enforce_monotonic && best_feature == p_feature) {
    // Propagate value bounds: left (small p) stays >= mid, right <= mid.
    double mid = 0.5 * (best_wl + best_wr);
    l_lower = std::max(l_lower, mid);
    r_upper = std::min(r_upper, mid);
  }

  int left = BuildNode(tree, x, grad, hess, left_idx, depth + 1, l_lower,
                       l_upper);
  int right = BuildNode(tree, x, grad, hess, right_idx, depth + 1, r_lower,
                        r_upper);
  tree->nodes[node_id].feature = best_feature;
  tree->nodes[node_id].threshold = best_threshold;
  tree->nodes[node_id].left = left;
  tree->nodes[node_id].right = right;
  return node_id;
}

Status MonotonicGbdt::Fit(const std::vector<LabeledSample>& data) {
  ST_RETURN_NOT_OK(CheckTrainingSet(data, embedding_dim_));
  const size_t n = data.size();
  std::vector<std::vector<double>> x(n);
  std::vector<double> y(n);
  size_t positives = 0;
  for (size_t i = 0; i < n; ++i) {
    x[i] = MakeFeatures(data[i].embedding, data[i].parallelism);
    y[i] = data[i].label == 1 ? 1.0 : 0.0;
    if (data[i].label == 1) ++positives;
  }
  double w_pos = positives == 0 ? 1.0 : 0.5 * n / positives;
  double w_neg = positives == n ? 1.0 : 0.5 * n / (n - positives);

  double prior = Clamp(static_cast<double>(positives) / n, 0.02, 0.98);
  base_score_ = std::log(prior / (1.0 - prior));

  trees_.clear();
  std::vector<double> margin(n, base_score_);
  std::vector<double> grad(n), hess(n);
  std::vector<int> all(n);
  std::iota(all.begin(), all.end(), 0);

  for (int m = 0; m < config_.num_trees; ++m) {
    for (size_t i = 0; i < n; ++i) {
      double s = Sigmoid(margin[i]);
      double w = y[i] > 0.5 ? w_pos : w_neg;
      grad[i] = w * (s - y[i]);
      hess[i] = std::max(w * s * (1.0 - s), 1e-9);
    }
    Tree tree;
    BuildNode(&tree, x, grad, hess, all, 0, -kInf, kInf);
    for (size_t i = 0; i < n; ++i) margin[i] += tree.Predict(x[i]);
    trees_.push_back(std::move(tree));
  }
  fitted_ = true;
  return Status::OK();
}

double MonotonicGbdt::PredictLogit(const std::vector<double>& h,
                                   int parallelism) const {
  std::vector<double> x = MakeFeatures(h, parallelism);
  double s = base_score_;
  for (const Tree& t : trees_) s += t.Predict(x);
  return s;
}

double MonotonicGbdt::PredictProbability(const std::vector<double>& h,
                                         int parallelism) const {
  return Sigmoid(PredictLogit(h, parallelism));
}

}  // namespace streamtune::ml
