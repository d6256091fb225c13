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

// Everything one Fit works on. It lives on Fit's stack, so concurrent fits
// of different models share nothing.
struct MonotonicGbdt::FitState {
  int n = 0;
  int num_features = 0;
  // Feature-major block: x[f * n + i] is feature f of row i.
  std::vector<double> x;
  // num_features + 1 lists of n row ids each. List f < num_features is
  // sorted by (x[f * n + i], i); the last list holds the row ids in
  // ascending order. `presorted` is the root state; `order` is the working
  // copy, reset to it for each tree. A node owns the same [begin, end)
  // range of every working list.
  std::vector<int> presorted;
  std::vector<int> order;
  std::vector<double> grad, hess, margin;
  std::vector<char> goes_left;  // per row: the side of the split applied
  std::vector<int> spill;       // right-side rows while partitioning a list

  const int* list(int f) const { return order.data() + size_t(f) * n; }
  int* list(int f) { return order.data() + size_t(f) * n; }
  const double* column(int f) const { return x.data() + size_t(f) * n; }
  double* column(int f) { return x.data() + size_t(f) * n; }
};

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

int MonotonicGbdt::BuildNode(Tree* tree, FitState* s, int begin, int end,
                             int depth, double lower, double upper) {
  const int num_features = s->num_features;
  const int* rows = s->list(num_features);
  double g_total = 0, h_total = 0;
  for (int k = begin; k < end; ++k) {
    g_total += s->grad[rows[k]];
    h_total += s->hess[rows[k]];
  }
  const double lam = config_.reg_lambda;
  auto leaf_value = [&](double g, double h, double lo, double hi) {
    return Clamp(-g / (h + lam), lo, hi);
  };

  int node_id = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  const double value =
      config_.learning_rate * leaf_value(g_total, h_total, lower, upper);
  tree->nodes[node_id].value = value;
  auto make_leaf = [&] {
    for (int k = begin; k < end; ++k) s->margin[rows[k]] += value;
    return node_id;
  };

  const int count = end - begin;
  // A split needs two rows, and min_samples_leaf of them on each side.
  if (depth >= config_.max_depth || count < 2 ||
      count < 2 * config_.min_samples_leaf) {
    return make_leaf();
  }

  const int p_feature = num_features - 1;  // constrained feature

  double parent_score = g_total * g_total / (h_total + lam);
  double best_gain = config_.min_split_gain;
  int best_feature = -1;
  double best_threshold = 0;
  double best_wl = 0, best_wr = 0;

  for (int f = 0; f < num_features; ++f) {
    const double* xf = s->column(f);
    const int* sorted = s->list(f);
    double gl = 0, hl = 0;
    double next = xf[sorted[begin]];
    for (int k = begin; k + 1 < end; ++k) {
      const int i = sorted[k];
      const double value = next;
      next = xf[sorted[k + 1]];
      gl += s->grad[i];
      hl += s->hess[i];
      // Only split between distinct feature values.
      if (value >= next) continue;
      double gr = g_total - gl, hr = h_total - hl;
      if (hl < config_.min_child_hessian || hr < config_.min_child_hessian) {
        continue;
      }
      const int left_count = k + 1 - begin;
      if (left_count < config_.min_samples_leaf ||
          count - left_count < config_.min_samples_leaf) {
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
        best_threshold = 0.5 * (value + next);
        best_wl = Clamp(-gl / (hl + lam), lower, upper);
        best_wr = Clamp(-gr / (hr + lam), lower, upper);
      }
    }
  }

  if (best_feature < 0) return make_leaf();  // no admissible split

  // Route each row by the test Tree::Predict applies, then stably partition
  // the lists: left rows first, each side in its old (sorted) order.
  const double* xb = s->column(best_feature);
  int num_left = 0;
  for (int k = begin; k < end; ++k) {
    const bool left = xb[rows[k]] < best_threshold;
    s->goes_left[rows[k]] = left;
    num_left += left;
  }
  assert(num_left > 0 && num_left < count);
  // Children at max_depth are leaves: they read only the row-id list.
  const int first_list = depth + 1 >= config_.max_depth ? num_features : 0;
  for (int f = first_list; f <= num_features; ++f) {
    int* list = s->list(f);
    int kept = begin, spilled = 0;
    for (int k = begin; k < end; ++k) {  // branch-free: sides are random
      const int i = list[k];
      const int left = s->goes_left[i];
      list[kept] = i;
      s->spill[spilled] = i;
      kept += left;
      spilled += 1 - left;
    }
    std::copy(s->spill.begin(), s->spill.begin() + spilled, list + kept);
  }

  double l_lower = lower, l_upper = upper;
  double r_lower = lower, r_upper = upper;
  if (config_.enforce_monotonic && best_feature == p_feature) {
    // Propagate value bounds: left (small p) stays >= mid, right <= mid.
    double mid = 0.5 * (best_wl + best_wr);
    l_lower = std::max(l_lower, mid);
    r_upper = std::min(r_upper, mid);
  }

  const int mid_pos = begin + num_left;
  int left = BuildNode(tree, s, begin, mid_pos, depth + 1, l_lower, l_upper);
  int right = BuildNode(tree, s, mid_pos, end, depth + 1, r_lower, r_upper);
  tree->nodes[node_id].feature = best_feature;
  tree->nodes[node_id].threshold = best_threshold;
  tree->nodes[node_id].left = left;
  tree->nodes[node_id].right = right;
  return node_id;
}

Status MonotonicGbdt::Fit(const std::vector<LabeledSample>& data) {
  ST_RETURN_NOT_OK(CheckTrainingSet(data, embedding_dim_));
  const int n = static_cast<int>(data.size());
  FitState s;
  s.n = n;
  s.num_features = embedding_dim_ + 1;
  s.x.resize(size_t(s.num_features) * n);
  for (int f = 0; f < embedding_dim_; ++f) {
    double* xf = s.column(f);
    for (int i = 0; i < n; ++i) xf[i] = data[i].embedding[f];
  }
  double* xp = s.column(embedding_dim_);  // the parallelism feature
  std::vector<double> y(n);
  int positives = 0;
  for (int i = 0; i < n; ++i) {
    xp[i] = data[i].parallelism / config_.parallelism_scale;
    y[i] = data[i].label == 1 ? 1.0 : 0.0;
    if (data[i].label == 1) ++positives;
  }
  double w_pos = positives == 0 ? 1.0 : 0.5 * n / positives;
  double w_neg = positives == n ? 1.0 : 0.5 * n / (n - positives);

  double prior = Clamp(static_cast<double>(positives) / n, 0.02, 0.98);
  base_score_ = std::log(prior / (1.0 - prior));

  s.presorted.resize(size_t(s.num_features + 1) * n);
  for (int f = 0; f <= s.num_features; ++f) {
    int* list = s.presorted.data() + size_t(f) * n;
    std::iota(list, list + n, 0);
    if (f == s.num_features) break;  // the row-id list
    const double* xf = s.column(f);
    // Stable on ascending row ids: the order is (value, row id).
    std::stable_sort(list, list + n,
                     [xf](int a, int b) { return xf[a] < xf[b]; });
  }
  s.margin.assign(n, base_score_);
  s.grad.resize(n);
  s.hess.resize(n);
  s.goes_left.resize(n);
  s.spill.resize(n);

  trees_.clear();
  for (int m = 0; m < config_.num_trees; ++m) {
    for (int i = 0; i < n; ++i) {
      double sig = Sigmoid(s.margin[i]);
      double w = y[i] > 0.5 ? w_pos : w_neg;
      s.grad[i] = w * (sig - y[i]);
      s.hess[i] = std::max(w * sig * (1.0 - sig), 1e-9);
    }
    s.order = s.presorted;
    Tree tree;
    // Each leaf adds its value to the margins of its rows.
    BuildNode(&tree, &s, 0, n, 0, -kInf, kInf);
    trees_.push_back(std::move(tree));
  }
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
