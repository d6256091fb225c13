#include "ml/gbdt.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/math_util.h"

namespace streamtune::ml {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Two doubles in one vector register, through GCC's generic vectors: the
// baseline instruction set, no intrinsics, no -m flags.
typedef double Double2 __attribute__((vector_size(16)));
// The zero pass sums this many Double2 lanes of mask columns per sweep over
// a node's rows, so its accumulators stay in registers; the mask's rows are
// padded to a whole number of sweeps.
constexpr int kSweepVectors = 4;
constexpr int kSweepColumns = 2 * kSweepVectors;

Double2 Load2(const double* p) {
  Double2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Positions [begin, end) of a node's rows in one sorted list.
struct Range {
  int begin = 0, end = 0;
};
}  // namespace

// Everything one Fit works on. It lives on Fit's stack, so concurrent fits
// of different models share nothing.
struct MonotonicGbdt::FitState {
  int n = 0;
  int num_features = 0;
  // Feature-major block: x[f * n + i] is feature f of row i.
  std::vector<double> x;
  // num_features + 1 lists of row ids, list f at list_offset[f]. List
  // f < num_features is sorted by (x[f * n + i], i) and holds every row,
  // except in a column with zeros and no negative entry: there it holds
  // only the nonzero rows, and zero_mask stands for the zero run. The last
  // list holds all n row ids in ascending order. `presorted` is the root
  // state; `order` is the working copy, reset to it for each tree.
  std::vector<size_t> list_offset;
  std::vector<int> presorted;
  std::vector<int> order;
  // Row-major 1.0/0.0 block, mask_stride values per row:
  // zero_mask[i * mask_stride + mask_column[f]] is 1.0 where x[f * n + i]
  // is zero. mask_column[f] is -1 for a column whose list holds every row.
  int mask_stride = 0;
  std::vector<double> zero_mask;
  std::vector<int> mask_column;
  // The current node's zero-run sums of grad and hess, by mask column.
  std::vector<double> zero_grad, zero_hess;
  // ranges[d * (num_features + 1) + f]: the range in list f of the node at
  // depth d on the path being built.
  std::vector<Range> ranges;
  std::vector<double> grad, hess, margin;
  std::vector<char> goes_left;  // per row: the side of the split applied
  std::vector<int> spill;       // right-side rows while partitioning a list

  const int* list(int f) const { return order.data() + list_offset[f]; }
  int* list(int f) { return order.data() + list_offset[f]; }
  const double* column(int f) const { return x.data() + size_t(f) * n; }
  double* column(int f) { return x.data() + size_t(f) * n; }
  Range* level(int depth) {
    return ranges.data() + size_t(depth) * (num_features + 1);
  }

  // Sums grad and hess over the zero rows of every mask column, in row-id
  // order over rows[0, count). A masked-out row adds +-0.0 to a sum that is
  // never -0.0 (it starts at +0.0, and no grad is -0.0), which leaves it
  // unchanged, so each sum equals the zero run's sequential sum bit for bit.
  void SumZeroRuns(const int* rows, int count) {
    for (int c = 0; c < mask_stride; c += kSweepColumns) {
      Double2 g[kSweepVectors] = {}, h[kSweepVectors] = {};
      for (int k = 0; k < count; ++k) {
        const int i = rows[k];
        const double* m = zero_mask.data() + size_t(i) * mask_stride + c;
#pragma GCC unroll kSweepVectors  // keeps g and h in registers at -O2
        for (int v = 0; v < kSweepVectors; ++v) {
          const Double2 mv = Load2(m + 2 * v);
          g[v] += mv * grad[i];
          h[v] += mv * hess[i];
        }
      }
      std::memcpy(zero_grad.data() + c, g, sizeof g);
      std::memcpy(zero_hess.data() + c, h, sizeof h);
    }
  }
};

MonotonicGbdt::MonotonicGbdt(int embedding_dim, GbdtConfig config)
    : embedding_dim_(embedding_dim), config_(config) {
  assert(embedding_dim > 0);
}

std::vector<double> MonotonicGbdt::MakeFeatures(const std::vector<double>& h,
                                                int parallelism) const {
  std::vector<double> x = h;
  x.push_back(parallelism / kParallelismScale);
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

int MonotonicGbdt::BuildNode(Tree* tree, FitState* s, int depth, double lower,
                             double upper) {
  const int num_features = s->num_features;
  const Range* range = s->level(depth);
  const int begin = range[num_features].begin;
  const int end = range[num_features].end;
  const int* rows = s->list(num_features);
  double g_total = 0, h_total = 0;
  for (int k = begin; k < end; ++k) {
    g_total += s->grad[rows[k]];
    h_total += s->hess[rows[k]];
  }
  const double lam = kRegLambda;
  auto leaf_value = [&](double g, double h, double lo, double hi) {
    return Clamp(-g / (h + lam), lo, hi);
  };

  int node_id = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  const double value =
      kLearningRate * leaf_value(g_total, h_total, lower, upper);
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
  // The split between `value` and `next` in feature f, with gl/hl summed
  // over the left_count rows below it. It runs once per candidate, and -O2
  // would not inline a lambda called from two places.
  auto consider = [&](int f, double gl, double hl, int left_count,
                      double value,
                      double next) __attribute__((always_inline)) {
    double gr = g_total - gl, hr = h_total - hl;
    if (hl < kMinChildHessian || hr < kMinChildHessian) return;
    if (left_count < config_.min_samples_leaf ||
        count - left_count < config_.min_samples_leaf) {
      return;
    }
    double gain =
        0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score);
    if (config_.enforce_monotonic && f == p_feature) {
      // Monotone DECREASING in p: left child (smaller p) must not predict
      // a lower value than the right child. Violations get gain = -inf
      // (i.e. are skipped).
      double wl = -gl / (hl + lam);
      double wr = -gr / (hr + lam);
      if (wl < wr) return;
    }
    if (gain > best_gain) {
      best_gain = gain;
      best_feature = f;
      best_threshold = 0.5 * (value + next);
      best_wl = Clamp(-gl / (hl + lam), lower, upper);
      best_wr = Clamp(-gr / (hr + lam), lower, upper);
    }
  };

  s->SumZeroRuns(rows + begin, count);
  for (int f = 0; f < num_features; ++f) {
    const double* xf = s->column(f);
    const int* sorted = s->list(f);
    const int b = range[f].begin, e = range[f].end;
    if (b == e) continue;  // all zero: no boundary
    // The zero run, if any, comes first; its last value is +-0.0, and
    // 0.5 * (+-0.0 + next) is the same threshold either way.
    const int zeros = count - (e - b);
    double gl = 0, hl = 0;
    double next = xf[sorted[b]];
    if (zeros > 0) {
      gl = s->zero_grad[s->mask_column[f]];
      hl = s->zero_hess[s->mask_column[f]];
      consider(f, gl, hl, zeros, 0.0, next);
    }
    if (next == xf[sorted[e - 1]]) continue;  // constant: no boundary inside
    for (int k = b; k + 1 < e; ++k) {
      const int i = sorted[k];
      const double value = next;
      next = xf[sorted[k + 1]];
      gl += s->grad[i];
      hl += s->hess[i];
      // Only split between distinct feature values.
      if (value >= next) continue;
      consider(f, gl, hl, zeros + k + 1 - b, value, next);
    }
  }

  if (best_feature < 0) return make_leaf();  // no admissible split

  // Route each row by the test Tree::Predict applies, then stably partition
  // the lists: left rows first, each side in its old (sorted) order. The
  // children's ranges go to the next level: the left child's now, the
  // right child's once the left subtree is built.
  const double* xb = s->column(best_feature);
  int num_left = 0;
  for (int k = begin; k < end; ++k) {
    const bool left = xb[rows[k]] < best_threshold;
    s->goes_left[rows[k]] = left;
    num_left += left;
  }
  assert(num_left > 0 && num_left < count);
  Range* child = s->level(depth + 1);
  // Children at max_depth are leaves: they read only the row-id list.
  const int first_list = depth + 1 >= config_.max_depth ? num_features : 0;
  for (int f = first_list; f <= num_features; ++f) {
    int* list = s->list(f);
    int kept = range[f].begin, spilled = 0;
    // Branch-free: the sides are random.
    for (int k = range[f].begin; k < range[f].end; ++k) {
      const int i = list[k];
      const int left = s->goes_left[i];
      list[kept] = i;
      s->spill[spilled] = i;
      kept += left;
      spilled += 1 - left;
    }
    std::copy(s->spill.begin(), s->spill.begin() + spilled, list + kept);
    child[f] = {range[f].begin, kept};
  }

  double l_lower = lower, l_upper = upper;
  double r_lower = lower, r_upper = upper;
  if (config_.enforce_monotonic && best_feature == p_feature) {
    // Propagate value bounds: left (small p) stays >= mid, right <= mid.
    double mid = 0.5 * (best_wl + best_wr);
    l_lower = std::max(l_lower, mid);
    r_upper = std::min(r_upper, mid);
  }

  int left = BuildNode(tree, s, depth + 1, l_lower, l_upper);
  for (int f = first_list; f <= num_features; ++f) {
    child[f] = {child[f].end, range[f].end};
  }
  int right = BuildNode(tree, s, depth + 1, r_lower, r_upper);
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
    xp[i] = data[i].parallelism / kParallelismScale;
    y[i] = data[i].label == 1 ? 1.0 : 0.0;
    if (data[i].label == 1) ++positives;
  }
  double w_pos = positives == 0 ? 1.0 : 0.5 * n / positives;
  double w_neg = positives == n ? 1.0 : 0.5 * n / (n - positives);

  double prior = Clamp(static_cast<double>(positives) / n, 0.02, 0.98);
  base_score_ = std::log(prior / (1.0 - prior));

  // A column with zeros and no negative entry lists its nonzero rows only.
  s.mask_column.assign(s.num_features, -1);
  s.list_offset.resize(s.num_features + 2);
  int mask_columns = 0;
  size_t listed = 0;
  for (int f = 0; f < s.num_features; ++f) {
    const double* xf = s.column(f);
    const int zeros = static_cast<int>(std::count(xf, xf + n, 0.0));
    s.list_offset[f] = listed;
    if (zeros > 0 && std::none_of(xf, xf + n, [](double v) { return v < 0; })) {
      s.mask_column[f] = mask_columns++;
      listed += n - zeros;
    } else {
      listed += n;
    }
  }
  s.list_offset[s.num_features] = listed;
  s.list_offset[s.num_features + 1] = listed + n;
  s.mask_stride =
      (mask_columns + kSweepColumns - 1) / kSweepColumns * kSweepColumns;
  s.zero_mask.assign(size_t(n) * s.mask_stride, 0.0);
  s.zero_grad.resize(s.mask_stride);
  s.zero_hess.resize(s.mask_stride);
  s.presorted.resize(s.list_offset[s.num_features + 1]);
  for (int f = 0; f < s.num_features; ++f) {
    const double* xf = s.column(f);
    int* list = s.presorted.data() + s.list_offset[f];
    int* list_end = list;
    for (int i = 0; i < n; ++i) {
      if (s.mask_column[f] < 0 || xf[i] != 0) {
        *list_end++ = i;
      } else {
        s.zero_mask[size_t(i) * s.mask_stride + s.mask_column[f]] = 1.0;
      }
    }
    // Stable on ascending row ids: the order is (value, row id).
    std::stable_sort(list, list_end,
                     [xf](int a, int b) { return xf[a] < xf[b]; });
  }
  int* row_ids = s.presorted.data() + s.list_offset[s.num_features];
  std::iota(row_ids, row_ids + n, 0);
  // The root's ranges; each split writes its children's one level down.
  s.ranges.resize(size_t(std::max(config_.max_depth, 0) + 1) *
                  (s.num_features + 1));
  for (int f = 0; f <= s.num_features; ++f) {
    s.ranges[f] = {0, static_cast<int>(s.list_offset[f + 1] -
                                       s.list_offset[f])};
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
    BuildNode(&tree, &s, 0, -kInf, kInf);
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
