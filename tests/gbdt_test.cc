#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/math_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/gbdt.h"

namespace streamtune::ml {
namespace {

std::vector<LabeledSample> ThresholdDataset(int n, Rng* rng) {
  std::vector<LabeledSample> data;
  for (int i = 0; i < n; ++i) {
    double knob = rng->Uniform();
    double threshold = 10 + 40 * knob;
    LabeledSample s;
    s.embedding = {knob, rng->Uniform(), rng->Uniform(), rng->Uniform()};
    s.parallelism = rng->UniformInt(1, 60);
    s.label = s.parallelism < threshold ? 1 : 0;
    data.push_back(std::move(s));
  }
  return data;
}

TEST(GbdtTest, RejectsBadInput) {
  MonotonicGbdt gbdt(4);
  EXPECT_FALSE(gbdt.Fit({}).ok());
  LabeledSample bad;
  bad.embedding = {1.0, 2.0};
  EXPECT_FALSE(gbdt.Fit({bad}).ok());
}

TEST(GbdtTest, LearnsThresholdTask) {
  Rng rng(42);
  auto data = ThresholdDataset(500, &rng);
  MonotonicGbdt gbdt(4);
  ASSERT_TRUE(gbdt.Fit(data).ok());
  EXPECT_EQ(gbdt.num_trees_built(), GbdtConfig{}.num_trees);
  auto test = ThresholdDataset(200, &rng);
  int correct = 0;
  for (const auto& s : test) {
    if (gbdt.PredictBottleneck(s.embedding, s.parallelism) ==
        (s.label == 1)) {
      ++correct;
    }
  }
  EXPECT_GT(correct, 165) << "accuracy " << correct / 200.0;
}

// Property: the ensemble is non-increasing in the parallelism feature for
// arbitrary embeddings — the constraint must hold off-distribution too.
class GbdtMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(GbdtMonotonicityTest, LogitNonIncreasingInParallelism) {
  Rng rng(200 + GetParam());
  MonotonicGbdt gbdt(4);
  ASSERT_TRUE(gbdt.Fit(ThresholdDataset(300, &rng)).ok());
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> h{rng.Uniform(), rng.Uniform(), rng.Uniform(),
                          rng.Uniform()};
    double prev = gbdt.PredictLogit(h, 1);
    for (int p = 2; p <= 100; ++p) {
      double cur = gbdt.PredictLogit(h, p);
      EXPECT_LE(cur, prev + 1e-9) << "p=" << p << " trial=" << trial;
      prev = cur;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GbdtMonotonicityTest,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(GbdtTest, UnconstrainedModelCanViolateMonotonicity) {
  // Adversarial dataset: bottlenecks at HIGH parallelism (inverted world).
  // The unconstrained model should follow the data; the constrained one
  // cannot.
  Rng rng(31);
  std::vector<LabeledSample> data;
  for (int i = 0; i < 300; ++i) {
    LabeledSample s;
    s.embedding = {rng.Uniform(), rng.Uniform(), rng.Uniform(),
                   rng.Uniform()};
    s.parallelism = rng.UniformInt(1, 60);
    s.label = s.parallelism > 30 ? 1 : 0;  // inverted
    data.push_back(std::move(s));
  }
  GbdtConfig free_cfg;
  free_cfg.enforce_monotonic = false;
  MonotonicGbdt unconstrained(4, free_cfg);
  ASSERT_TRUE(unconstrained.Fit(data).ok());
  EXPECT_FALSE(unconstrained.is_monotonic());
  std::vector<double> h{0.5, 0.5, 0.5, 0.5};
  // Unconstrained follows the inverted data.
  EXPECT_GT(unconstrained.PredictLogit(h, 55),
            unconstrained.PredictLogit(h, 5));

  MonotonicGbdt constrained(4);
  ASSERT_TRUE(constrained.Fit(data).ok());
  EXPECT_TRUE(constrained.is_monotonic());
  // Constrained refuses to increase with p even on inverted data.
  double prev = constrained.PredictLogit(h, 1);
  for (int p = 2; p <= 60; ++p) {
    double cur = constrained.PredictLogit(h, p);
    EXPECT_LE(cur, prev + 1e-9);
    prev = cur;
  }
}

TEST(GbdtTest, SingleClassDataIsStable) {
  Rng rng(33);
  auto data = ThresholdDataset(100, &rng);
  for (auto& s : data) s.label = 1;
  MonotonicGbdt gbdt(4);
  ASSERT_TRUE(gbdt.Fit(data).ok());
  std::vector<double> h{0.5, 0.5, 0.5, 0.5};
  EXPECT_GT(gbdt.PredictProbability(h, 10), 0.5);
}

TEST(GbdtTest, RefitReplacesModel) {
  Rng rng(35);
  MonotonicGbdt gbdt(4);
  ASSERT_TRUE(gbdt.Fit(ThresholdDataset(100, &rng)).ok());
  int trees_before = gbdt.num_trees_built();
  ASSERT_TRUE(gbdt.Fit(ThresholdDataset(100, &rng)).ok());
  EXPECT_EQ(gbdt.num_trees_built(), trees_before);  // replaced, not appended
}

TEST(GbdtTest, DepthLimitRespected) {
  // With max_depth 1 the trees are stumps; prediction must still work.
  GbdtConfig cfg;
  cfg.max_depth = 1;
  cfg.num_trees = 10;
  Rng rng(37);
  MonotonicGbdt gbdt(4, cfg);
  ASSERT_TRUE(gbdt.Fit(ThresholdDataset(200, &rng)).ok());
  std::vector<double> h{0.5, 0.5, 0.5, 0.5};
  double p = gbdt.PredictProbability(h, 10);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

// ---------------------------------------------------------------------------
// Presorted fit vs. a per-node-sort reference.
//
// ReferenceGbdt is the plain exact-greedy fit: every node copies its row
// list and sorts it per feature by (value, row id). MonotonicGbdt presorts
// once per Fit, partitions down the tree and sums the zero run of each
// column without negative entries apart from its list; both must build the
// same trees, so their logits must agree bit for bit.

class ReferenceGbdt {
 public:
  ReferenceGbdt(int embedding_dim, GbdtConfig config)
      : embedding_dim_(embedding_dim), config_(config) {}

  void Fit(const std::vector<LabeledSample>& data) {
    const size_t n = data.size();
    std::vector<std::vector<double>> x(n);
    std::vector<double> y(n);
    size_t positives = 0;
    for (size_t i = 0; i < n; ++i) {
      x[i] = Features(data[i].embedding, data[i].parallelism);
      y[i] = data[i].label == 1 ? 1.0 : 0.0;
      if (data[i].label == 1) ++positives;
    }
    double w_pos = positives == 0 ? 1.0 : 0.5 * n / positives;
    double w_neg = positives == n ? 1.0 : 0.5 * n / (n - positives);
    double prior = Clamp(static_cast<double>(positives) / n, 0.02, 0.98);
    base_score_ = std::log(prior / (1.0 - prior));
    trees_.clear();
    std::vector<double> margin(n, base_score_), grad(n), hess(n);
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
      for (size_t i = 0; i < n; ++i) margin[i] += Predict(tree, x[i]);
      trees_.push_back(std::move(tree));
    }
  }

  double PredictLogit(const std::vector<double>& h, int parallelism) const {
    std::vector<double> x = Features(h, parallelism);
    double s = base_score_;
    for (const Tree& t : trees_) s += Predict(t, x);
    return s;
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Node {
    int feature = -1;
    double threshold = 0;
    int left = -1, right = -1;
    double value = 0;
  };
  using Tree = std::vector<Node>;

  std::vector<double> Features(const std::vector<double>& h, int p) const {
    std::vector<double> x = h;
    x.push_back(p / MonotonicGbdt::kParallelismScale);
    return x;
  }

  static double Predict(const Tree& t, const std::vector<double>& x) {
    int node = 0;
    while (t[node].feature >= 0) {
      node = x[t[node].feature] < t[node].threshold ? t[node].left
                                                    : t[node].right;
    }
    return t[node].value;
  }

  int BuildNode(Tree* tree, const std::vector<std::vector<double>>& x,
                const std::vector<double>& grad,
                const std::vector<double>& hess,
                const std::vector<int>& indices, int depth, double lower,
                double upper) {
    double g_total = 0, h_total = 0;
    for (int i : indices) {
      g_total += grad[i];
      h_total += hess[i];
    }
    const double lam = MonotonicGbdt::kRegLambda;
    int node_id = static_cast<int>(tree->size());
    tree->emplace_back();
    (*tree)[node_id].value =
        MonotonicGbdt::kLearningRate *
        Clamp(-g_total / (h_total + lam), lower, upper);
    if (depth >= config_.max_depth ||
        static_cast<int>(indices.size()) < 2 * config_.min_samples_leaf) {
      return node_id;
    }
    const int num_features = embedding_dim_ + 1;
    double parent_score = g_total * g_total / (h_total + lam);
    double best_gain = config_.min_split_gain;
    int best_feature = -1;
    double best_threshold = 0, best_wl = 0, best_wr = 0;
    std::vector<int> sorted = indices;
    for (int f = 0; f < num_features; ++f) {
      std::sort(sorted.begin(), sorted.end(), [&](int a, int b) {
        return x[a][f] < x[b][f] || (x[a][f] == x[b][f] && a < b);
      });
      double gl = 0, hl = 0;
      for (size_t k = 0; k + 1 < sorted.size(); ++k) {
        gl += grad[sorted[k]];
        hl += hess[sorted[k]];
        if (x[sorted[k]][f] >= x[sorted[k + 1]][f]) continue;
        double gr = g_total - gl, hr = h_total - hl;
        if (hl < MonotonicGbdt::kMinChildHessian ||
            hr < MonotonicGbdt::kMinChildHessian) {
          continue;
        }
        if (static_cast<int>(k + 1) < config_.min_samples_leaf ||
            static_cast<int>(sorted.size() - k - 1) <
                config_.min_samples_leaf) {
          continue;
        }
        double gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) -
                             parent_score);
        if (config_.enforce_monotonic && f == num_features - 1 &&
            -gl / (hl + lam) < -gr / (hr + lam)) {
          continue;
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
    if (best_feature < 0) return node_id;
    std::vector<int> left_idx, right_idx;
    for (int i : indices) {
      (x[i][best_feature] < best_threshold ? left_idx : right_idx)
          .push_back(i);
    }
    double l_lower = lower, l_upper = upper, r_lower = lower, r_upper = upper;
    if (config_.enforce_monotonic && best_feature == num_features - 1) {
      double mid = 0.5 * (best_wl + best_wr);
      l_lower = std::max(l_lower, mid);
      r_upper = std::min(r_upper, mid);
    }
    int left = BuildNode(tree, x, grad, hess, left_idx, depth + 1, l_lower,
                         l_upper);
    int right = BuildNode(tree, x, grad, hess, right_idx, depth + 1, r_lower,
                          r_upper);
    (*tree)[node_id].feature = best_feature;
    (*tree)[node_id].threshold = best_threshold;
    (*tree)[node_id].left = left;
    (*tree)[node_id].right = right;
    return node_id;
  }

  int embedding_dim_;
  GbdtConfig config_;
  double base_score_ = 0;
  std::vector<Tree> trees_;
};

enum class Labels { kThreshold, kAllPositive, kAllNegative };

// How FoldShapedRows draws embedding entries.
enum class Shape {
  // One of `levels` values in [0, 1): zero one time in `levels`.
  kLevels,
  // ReLU outputs, as M_f sees them: 70% exact zeros, a quarter of them
  // -0.0, else one of `levels` positive values. Column 0 is all zero, half
  // of it -0.0.
  kRelu,
  // kRelu, but the nonzero entries of every third column (1, 4, ...) are
  // negated half the time, so those columns hold zeros between negative and
  // positive values.
  kReluWithNegatives,
};

struct FitCase {
  const char* name;
  int rows;       // training-set size
  int dim;        // embedding width
  int levels;     // distinct values per embedding entry
  bool constant_column;
  Labels labels;
  GbdtConfig config;
  Shape shape = Shape::kLevels;
};

GbdtConfig Config(bool monotone, int max_depth, int min_samples_leaf,
                  double min_split_gain = 0.0) {
  GbdtConfig cfg;
  cfg.enforce_monotonic = monotone;
  cfg.max_depth = max_depth;
  cfg.min_samples_leaf = min_samples_leaf;
  cfg.min_split_gain = min_split_gain;
  return cfg;
}

// One embedding entry of column d in shape `shape`.
double DrawEntry(Shape shape, int d, int levels, Rng* rng) {
  if (shape == Shape::kLevels) {
    return rng->UniformInt(0, levels - 1) / static_cast<double>(levels);
  }
  if (rng->Bernoulli(0.7)) return rng->Bernoulli(0.25) ? -0.0 : 0.0;
  const double v = rng->UniformInt(1, levels) / static_cast<double>(levels);
  if (shape == Shape::kReluWithNegatives && d % 3 == 1 &&
      rng->Bernoulli(0.5)) {
    return -v;
  }
  return v;
}

// Rows in the session fold's shape: every observation is pushed three times,
// plus one sample induced by monotonicity (bottleneck at p => at p/2; clean
// at p => clean at 2p). Embedding entries take few distinct values (see
// Shape), so nearly every feature is full of ties.
std::vector<LabeledSample> FoldShapedRows(const FitCase& c, Rng* rng) {
  std::vector<LabeledSample> rows;
  while (static_cast<int>(rows.size()) < c.rows) {
    LabeledSample s;
    for (int d = 0; d < c.dim; ++d) {
      s.embedding.push_back(DrawEntry(c.shape, d, c.levels, rng));
    }
    if (c.shape != Shape::kLevels) {
      s.embedding[0] = rng->Bernoulli(0.5) ? -0.0 : 0.0;
    }
    if (c.constant_column) s.embedding[0] = 0.5;
    s.parallelism = rng->UniformInt(1, 12) * 8;
    const double threshold = 20 + 60 * s.embedding[c.dim - 1];
    switch (c.labels) {
      case Labels::kThreshold:
        s.label = s.parallelism < threshold ? 1 : 0;
        break;
      case Labels::kAllPositive:
        s.label = 1;
        break;
      case Labels::kAllNegative:
        s.label = 0;
        break;
    }
    LabeledSample induced = s;
    induced.parallelism =
        s.label == 1 ? std::max(1, s.parallelism / 2) : 2 * s.parallelism;
    for (const LabeledSample* r : {&s, &s, &s, &induced}) {
      if (static_cast<int>(rows.size()) < c.rows) rows.push_back(*r);
    }
  }
  return rows;
}

void PrintTo(const FitCase& c, std::ostream* os) { *os << c.name; }

class GbdtPresortedTest : public ::testing::TestWithParam<FitCase> {};

TEST_P(GbdtPresortedTest, LogitsMatchPerNodeSortBitForBit) {
  const FitCase& c = GetParam();
  Rng rng(1000 + c.rows);
  const std::vector<LabeledSample> data = FoldShapedRows(c, &rng);
  MonotonicGbdt gbdt(c.dim, c.config);
  ASSERT_TRUE(gbdt.Fit(data).ok());
  ReferenceGbdt reference(c.dim, c.config);
  reference.Fit(data);

  auto expect_same = [&](const std::vector<double>& h, int p) {
    const double got = gbdt.PredictLogit(h, p);
    const double want = reference.PredictLogit(h, p);
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << "p=" << p << " got " << got << " want " << want;
  };
  for (const LabeledSample& s : data) expect_same(s.embedding, s.parallelism);
  for (int probe = 0; probe < 200; ++probe) {
    std::vector<double> h;
    for (int d = 0; d < c.dim; ++d) h.push_back(rng.Uniform(-0.1, 1.1));
    expect_same(h, rng.UniformInt(1, 200));
  }
}

INSTANTIATE_TEST_SUITE_P(
    TieHeavy, GbdtPresortedTest,
    ::testing::Values(
        FitCase{"n1", 1, 4, 2, false, Labels::kThreshold, Config(true, 4, 2)},
        FitCase{"n2_leaf1", 2, 4, 2, false, Labels::kThreshold,
                Config(true, 4, 1)},
        FitCase{"n7_unconstrained", 7, 4, 2, false, Labels::kThreshold,
                Config(false, 4, 1)},
        FitCase{"n40_depth6_leaf1", 40, 4, 2, false, Labels::kThreshold,
                Config(true, 6, 1)},
        FitCase{"n120", 120, 8, 3, false, Labels::kThreshold,
                Config(true, 4, 2)},
        FitCase{"n120_unconstrained", 120, 8, 3, false, Labels::kThreshold,
                Config(false, 4, 2)},
        FitCase{"n300_stumps_constant_column", 300, 6, 3, true,
                Labels::kThreshold, Config(true, 1, 2)},
        FitCase{"n400_all_positive", 400, 6, 3, false, Labels::kAllPositive,
                Config(true, 4, 2)},
        FitCase{"n400_all_negative", 400, 6, 3, true, Labels::kAllNegative,
                Config(true, 4, 2)},
        FitCase{"n600_gamma_leaf5", 600, 8, 4, false, Labels::kThreshold,
                Config(true, 4, 5, 0.5)},
        FitCase{"n900_unconstrained_depth6_leaf5", 900, 8, 2, true,
                Labels::kThreshold, Config(false, 6, 5)},
        FitCase{"n1620_production_width", 1620, 38, 4, false,
                Labels::kThreshold, Config(true, 4, 2)},
        // Sparse columns: most rows sit in the zero run the split search
        // sums apart from the sorted lists.
        FitCase{"relu_n1000", 1000, 16, 3, false, Labels::kThreshold,
                Config(true, 4, 2), Shape::kRelu},
        FitCase{"relu_n700_depth8_leaf1", 700, 12, 3, false,
                Labels::kThreshold, Config(true, 8, 1), Shape::kRelu},
        FitCase{"relu_n1100_unconstrained", 1100, 12, 4, false,
                Labels::kThreshold, Config(false, 4, 2), Shape::kRelu},
        FitCase{"relu_negatives_n800", 800, 16, 4, false, Labels::kThreshold,
                Config(true, 4, 2), Shape::kReluWithNegatives},
        FitCase{"relu_negatives_n500_unconstrained_depth6_leaf1", 500, 12, 3,
                false, Labels::kThreshold, Config(false, 6, 1),
                Shape::kReluWithNegatives}),
    [](const ::testing::TestParamInfo<FitCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Fit threads.
//
// A top-level Fit of at least 256 rows runs on as many threads as the
// process's affinity mask has CPUs (at most 4), whatever its column count,
// and they claim its items in whatever order they get to them; a Fit inside
// a ThreadPool task runs on its calling thread alone. All must grow the same
// trees as each other and as the per-node-sort reference.

int CpusInAffinityMask() {
  int cpus = static_cast<int>(std::thread::hardware_concurrency());
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
#endif
  return cpus;
}

// The fit threads the rule above gives on this host.
int ExpectedFitThreads(int rows) {
  return rows < 256 ? 1 : std::clamp(CpusInAffinityMask(), 1, 4);
}

// Runs fn inside a task of a two-thread pool.
void InPoolTask(const std::function<void()>& fn) {
  ThreadPool pool(2);
  pool.ParallelFor(0, 2, [&](int64_t i) {
    if (i == 0) fn();
  });
}

class GbdtThreadedTest : public ::testing::TestWithParam<FitCase> {};

TEST_P(GbdtThreadedTest, TopLevelAndPoolTaskFitsMatchReferenceBitForBit) {
  const FitCase& c = GetParam();
  Rng rng(2000 + c.rows);
  const std::vector<LabeledSample> data = FoldShapedRows(c, &rng);
  MonotonicGbdt top(c.dim, c.config);
  ASSERT_TRUE(top.Fit(data).ok());
  EXPECT_EQ(top.fit_threads(), ExpectedFitThreads(c.rows));
  MonotonicGbdt task(c.dim, c.config);
  bool task_fitted = false;
  InPoolTask([&] { task_fitted = task.Fit(data).ok(); });
  ASSERT_TRUE(task_fitted);
  EXPECT_EQ(task.fit_threads(), 1);
  ReferenceGbdt reference(c.dim, c.config);
  reference.Fit(data);

  auto expect_same = [&](const std::vector<double>& h, int p) {
    const uint64_t want = std::bit_cast<uint64_t>(reference.PredictLogit(h, p));
    EXPECT_EQ(std::bit_cast<uint64_t>(top.PredictLogit(h, p)), want)
        << "top-level fit, p=" << p;
    EXPECT_EQ(std::bit_cast<uint64_t>(task.PredictLogit(h, p)), want)
        << "pool-task fit, p=" << p;
  };
  for (const LabeledSample& s : data) expect_same(s.embedding, s.parallelism);
  for (int probe = 0; probe < 200; ++probe) {
    std::vector<double> h;
    for (int d = 0; d < c.dim; ++d) h.push_back(rng.Uniform(-0.1, 1.1));
    expect_same(h, rng.UniformInt(1, 200));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GbdtThreadedTest,
    ::testing::Values(
        // M_f's shape: 38 embedding columns of ReLU outputs and p.
        FitCase{"production_relu_n1000", 1000, 38, 40, false,
                Labels::kThreshold, Config(true, 4, 2), Shape::kRelu},
        // Two columns: fewer blocks than the fit may have threads.
        FitCase{"dim1_n600", 600, 1, 5, false, Labels::kThreshold,
                Config(true, 4, 2)},
        // Every root is a leaf: no level is scanned.
        FitCase{"depth0_n400", 400, 6, 3, false, Labels::kThreshold,
                Config(true, 0, 2), Shape::kRelu},
        FitCase{"stumps_n500", 500, 8, 3, false, Labels::kThreshold,
                Config(true, 1, 2), Shape::kRelu},
        // No child of a 500-row root can hold 2 * 200 rows, so every tree
        // stops after scanning one level, far above max_depth: tree after
        // tree, the next root's scan follows an odd number of scans.
        FitCase{"one_level_per_tree_n500_leaf200", 500, 4, 3, false,
                Labels::kThreshold, Config(true, 6, 200), Shape::kRelu},
        FitCase{"unconstrained_depth6_leaf1_n700", 700, 12, 3, false,
                Labels::kThreshold, Config(false, 6, 1),
                Shape::kReluWithNegatives}),
    [](const ::testing::TestParamInfo<FitCase>& info) {
      return std::string(info.param.name);
    });

TEST(GbdtThreadedTest, ThreadCountFollowsRowsColumnsAndPool) {
  Rng rng(91);
  for (const auto& [rows, dim] :
       std::vector<std::pair<int, int>>{{255, 38}, {256, 38}, {300, 1}}) {
    const FitCase c{"count", rows, dim, 3, false, Labels::kThreshold,
                    Config(true, 2, 2)};
    const std::vector<LabeledSample> data = FoldShapedRows(c, &rng);
    MonotonicGbdt top(dim, c.config);
    ASSERT_TRUE(top.Fit(data).ok());
    EXPECT_EQ(top.fit_threads(), ExpectedFitThreads(rows))
        << rows << " rows, " << dim + 1 << " columns";
    // Inside a pool task the fit starts no thread of its own.
    MonotonicGbdt task(dim, c.config);
    InPoolTask([&] { ASSERT_TRUE(task.Fit(data).ok()); });
    EXPECT_EQ(task.fit_threads(), 1) << rows << " rows in a pool task";
  }
}

// M_f's shape, fitted at top level while a spinning thread keeps every CPU
// of the affinity mask busy (at most 8): the fit threads share the CPUs with
// the spinners, so any of them may be descheduled in the middle of a phase,
// holding an item or not, and the others claim what it has not.
TEST(GbdtThreadedTest, FitBesideBusyCpusMatchesReferenceBitForBit) {
  const FitCase c{"busy", 1000, 38, 40, false, Labels::kThreshold,
                  Config(true, 4, 2), Shape::kRelu};
  Rng rng(3000);
  const std::vector<LabeledSample> data = FoldShapedRows(c, &rng);
  MonotonicGbdt top(c.dim, c.config);
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  for (int i = 0; i < std::min(CpusInAffinityMask(), 8); ++i) {
    spinners.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  const bool fitted = top.Fit(data).ok();
  stop = true;
  for (std::thread& spinner : spinners) spinner.join();
  ASSERT_TRUE(fitted);
  EXPECT_EQ(top.fit_threads(), ExpectedFitThreads(c.rows));

  ReferenceGbdt reference(c.dim, c.config);
  reference.Fit(data);
  auto expect_same = [&](const std::vector<double>& h, int p) {
    EXPECT_EQ(std::bit_cast<uint64_t>(top.PredictLogit(h, p)),
              std::bit_cast<uint64_t>(reference.PredictLogit(h, p)))
        << "p=" << p;
  };
  for (const LabeledSample& s : data) expect_same(s.embedding, s.parallelism);
  for (int probe = 0; probe < 200; ++probe) {
    std::vector<double> h;
    for (int d = 0; d < c.dim; ++d) h.push_back(rng.Uniform(-0.1, 1.1));
    expect_same(h, rng.UniformInt(1, 200));
  }
}

// Four pool tasks fit one model each on the same data. A fit inside a pool
// task runs on its own thread alone, so these are serial fits side by side,
// sharing nothing; they must reproduce the logits of the same data fitted
// at top level, which runs on the fit threads (600 rows).
TEST(GbdtTest, ConcurrentFitsMatchSerial) {
  const FitCase c{"concurrent", 600, 8, 3, false, Labels::kThreshold,
                  Config(true, 4, 2)};
  Rng rng(77);
  const std::vector<LabeledSample> data = FoldShapedRows(c, &rng);
  MonotonicGbdt threaded(c.dim, c.config);
  ASSERT_TRUE(threaded.Fit(data).ok());
  EXPECT_EQ(threaded.fit_threads(), ExpectedFitThreads(c.rows));

  constexpr int kThreads = 4;
  std::vector<MonotonicGbdt> models(kThreads, MonotonicGbdt(c.dim, c.config));
  std::vector<int> fitted(kThreads, 0);
  ThreadPool pool(kThreads);
  pool.ParallelFor(0, kThreads, [&](int64_t t) {
    fitted[t] = models[t].Fit(data).ok() ? 1 : 0;
  });
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(fitted[t], 1) << "thread " << t;
    EXPECT_EQ(models[t].fit_threads(), 1) << "thread " << t;
    for (const LabeledSample& s : data) {
      EXPECT_EQ(
          std::bit_cast<uint64_t>(models[t].PredictLogit(s.embedding,
                                                         s.parallelism)),
          std::bit_cast<uint64_t>(
              threaded.PredictLogit(s.embedding, s.parallelism)))
          << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace streamtune::ml
