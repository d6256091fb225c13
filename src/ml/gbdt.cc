#include "ml/gbdt.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <system_error>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/math_util.h"
#include "common/thread_pool.h"

namespace streamtune::ml {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// A fit runs on at most this many threads.
constexpr int kMaxFitThreads = 4;
// Below this many rows a fit stays on the calling thread. On a 4-vCPU x86
// host, four threads fit 64 rows no faster than one (starting and joining
// three costs about 69 us), and 256 rows 1.4-1.7x faster; in between, the
// gain is within the run-to-run noise of a shared host.
constexpr int kMinRowsPerThreadedFit = 256;
// A barrier crossing spins this many times before it blocks; one spin is
// a load and a pause (about 18 ns on a 4-vCPU x86 host). With one busy
// process beside the fit on such a host, 64 spins kept the threaded fits
// 1.3-1.5x faster than serial ones, while 2,048 spins made them 1.2x
// slower; idle, 2,048 spins saved about 0.8 ms of a 6 ms decision.
constexpr int kBarrierSpins = 64;

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

// One feature's best split at one node: the sums left of it and the values
// on either side. Its threshold and child weights are derived only if it
// wins. gain stays -inf when no split in the feature beats every earlier
// feature of its shard. A slot fills a cache line of its own, since
// neighbouring slots belong to other threads.
struct alignas(64) Candidate {
  double gain = -kInf;
  double gl = 0, hl = 0;
  double value = 0, next = 0;
};

// A node of the level being grown; every fit thread holds the same ones.
struct LevelNode {
  int id = 0;  // index in the tree
  double lower = -kInf, upper = kInf;  // bounds on its value
  double g = 0, h = 0;  // grad and hess totals, summed in row-id order
  int slot = -1;        // its row of candidate slots; -1 if it cannot split
  int feature = -1;     // the split taken; -1 for a leaf
  double threshold = 0;
  double mid = 0;  // on a constrained split, the bound between the children
};

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Where the fit threads meet, once per tree level. A crossing spins briefly,
// then blocks on the phase word: spinning without bound starves on an
// oversubscribed host, and blocking at once costs a wake-up per level.
class LevelBarrier {
 public:
  void Reset(int threads) { threads_ = threads; }

  void ArriveAndWait() {
    const uint32_t phase = phase_.load();
    if (arrived_.fetch_add(1) + 1 == threads_) {
      arrived_.store(0);
      phase_.store(phase + 1);
      phase_.notify_all();
      return;
    }
    for (int spin = 0; spin < kBarrierSpins; ++spin) {
      if (phase_.load() != phase) return;
      CpuRelax();
    }
    phase_.wait(phase);
  }

 private:
  int threads_ = 1;
  std::atomic<int> arrived_{0};
  std::atomic<uint32_t> phase_{0};
};

int CpusInAffinityMask() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return static_cast<int>(std::thread::hardware_concurrency());
}

// Threads for one fit of `rows` rows over `features` columns. A fit inside a
// ThreadPool task stays serial, as a nested ParallelFor does: the pool
// already has the cores.
int FitThreads(int rows, int features) {
  if (rows < kMinRowsPerThreadedFit || ThreadPool::InWorker()) return 1;
  return std::clamp(std::min(CpusInAffinityMask(), features), 1,
                    kMaxFitThreads);
}

// 2^depth, or `cap` if that is smaller.
int64_t PowerOfTwoCapped(int depth, int64_t cap) {
  return depth >= 62 ? cap : std::min(int64_t{1} << depth, cap);
}
}  // namespace

// One fit thread's part of a Fit: the columns of its shard, and its private
// copy of everything else a level reads or writes.
struct MonotonicGbdt::Shard {
  // The shard's features, ascending. List l < features.size() belongs to
  // features[l] and is sorted by (value, row id); it holds every row, except
  // in a column with zeros and no negative entry, where it holds only the
  // nonzero rows and zero_mask stands for the zero run. The last list holds
  // the row ids in ascending order. `presorted` is the root state; `order`
  // is the working copy, reset to it for each tree.
  std::vector<int> features;
  std::vector<size_t> list_offset;
  std::vector<int> presorted;
  std::vector<int> order;
  // Row-major 1.0/0.0 block, mask_stride values per row:
  // zero_mask[i * mask_stride + mask_column[l]] is 1.0 where row i of list
  // l's column is zero. mask_column[l] is -1 for a list of every row.
  int mask_stride = 0;
  std::vector<double> zero_mask;
  std::vector<int> mask_column;
  // The current node's zero-run sums of grad and hess, by mask column.
  std::vector<double> zero_grad, zero_hess;
  std::vector<double> grad, hess, margin;
  std::vector<char> goes_left;  // per row: the side of the split applied
  std::vector<int> spill;       // right-side rows while partitioning a list
  // ranges[j * lists() + l]: the range in list l of node j of the current
  // level; child_ranges holds the next level's.
  std::vector<Range> ranges, child_ranges;
  std::vector<LevelNode> level, next_level;
  // Levels scanned so far in this Fit; picks the candidate buffer.
  uint64_t scans = 0;

  int lists() const { return static_cast<int>(features.size()) + 1; }
  int* list(int l) { return order.data() + list_offset[l]; }
  int list_size(int l) const {
    return static_cast<int>(list_offset[l + 1] - list_offset[l]);
  }

  // Fills the shard's lists and zero mask from the feature block `x`.
  void Presort(const double* x, int n) {
    for (int l = 0; l + 1 < lists(); ++l) {
      const double* xf = x + size_t(features[l]) * n;
      int* first = presorted.data() + list_offset[l];
      int* last = first;
      for (int i = 0; i < n; ++i) {
        if (mask_column[l] < 0 || xf[i] != 0) {
          *last++ = i;
        } else {
          zero_mask[size_t(i) * mask_stride + mask_column[l]] = 1.0;
        }
      }
      // Stable on ascending row ids: the order is (value, row id).
      std::stable_sort(first, last,
                       [xf](int a, int b) { return xf[a] < xf[b]; });
    }
    int* row_ids = presorted.data() + list_offset[lists() - 1];
    std::iota(row_ids, row_ids + n, 0);
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

// Everything one Fit works on. It lives on Fit's stack, so concurrent fits
// of different models share nothing; within a fit, the threads share only
// the read-only feature block and the candidate slots.
struct MonotonicGbdt::FitState {
  int n = 0;
  int num_features = 0;
  // Feature-major block: x[f * n + i] is feature f of row i.
  std::vector<double> x;
  std::vector<double> y;
  double w_pos = 1, w_neg = 1;
  // Per feature: 1 if its column has zeros and no negative entry, and the
  // length of its sorted list.
  std::vector<char> sparse;
  std::vector<int> list_length;
  std::vector<Shard> shards;
  // Most nodes one level holds, and most of them that may split.
  int max_level_nodes = 1, max_split_nodes = 0;
  // Two buffers of candidate slots, [split node * num_features + feature];
  // a scan writes the buffer its level count picks, so a fast thread's next
  // scan never overwrites the slots a slower one is still reducing.
  std::vector<Candidate> slots[2];
  LevelBarrier barrier;
  // Tree m's nodes are nodes[m * max_tree_nodes, + tree_size[m]).
  int max_tree_nodes = 1;
  std::vector<TreeNode> nodes;
  std::vector<int> tree_size;

  double* column(int f) { return x.data() + size_t(f) * n; }

  // Deals the features into `threads` shards, each feature to the shard with
  // the shortest lists so far, longest list first, and allocates every
  // buffer the shards use, so the fit threads never allocate.
  void Plan(int threads) {
    std::vector<int> by_length(num_features);
    std::iota(by_length.begin(), by_length.end(), 0);
    std::stable_sort(by_length.begin(), by_length.end(), [&](int a, int b) {
      return list_length[a] > list_length[b];
    });
    std::vector<int64_t> load(threads, 0);
    shards.assign(threads, Shard{});
    for (int f : by_length) {
      const int t = static_cast<int>(
          std::min_element(load.begin(), load.end()) - load.begin());
      shards[t].features.push_back(f);
      load[t] += list_length[f];
    }
    for (Shard& sh : shards) {
      std::sort(sh.features.begin(), sh.features.end());
      const int lists = sh.lists();
      sh.list_offset.assign(lists + 1, 0);
      sh.mask_column.assign(lists - 1, -1);
      int mask_columns = 0;
      for (int l = 0; l + 1 < lists; ++l) {
        const int f = sh.features[l];
        if (sparse[f]) sh.mask_column[l] = mask_columns++;
        sh.list_offset[l + 1] = sh.list_offset[l] + list_length[f];
      }
      sh.list_offset[lists] = sh.list_offset[lists - 1] + n;
      sh.mask_stride =
          (mask_columns + kSweepColumns - 1) / kSweepColumns * kSweepColumns;
      sh.zero_mask.assign(size_t(n) * sh.mask_stride, 0.0);
      sh.zero_grad.resize(sh.mask_stride);
      sh.zero_hess.resize(sh.mask_stride);
      sh.presorted.resize(sh.list_offset[lists]);
      sh.order.resize(sh.list_offset[lists]);
      sh.grad.resize(n);
      sh.hess.resize(n);
      sh.margin.resize(n);
      sh.goes_left.resize(n);
      sh.spill.resize(n);
      sh.ranges.resize(size_t(max_level_nodes) * lists);
      sh.child_ranges.resize(size_t(max_level_nodes) * lists);
      sh.level.resize(max_level_nodes);
      sh.next_level.resize(max_level_nodes);
    }
    barrier.Reset(threads);
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

void MonotonicGbdt::GrowTrees(FitState* s, int shard) const {
  Shard& sh = s->shards[shard];
  const bool writes_nodes = shard == 0;
  const int n = s->n;
  const int num_features = s->num_features;
  const int p_feature = num_features - 1;  // constrained feature
  const int lists = sh.lists();
  const int row_list = lists - 1;
  const double lam = kRegLambda;

  sh.Presort(s->x.data(), n);
  std::fill(sh.margin.begin(), sh.margin.end(), base_score_);

  // Scans the shard's features at `node`, whose ranges start at `range`,
  // and writes each one's best split to row[f]. `best_gain` runs across
  // the shard's features in order, as the serial scan's does across all.
  auto scan = [&](const LevelNode& node, const Range* range, Candidate* row) {
    const int begin = range[row_list].begin;
    const int count = range[row_list].end - begin;
    const double g_total = node.g, h_total = node.h;
    const double parent_score = g_total * g_total / (h_total + lam);
    double best_gain = config_.min_split_gain;
    int f = 0;
    Candidate* out = nullptr;
    // The split between `value` and `next` in feature f, with gl/hl summed
    // over the left_count rows below it. It runs once per candidate, and -O2
    // would not inline a lambda called from two places.
    auto consider = [&](double gl, double hl, int left_count, double value,
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
        *out = {gain, gl, hl, value, next};
      }
    };

    sh.SumZeroRuns(sh.list(row_list) + begin, count);
    for (int l = 0; l < row_list; ++l) {
      f = sh.features[l];
      out = row + f;
      out->gain = -kInf;
      const double* xf = s->column(f);
      const int* sorted = sh.list(l);
      const int b = range[l].begin, e = range[l].end;
      if (b == e) continue;  // all zero: no boundary
      // The zero run, if any, comes first; its last value is +-0.0, and
      // 0.5 * (+-0.0 + next) is the same threshold either way.
      const int zeros = count - (e - b);
      double gl = 0, hl = 0;
      double next = xf[sorted[b]];
      if (zeros > 0) {
        gl = sh.zero_grad[sh.mask_column[l]];
        hl = sh.zero_hess[sh.mask_column[l]];
        consider(gl, hl, zeros, 0.0, next);
      }
      if (next == xf[sorted[e - 1]]) continue;  // constant: no boundary inside
      for (int k = b; k + 1 < e; ++k) {
        const int i = sorted[k];
        const double value = next;
        next = xf[sorted[k + 1]];
        gl += sh.grad[i];
        hl += sh.hess[i];
        // Only split between distinct feature values.
        if (value >= next) continue;
        consider(gl, hl, zeros + k + 1 - b, value, next);
      }
    }
  };

  // Takes `node`'s split from its slot row: every feature in order, strict
  // >, so the first best candidate wins, as in one serial scan.
  auto reduce = [&](const Candidate* row, LevelNode* node) {
    double best_gain = config_.min_split_gain;
    for (int f = 0; f < num_features; ++f) {
      if (row[f].gain > best_gain) {
        best_gain = row[f].gain;
        node->feature = f;
      }
    }
    if (node->feature < 0) return;  // no admissible split
    const Candidate& c = row[node->feature];
    node->threshold = 0.5 * (c.value + c.next);
    if (config_.enforce_monotonic && node->feature == p_feature) {
      const double wl = Clamp(-c.gl / (c.hl + lam), node->lower, node->upper);
      const double gr = node->g - c.gl, hr = node->h - c.hl;
      const double wr = Clamp(-gr / (hr + lam), node->lower, node->upper);
      node->mid = 0.5 * (wl + wr);
    }
  };

  for (int m = 0; m < config_.num_trees; ++m) {
    for (int i = 0; i < n; ++i) {
      double sig = Sigmoid(sh.margin[i]);
      double w = s->y[i] > 0.5 ? s->w_pos : s->w_neg;
      sh.grad[i] = w * (sig - s->y[i]);
      sh.hess[i] = std::max(w * sig * (1.0 - sig), 1e-9);
    }
    std::copy(sh.presorted.begin(), sh.presorted.end(), sh.order.begin());
    TreeNode* nodes = s->nodes.data() + size_t(m) * s->max_tree_nodes;
    int num_nodes = 1;
    sh.level[0] = LevelNode{};
    for (int l = 0; l < lists; ++l) sh.ranges[l] = {0, sh.list_size(l)};

    int width = 1;  // nodes on the current level
    for (int depth = 0; width > 0; ++depth) {
      const int* row_ids = sh.list(row_list);
      int splits = 0;
      for (int j = 0; j < width; ++j) {
        LevelNode& node = sh.level[j];
        const Range r = sh.ranges[size_t(j) * lists + row_list];
        double g = 0, h = 0;
        for (int k = r.begin; k < r.end; ++k) {
          g += sh.grad[row_ids[k]];
          h += sh.hess[row_ids[k]];
        }
        node.g = g;
        node.h = h;
        const int count = r.end - r.begin;
        // A split needs two rows, and min_samples_leaf of them on each side.
        const bool may_split = depth < config_.max_depth && count >= 2 &&
                               count >= 2 * config_.min_samples_leaf;
        node.slot = may_split ? splits++ : -1;
        node.feature = -1;
      }
      if (splits > 0) {
        Candidate* slots = s->slots[sh.scans++ % 2].data();
        for (int j = 0; j < width; ++j) {
          const LevelNode& node = sh.level[j];
          if (node.slot < 0) continue;
          scan(node, &sh.ranges[size_t(j) * lists],
               slots + size_t(node.slot) * num_features);
        }
        s->barrier.ArriveAndWait();
        for (int j = 0; j < width; ++j) {
          LevelNode& node = sh.level[j];
          if (node.slot < 0) continue;
          reduce(slots + size_t(node.slot) * num_features, &node);
        }
      }

      // Leaves add their value to their rows' margins. A split routes each
      // row by the test Tree::Predict applies, then stably partitions the
      // lists: left rows first, each side in its old (sorted) order.
      // Children at max_depth are leaves: they read only the row-id list.
      const int first_list = depth + 1 >= config_.max_depth ? row_list : 0;
      int next_width = 0;
      for (int j = 0; j < width; ++j) {
        const LevelNode& node = sh.level[j];
        const Range* range = &sh.ranges[size_t(j) * lists];
        const int begin = range[row_list].begin, end = range[row_list].end;
        const double value =
            kLearningRate *
            Clamp(-node.g / (node.h + lam), node.lower, node.upper);
        if (node.feature < 0) {
          for (int k = begin; k < end; ++k) sh.margin[row_ids[k]] += value;
          if (writes_nodes) nodes[node.id] = {-1, 0.0, -1, -1, value};
          continue;
        }
        const double* xb = s->column(node.feature);
        int num_left = 0;
        for (int k = begin; k < end; ++k) {
          const bool left = xb[row_ids[k]] < node.threshold;
          sh.goes_left[row_ids[k]] = left;
          num_left += left;
        }
        assert(num_left > 0 && num_left < end - begin);
        (void)num_left;
        Range* left = &sh.child_ranges[size_t(next_width) * lists];
        Range* right = left + lists;
        for (int l = first_list; l < lists; ++l) {
          int* list = sh.list(l);
          int kept = range[l].begin, spilled = 0;
          // Branch-free: the sides are random.
          for (int k = range[l].begin; k < range[l].end; ++k) {
            const int i = list[k];
            const int goes_left = sh.goes_left[i];
            list[kept] = i;
            sh.spill[spilled] = i;
            kept += goes_left;
            spilled += 1 - goes_left;
          }
          std::copy(sh.spill.begin(), sh.spill.begin() + spilled,
                    list + kept);
          left[l] = {range[l].begin, kept};
          right[l] = {kept, range[l].end};
        }

        LevelNode& l_child = sh.next_level[next_width++];
        LevelNode& r_child = sh.next_level[next_width++];
        l_child = r_child = LevelNode{};
        l_child.id = num_nodes++;
        r_child.id = num_nodes++;
        l_child.lower = r_child.lower = node.lower;
        l_child.upper = r_child.upper = node.upper;
        if (config_.enforce_monotonic && node.feature == p_feature) {
          // Propagate value bounds: left (small p) stays >= mid, right <= mid.
          l_child.lower = std::max(l_child.lower, node.mid);
          r_child.upper = std::min(r_child.upper, node.mid);
        }
        if (writes_nodes) {
          nodes[node.id] = {node.feature, node.threshold, l_child.id,
                            r_child.id, value};
        }
      }
      std::swap(sh.level, sh.next_level);
      std::swap(sh.ranges, sh.child_ranges);
      width = next_width;
    }
    if (writes_nodes) s->tree_size[m] = num_nodes;
  }
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
  s.y.resize(n);
  int positives = 0;
  for (int i = 0; i < n; ++i) {
    xp[i] = data[i].parallelism / kParallelismScale;
    s.y[i] = data[i].label == 1 ? 1.0 : 0.0;
    if (data[i].label == 1) ++positives;
  }
  s.w_pos = positives == 0 ? 1.0 : 0.5 * n / positives;
  s.w_neg = positives == n ? 1.0 : 0.5 * n / (n - positives);

  double prior = Clamp(static_cast<double>(positives) / n, 0.02, 0.98);
  base_score_ = std::log(prior / (1.0 - prior));

  // A column with zeros and no negative entry lists its nonzero rows only.
  s.sparse.assign(s.num_features, 0);
  s.list_length.assign(s.num_features, n);
  for (int f = 0; f < s.num_features; ++f) {
    const double* xf = s.column(f);
    const int zeros = static_cast<int>(std::count(xf, xf + n, 0.0));
    if (zeros > 0 && std::none_of(xf, xf + n, [](double v) { return v < 0; })) {
      s.sparse[f] = 1;
      s.list_length[f] = n - zeros;
    }
  }
  // A level holds at most 2^depth nodes, each with a row; a node that may
  // split has at least max(2, 2 * min_samples_leaf) rows, and sits above
  // max_depth. A tree has at most 2^(max_depth + 1) - 1 nodes, and at most
  // 2n - 1, since every leaf holds a row.
  const int max_depth = std::max(config_.max_depth, 0);
  const int split_rows = std::max(2, 2 * config_.min_samples_leaf);
  s.max_level_nodes = static_cast<int>(PowerOfTwoCapped(max_depth, n));
  s.max_split_nodes =
      max_depth == 0
          ? 0
          : static_cast<int>(PowerOfTwoCapped(max_depth - 1, n / split_rows));
  s.max_tree_nodes = static_cast<int>(
      PowerOfTwoCapped(max_depth + 1, int64_t{2} * n) - 1);
  for (std::vector<Candidate>& slots : s.slots) {
    slots.resize(size_t(s.max_split_nodes) * s.num_features);
  }
  const int num_trees = std::max(config_.num_trees, 0);
  s.nodes.resize(size_t(num_trees) * s.max_tree_nodes);
  s.tree_size.assign(num_trees, 0);

  // Start the other threads on a closed gate: if one cannot be started,
  // those that were are sent home and the fit runs on one shard.
  int threads = FitThreads(n, s.num_features);
  s.Plan(threads);
  std::atomic<int> gate{0};  // 1: grow, -1: cancelled
  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  for (int t = 1; t < threads; ++t) {
    try {
      workers.emplace_back([this, &s, &gate, t] {
        gate.wait(0);
        if (gate.load() > 0) GrowTrees(&s, t);
      });
    } catch (const std::system_error&) {
      break;
    }
  }
  if (static_cast<int>(workers.size()) + 1 < threads) {
    gate.store(-1);
    gate.notify_all();
    for (std::thread& w : workers) w.join();
    workers.clear();
    threads = 1;
    s.Plan(threads);
  } else {
    gate.store(1);
    gate.notify_all();
  }
  GrowTrees(&s, 0);
  for (std::thread& w : workers) w.join();
  fit_threads_ = threads;

  trees_.assign(num_trees, Tree{});
  for (int m = 0; m < num_trees; ++m) {
    const TreeNode* first = s.nodes.data() + size_t(m) * s.max_tree_nodes;
    trees_[m].nodes.assign(first, first + s.tree_size[m]);
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
