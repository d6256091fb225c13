#include "ml/gbdt.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
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
// host (Release, the first n rows of recurring-rates' seed-1 fits, minimum
// of 5 fits each), four threads fit 64 rows 0.70-0.77x as fast as one,
// 128 rows 1.18-1.23x, 192 rows 1.42-1.49x and 256 rows 1.61-1.64x faster.
// The threshold stays where the gain is well clear of a shared host's
// run-to-run spread; no benchmark workload fits 128-255 rows at top level.
constexpr int kMinRowsPerThreadedFit = 256;
// A thread with nothing to claim polls for the next phase this many times
// (a load and a pause each, about 18 ns on a 4-vCPU x86 host), then yields
// its CPU this many times, then blocks on the generation word. The caller's
// serial step between phases takes a few microseconds, so a helper polling
// through it starts the next phase at once; one that finds the host busy
// gives its CPU away instead of keeping it from the threads doing the work.
// With 256, 1,024 and 2,048 polls, recurring-rates' 82 seed-1 fits took
// 318, 312 and 315 ms on an idle host, 403, 399 and 404 ms beside one busy
// loop, and 769, 658 and 668 ms beside three (Release, minimum of 3 runs
// per fit).
constexpr int kIdleSpins = 1024;
constexpr int kIdleYields = 16;

// Two doubles in one vector register, through GCC's generic vectors: the
// baseline instruction set, no intrinsics, no -m flags.
typedef double Double2 __attribute__((vector_size(16)));
// The zero pass sums this many Double2 lanes of mask columns per sweep over
// a node's rows, so its accumulators stay in registers. A block holds at most
// one sweep's worth of sparse columns.
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
// feature of its block. A slot fills a cache line of its own, since
// neighbouring slots belong to other blocks, which other threads scan.
struct alignas(64) Candidate {
  double gain = -kInf;
  double gl = 0, hl = 0;
  double value = 0, next = 0;
};

// A node of the level being grown.
struct LevelNode {
  int id = 0;  // index in the tree
  double lower = -kInf, upper = kInf;  // bounds on its value
  double g = 0, h = 0;  // grad and hess totals, summed in row-id order
  Range rows;           // its positions in the row-id list
  int slot = -1;        // its row of candidate slots; -1 if it cannot split
  int feature = -1;     // the split taken; -1 for a leaf
  double threshold = 0;
  double mid = 0;  // on a constrained split, the bound between the children
  int child = -1;  // on a split, the left child's index in the next level;
                   // the right child's is child + 1
};

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

int CpusInAffinityMask() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return static_cast<int>(std::thread::hardware_concurrency());
}

// Threads for one fit of `rows` rows. A fit inside a ThreadPool task stays
// serial, as a nested ParallelFor does: the pool already has the cores.
int FitThreads(int rows) {
  if (rows < kMinRowsPerThreadedFit || ThreadPool::InWorker()) return 1;
  return std::clamp(CpusInAffinityMask(), 1, kMaxFitThreads);
}

// 2^depth, or `cap` if that is smaller.
int64_t PowerOfTwoCapped(int depth, int64_t cap) {
  return depth >= 62 ? cap : std::min(int64_t{1} << depth, cap);
}
}  // namespace

// Everything one Fit works on, shared by its threads. It lives on Fit's
// stack, so concurrent fits of different models share nothing. The fit runs
// as a sequence of phases of independent items; between phases the calling
// thread alone reads what the items wrote and writes what the next reads.
struct MonotonicGbdt::FitState {
  // What a phase's items are (see Item).
  enum class Phase { kPresort, kGradients, kRoot, kLevel };

  // Columns whose lists one item sorts, partitions and scans: up to
  // kSweepColumns sparse columns, which share one zero-pass sweep, or one
  // dense column.
  struct Block {
    int first_list = 0, end_list = 0;
    // Offset of the block's row-major n x kSweepColumns zero mask in
    // zero_mask; -1 for a dense column.
    int64_t mask = -1;
    int64_t cost = 0;  // its list lengths, plus n for a zero pass
  };

  // One thread's home queue: the blocks it is home to, costliest first, and
  // the claim word, (phase generation << 32) | items left. A claim counts
  // the word down by compare-and-swap and takes item (items - left), so an
  // item is claimed once, a phase ends on small items, and a thread still
  // draining an earlier phase fails on the generation.
  struct alignas(64) Queue {
    std::atomic<uint64_t> word{0};
    std::vector<int> blocks;
  };

  explicit FitState(const GbdtConfig& c) : config(c) {}
  FitState(const FitState&) = delete;
  FitState& operator=(const FitState&) = delete;
  ~FitState() {
    if (helpers.empty()) return;
    stopping.store(true, std::memory_order_relaxed);
    generation.fetch_add(1, std::memory_order_release);
    generation.notify_all();
    for (std::thread& helper : helpers) helper.join();
  }

  const GbdtConfig& config;
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
  // The sorted lists, one per feature, in block order: list l belongs to
  // list_feature[l] and is order[list_offset[l], list_offset[l + 1]), sorted
  // by (value, row id). It holds every row, except in a sparse column, where
  // it holds only the nonzero rows and the zero mask stands for the zero
  // run: zero_mask[block.mask + i * kSweepColumns + c] is 1.0 where row i of
  // the block's list first_list + c is zero. `presorted` is the root state;
  // `order` is the working copy, reset to it for each tree.
  std::vector<Block> blocks;
  std::vector<int> list_feature;
  std::vector<size_t> list_offset;
  std::vector<int> presorted, order;
  std::vector<double> zero_mask;
  // The row ids, each node's in ascending order; only the caller writes it.
  std::vector<int> row_ids;
  std::vector<double> grad, hess, margin;
  std::vector<char> goes_left;  // per row: the side of the split applied
  // ranges[j * num_features + l]: the range in list l of node j of the
  // current level; child_ranges holds the next level's.
  std::vector<Range> ranges, child_ranges;
  std::vector<LevelNode> level, next_level;
  // Most nodes one level holds, most of them that may split, and most nodes
  // one tree holds.
  int max_level_nodes = 1, max_split_nodes = 0, max_tree_nodes = 1;
  // Candidate slots, [split node * num_features + feature].
  std::vector<Candidate> slots;

  // The phase being run; a kLevel phase's items are (parent, block) pairs
  // over parents[0, num_parents), the split nodes of the current level with
  // a child that may split.
  Phase phase = Phase::kPresort;
  std::vector<int> parents;
  int num_parents = 0;

  // Threads: the caller is thread 0; helper t drains queue t, then steals.
  int threads = 1;
  std::unique_ptr<Queue[]> queues;
  std::vector<std::vector<int>> spill;  // per thread: a partition's right side
  uint32_t published = 0;  // the caller's copy of the last generation
  std::atomic<uint32_t> generation{0};
  std::atomic<int> unfinished{0};  // items of the phase not yet done
  std::atomic<bool> stopping{false};
  std::vector<std::thread> helpers;  // last: they use everything above

  double* column(int f) { return x.data() + size_t(f) * n; }
  int list_size(int l) const {
    return static_cast<int>(list_offset[l + 1] - list_offset[l]);
  }

  // Groups the columns into blocks, deals each block a home thread, and
  // allocates every buffer, so no fit thread allocates.
  void Plan(int fit_threads) {
    threads = fit_threads;
    std::vector<std::vector<int>> groups;
    for (int f = 0; f < num_features; ++f) {
      if (!sparse[f]) continue;
      if (groups.empty() || groups.back().size() == kSweepColumns) {
        groups.emplace_back();
      }
      groups.back().push_back(f);
    }
    const int sparse_blocks = static_cast<int>(groups.size());
    for (int f = 0; f < num_features; ++f) {
      if (!sparse[f]) groups.push_back({f});
    }
    list_offset.assign(num_features + 1, 0);
    for (const std::vector<int>& group : groups) {
      Block b;
      b.first_list = static_cast<int>(list_feature.size());
      b.mask = int64_t(blocks.size()) < sparse_blocks
                   ? int64_t(blocks.size()) * n * kSweepColumns
                   : -1;
      b.cost = b.mask < 0 ? 0 : n;
      for (int f : group) {
        const int l = static_cast<int>(list_feature.size());
        list_feature.push_back(f);
        list_offset[l + 1] = list_offset[l] + list_length[f];
        b.cost += list_length[f];
      }
      b.end_list = static_cast<int>(list_feature.size());
      blocks.push_back(b);
    }
    presorted.resize(list_offset[num_features]);
    order.resize(list_offset[num_features]);
    zero_mask.assign(size_t(sparse_blocks) * n * kSweepColumns, 0.0);
    row_ids.resize(n);
    grad.resize(n);
    hess.resize(n);
    margin.resize(n);
    goes_left.resize(n);
    ranges.resize(size_t(max_level_nodes) * num_features);
    child_ranges.resize(size_t(max_level_nodes) * num_features);
    level.resize(max_level_nodes);
    next_level.resize(max_level_nodes);
    parents.resize(max_level_nodes);
    slots.resize(size_t(max_split_nodes) * num_features);

    // Homes: costliest block first, each to the least-loaded thread.
    std::vector<int> by_cost(blocks.size());
    std::iota(by_cost.begin(), by_cost.end(), 0);
    std::stable_sort(by_cost.begin(), by_cost.end(), [&](int a, int b) {
      return blocks[a].cost > blocks[b].cost;
    });
    queues = std::make_unique<Queue[]>(threads);
    std::vector<int64_t> load(threads, 0);
    for (int b : by_cost) {
      const int t = static_cast<int>(
          std::min_element(load.begin(), load.end()) - load.begin());
      queues[t].blocks.push_back(b);
      load[t] += blocks[b].cost;
    }
    spill.assign(threads, std::vector<int>(n));
  }

  // Items in queue q for the current phase.
  int Items(int q) const {
    const int homed = static_cast<int>(queues[q].blocks.size());
    switch (phase) {
      case Phase::kGradients:
        return 1;
      case Phase::kLevel:
        return num_parents * homed;
      default:
        return homed;
    }
  }

  // Runs item k of queue q on thread t.
  void Item(int t, int q, int k) {
    const std::vector<int>& homed = queues[q].blocks;
    switch (phase) {
      case Phase::kPresort:
        Presort(blocks[homed[k]]);
        break;
      case Phase::kGradients:
        Gradients(q);
        break;
      case Phase::kRoot:
        ScanRoot(blocks[homed[k]]);
        break;
      case Phase::kLevel:
        SplitAndScan(parents[k % num_parents], blocks[homed[k / num_parents]],
                     spill[t].data());
        break;
    }
  }

  // Runs a phase of `parents_in_phase` parents (kLevel) or of blocks.
  void Run(Phase p, int parents_in_phase = 0) {
    Publish(p, parents_in_phase);
    Finish();
  }

  // Sets up the phase's items and, with helpers, their claim words.
  void Publish(Phase p, int parents_in_phase) {
    phase = p;
    num_parents = parents_in_phase;
    if (threads == 1) return;
    int total = 0;
    for (int q = 0; q < threads; ++q) total += Items(q);
    unfinished.store(total, std::memory_order_relaxed);
    ++published;
    for (int q = 0; q < threads; ++q) {
      queues[q].word.store(uint64_t{published} << 32 | uint32_t(Items(q)),
                           std::memory_order_relaxed);
    }
    generation.store(published, std::memory_order_release);
    generation.notify_all();
  }

  // Works the phase on the calling thread and returns once every item is
  // done. It waits only for items other threads have claimed.
  void Finish() {
    if (threads == 1) {
      for (int k = 0, items = Items(0); k < items; ++k) Item(0, 0, k);
      return;
    }
    Drain(0, published);
    for (int spin = 0; unfinished.load(std::memory_order_acquire) != 0;
         ++spin) {
      if (spin < kIdleSpins) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
  }

  // Starts up to threads - 1 helpers; a helper that cannot be started
  // leaves its queue to the others. Returns the threads now working.
  int StartHelpers() {
    helpers.reserve(threads - 1);
    for (int t = 1; t < threads; ++t) {
      try {
        helpers.emplace_back([this, t] { Help(t); });
      } catch (const std::system_error&) {
        break;
      }
    }
    return static_cast<int>(helpers.size()) + 1;
  }

  void Help(int t) {
    uint32_t seen = 0;
    for (;;) {
      seen = AwaitPhase(seen);
      if (stopping.load(std::memory_order_relaxed)) return;
      Drain(t, seen);
    }
  }

  // Returns the first generation other than `seen`.
  uint32_t AwaitPhase(uint32_t seen) const {
    uint32_t gen = seen;
    for (int spin = 0; spin < kIdleSpins; ++spin) {
      if ((gen = generation.load(std::memory_order_acquire)) != seen) {
        return gen;
      }
      CpuRelax();
    }
    for (int yield = 0; yield < kIdleYields; ++yield) {
      if ((gen = generation.load(std::memory_order_acquire)) != seen) {
        return gen;
      }
      std::this_thread::yield();
    }
    while ((gen = generation.load(std::memory_order_acquire)) == seen) {
      generation.wait(seen, std::memory_order_acquire);
    }
    return gen;
  }

  // Claims and runs items of generation `gen` on thread t: its own queue
  // first, then the others'.
  void Drain(int t, uint32_t gen) {
    for (int i = 0; i < threads; ++i) {
      const int q = (t + i) % threads;
      std::atomic<uint64_t>& word = queues[q].word;
      uint64_t w = word.load(std::memory_order_relaxed);
      while (uint32_t(w >> 32) == gen && uint32_t(w) != 0) {
        if (!word.compare_exchange_weak(w, w - 1, std::memory_order_relaxed)) {
          continue;
        }
        Item(t, q, Items(q) - static_cast<int>(uint32_t(w)));
        unfinished.fetch_sub(1, std::memory_order_release);
        w = word.load(std::memory_order_relaxed);
      }
    }
  }

  // Fills the block's lists and zero mask from the feature block.
  void Presort(const Block& b) {
    for (int l = b.first_list; l < b.end_list; ++l) {
      const double* xf = column(list_feature[l]);
      int* first = presorted.data() + list_offset[l];
      int* last = first;
      double* mask = b.mask < 0 ? nullptr
                                : &zero_mask[b.mask + (l - b.first_list)];
      for (int i = 0; i < n; ++i) {
        if (mask == nullptr || xf[i] != 0) {
          *last++ = i;
        } else {
          mask[size_t(i) * kSweepColumns] = 1.0;
        }
      }
      // Stable on ascending row ids: the order is (value, row id).
      std::stable_sort(first, last,
                       [xf](int a, int b) { return xf[a] < xf[b]; });
    }
  }

  // Logistic-loss gradients of chunk q of the threads' equal row chunks.
  void Gradients(int q) {
    const int begin = static_cast<int>(int64_t(n) * q / threads);
    const int end = static_cast<int>(int64_t(n) * (q + 1) / threads);
    for (int i = begin; i < end; ++i) {
      double sig = Sigmoid(margin[i]);
      double w = y[i] > 0.5 ? w_pos : w_neg;
      grad[i] = w * (sig - y[i]);
      hess[i] = std::max(w * sig * (1.0 - sig), 1e-9);
    }
  }

  // Resets the block's lists to the presort and scans them at the root.
  void ScanRoot(const Block& b) {
    for (int l = b.first_list; l < b.end_list; ++l) {
      std::copy(presorted.begin() + list_offset[l],
                presorted.begin() + list_offset[l + 1],
                order.begin() + list_offset[l]);
      ranges[l] = {0, list_size(l)};
    }
    Scan(level[0], ranges.data(), b);
  }

  // Stably partitions the block's lists by parent p's split (left rows
  // first, each side in its old sorted order), then scans them at each
  // child that may split.
  void SplitAndScan(int p, const Block& b, int* spill_rows) {
    const LevelNode& node = level[p];
    const Range* range = &ranges[size_t(p) * num_features];
    Range* left = &child_ranges[size_t(node.child) * num_features];
    Range* right = left + num_features;
    for (int l = b.first_list; l < b.end_list; ++l) {
      int* list = order.data() + list_offset[l];
      int kept = range[l].begin, spilled = 0;
      // Branch-free: the sides are random.
      for (int k = range[l].begin; k < range[l].end; ++k) {
        const int i = list[k];
        const int goes = goes_left[i];
        list[kept] = i;
        spill_rows[spilled] = i;
        kept += goes;
        spilled += 1 - goes;
      }
      std::copy(spill_rows, spill_rows + spilled, list + kept);
      left[l] = {range[l].begin, kept};
      right[l] = {kept, range[l].end};
    }
    for (int c = node.child; c < node.child + 2; ++c) {
      if (next_level[c].slot >= 0) {
        Scan(next_level[c], &child_ranges[size_t(c) * num_features], b);
      }
    }
  }

  // Scans the block's features at `node`, whose ranges start at `range`,
  // and writes each one's best split to its candidate slot. `best_gain`
  // runs across the block's features in order, as the serial scan's does
  // across all.
  void Scan(const LevelNode& node, const Range* range, const Block& b) {
    const int* rows = row_ids.data() + node.rows.begin;
    const int count = node.rows.end - node.rows.begin;
    const double lam = kRegLambda;
    const double g_total = node.g, h_total = node.h;
    const double parent_score = g_total * g_total / (h_total + lam);
    const int p_feature = num_features - 1;  // constrained feature
    Candidate* row = slots.data() + size_t(node.slot) * num_features;
    double best_gain = config.min_split_gain;
    int f = 0;
    Candidate* out = nullptr;
    // The split between `value` and `next` in feature f, with gl/hl summed
    // over the left_count rows below it. It runs once per candidate, and -O2
    // would not inline a lambda called from two places.
    auto consider = [&](double gl, double hl, int left_count, double value,
                        double next) __attribute__((always_inline)) {
      double gr = g_total - gl, hr = h_total - hl;
      if (hl < kMinChildHessian || hr < kMinChildHessian) return;
      if (left_count < config.min_samples_leaf ||
          count - left_count < config.min_samples_leaf) {
        return;
      }
      double gain =
          0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score);
      if (config.enforce_monotonic && f == p_feature) {
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

    // The block's zero-run sums of grad and hess over rows[0, count), in
    // row-id order. A masked-out row adds +-0.0 to a sum that is never -0.0
    // (it starts at +0.0, and no grad is -0.0), which leaves it unchanged,
    // so each sum equals the zero run's sequential sum bit for bit.
    double zero_grad[kSweepColumns], zero_hess[kSweepColumns];
    if (b.mask >= 0) {
      Double2 zg[kSweepVectors] = {}, zh[kSweepVectors] = {};
      const double* mask = zero_mask.data() + b.mask;
      for (int k = 0; k < count; ++k) {
        const int i = rows[k];
        const double* m = mask + size_t(i) * kSweepColumns;
#pragma GCC unroll kSweepVectors  // keeps zg and zh in registers at -O2
        for (int v = 0; v < kSweepVectors; ++v) {
          const Double2 mv = Load2(m + 2 * v);
          zg[v] += mv * grad[i];
          zh[v] += mv * hess[i];
        }
      }
      std::memcpy(zero_grad, zg, sizeof zg);
      std::memcpy(zero_hess, zh, sizeof zh);
    }

    for (int l = b.first_list; l < b.end_list; ++l) {
      f = list_feature[l];
      out = row + f;
      out->gain = -kInf;
      const double* xf = column(f);
      const int* sorted = order.data() + list_offset[l];
      const int lb = range[l].begin, le = range[l].end;
      if (lb == le) continue;  // all zero: no boundary
      // The zero run, if any, comes first; its last value is +-0.0, and
      // 0.5 * (+-0.0 + next) is the same threshold either way.
      const int zeros = count - (le - lb);
      double gl = 0, hl = 0;
      double next = xf[sorted[lb]];
      if (zeros > 0) {
        gl = zero_grad[l - b.first_list];
        hl = zero_hess[l - b.first_list];
        consider(gl, hl, zeros, 0.0, next);
      }
      if (next == xf[sorted[le - 1]]) continue;  // constant: no boundary inside
      for (int k = lb; k + 1 < le; ++k) {
        const int i = sorted[k];
        const double value = next;
        next = xf[sorted[k + 1]];
        gl += grad[i];
        hl += hess[i];
        // Only split between distinct feature values.
        if (value >= next) continue;
        consider(gl, hl, zeros + k + 1 - lb, value, next);
      }
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

void MonotonicGbdt::GrowTrees(FitState* s) {
  const int n = s->n;
  const int num_features = s->num_features;
  const int p_feature = num_features - 1;  // constrained feature
  const double lam = kRegLambda;
  int* row_ids = s->row_ids.data();
  int* spill = s->spill[0].data();
  // The tree being grown; each tree keeps an exact copy.
  std::vector<TreeNode> nodes;
  nodes.reserve(s->max_tree_nodes);
  // A split needs two rows, and min_samples_leaf of them on each side.
  auto may_split = [&](const LevelNode& node, int depth) {
    const int count = node.rows.end - node.rows.begin;
    return depth < config_.max_depth && count >= 2 &&
           count >= 2 * config_.min_samples_leaf;
  };

  // Takes `node`'s split from its slot row: every feature in order, strict
  // >, so the first best candidate wins, as in one serial scan.
  auto reduce = [&](LevelNode* node) {
    const Candidate* row =
        s->slots.data() + size_t(node->slot) * num_features;
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

  std::fill(s->margin.begin(), s->margin.end(), base_score_);
  for (Tree& tree : trees_) {
    s->Run(FitState::Phase::kGradients);
    std::iota(row_ids, row_ids + n, 0);
    nodes.assign(1, TreeNode{});
    LevelNode& root = s->level[0];
    root = LevelNode{};
    root.rows = {0, n};
    for (int i = 0; i < n; ++i) {
      root.g += s->grad[i];
      root.h += s->hess[i];
    }
    root.slot = may_split(root, 0) ? 0 : -1;
    if (root.slot >= 0) s->Run(FitState::Phase::kRoot);

    // Each level: take the scanned nodes' splits; leaves add their value to
    // their rows' margins; a split routes each row by the test
    // Tree::Predict applies and stably partitions the row-id list, and its
    // children get their totals. Then the items partition the other lists
    // of each split node with a child that may split, and scan those
    // children.
    int width = 1;  // nodes on the current level
    for (int depth = 0; width > 0; ++depth) {
      int next_width = 0, splits = 0, num_parents = 0;
      for (int j = 0; j < width; ++j) {
        LevelNode& node = s->level[j];
        if (node.slot >= 0) reduce(&node);
        const int begin = node.rows.begin, end = node.rows.end;
        const double value =
            kLearningRate *
            Clamp(-node.g / (node.h + lam), node.lower, node.upper);
        if (node.feature < 0) {
          for (int k = begin; k < end; ++k) s->margin[row_ids[k]] += value;
          nodes[node.id] = {-1, 0.0, -1, -1, value};
          continue;
        }
        // Route each row by the test Tree::Predict applies, and stably
        // partition the row ids: left rows first, each side in row-id order.
        const double* xb = s->column(node.feature);
        int kept = begin, spilled = 0;
        for (int k = begin; k < end; ++k) {
          const int i = row_ids[k];
          const bool left = xb[i] < node.threshold;
          s->goes_left[i] = left;
          row_ids[kept] = i;
          spill[spilled] = i;
          kept += left;
          spilled += !left;
        }
        assert(kept > begin && kept < end);
        std::copy(spill, spill + spilled, row_ids + kept);

        node.child = next_width;
        LevelNode& l_child = s->next_level[next_width++];
        LevelNode& r_child = s->next_level[next_width++];
        l_child = r_child = LevelNode{};
        l_child.id = static_cast<int>(nodes.size());
        r_child.id = l_child.id + 1;
        nodes.resize(nodes.size() + 2);
        nodes[node.id] = {node.feature, node.threshold, l_child.id,
                          r_child.id, value};
        l_child.lower = r_child.lower = node.lower;
        l_child.upper = r_child.upper = node.upper;
        if (config_.enforce_monotonic && node.feature == p_feature) {
          // Propagate value bounds: left (small p) stays >= mid, right <= mid.
          l_child.lower = std::max(l_child.lower, node.mid);
          r_child.upper = std::min(r_child.upper, node.mid);
        }
        l_child.rows = {begin, kept};
        r_child.rows = {kept, end};
        for (LevelNode* child : {&l_child, &r_child}) {
          for (int k = child->rows.begin; k < child->rows.end; ++k) {
            child->g += s->grad[row_ids[k]];
            child->h += s->hess[row_ids[k]];
          }
          if (may_split(*child, depth + 1)) child->slot = splits++;
        }
        if (l_child.slot >= 0 || r_child.slot >= 0) {
          s->parents[num_parents++] = j;
        }
      }
      if (num_parents > 0) s->Run(FitState::Phase::kLevel, num_parents);
      std::swap(s->level, s->next_level);
      std::swap(s->ranges, s->child_ranges);
      width = next_width;
    }
    tree.nodes.assign(nodes.begin(), nodes.end());
  }
}

Status MonotonicGbdt::Fit(const std::vector<LabeledSample>& data) {
  ST_RETURN_NOT_OK(CheckTrainingSet(data, embedding_dim_));
  const int n = static_cast<int>(data.size());
  FitState s(config_);
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
  s.Plan(FitThreads(n));

  // The helpers start while the caller presorts.
  s.Publish(FitState::Phase::kPresort, 0);
  fit_threads_ = s.threads == 1 ? 1 : s.StartHelpers();
  s.Finish();
  trees_.assign(std::max(config_.num_trees, 0), Tree{});
  GrowTrees(&s);
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
