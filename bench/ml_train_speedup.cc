// ML-core speedup against the frozen pre-refactor baseline.
//
// The baseline is a verbatim replica of the deleted Var-graph engine
// (shared_ptr node per op, fresh allocations every step, allocating scalar
// Matrix methods, adjacency re-derived per call), embedded below so the
// benchmark keeps measuring the same reference path after the shim's
// removal. The candidate is the current decision path: the tape engine
// (arena-allocated records, reused buffers, transpose-free backward) on top
// of the kernel layer in ml/matrix.h.
//
// Three measurements, all over the real training/inference paths:
//
//   1. GNN training-epoch throughput: epochs of forward + backward over the
//      Nexmark history corpus. Baseline rebuilds features/targets/
//      parallelism column and re-derives the normalized adjacencies per
//      sample per epoch; the tape step uses hoisted per-sample inputs, a
//      cached GraphContext, and one persistent tape. The engine-independent
//      Adam update is excluded from both sides. Losses are checked
//      bit-identical.
//   2. Full Pretrainer::Run wall time at 1/4/8 worker threads; serialized
//      bundles must be byte-identical across every thread count.
//   3. Single-graph inference latency: parallelism-agnostic embeddings of
//      one DAG, baseline vs tape path, checked like (1).
//
// Emits BENCH_mltrain.json. Exits 1 only on a numerics mismatch.
//
// Environment knobs:
//   ST_BENCH_EPOCH_ITERS  epochs for the epoch-throughput section (default 50).
//   ST_BENCH_REPS         timing repetitions; best-of is reported (default 7).
//   ST_BENCH_EPOCHS       Pretrainer epochs per full run (default 40).
//   ST_BENCH_SAMPLES      history samples per job (default 6).
//   ST_BENCH_INFER        inference iterations per engine (default 2000).
//   ST_BENCH_HIDDEN       GNN hidden width (default 32).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/history.h"
#include "core/pretrain.h"
#include "core/serialization.h"
#include "ml/gnn.h"
#include "ml/matrix.h"
#include "ml/nn.h"
#include "ml/tape.h"
#include "workloads/nexmark.h"

using namespace streamtune;

// ---------------------------------------------------------------------------
// The frozen baseline: the old Var autograd engine, verbatim. Only the ops
// on the benched paths (GNN forward, MLP head, masked BCE, backward) are
// kept. Everything allocates exactly like the original did, and every
// Matrix call is an allocating method — the reference path, outside the
// kernel layer.

namespace legacy {

using ml::Matrix;

struct LNode {
  Matrix value;
  Matrix grad;
  bool requires_grad = false;
  std::vector<std::shared_ptr<LNode>> inputs;
  std::function<void()> backward_fn;

  explicit LNode(Matrix v, bool rg) : value(std::move(v)), requires_grad(rg) {}
  bool has_grad() const { return grad.rows() > 0; }
  void AccumGrad(const Matrix& g) {
    if (!has_grad()) {
      grad = g;
    } else {
      grad = grad.Add(g);
    }
  }
  void ZeroGrad() { grad = Matrix(); }
};

using LVar = std::shared_ptr<LNode>;

LVar LConstant(Matrix v) { return std::make_shared<LNode>(std::move(v), false); }
LVar LParam(Matrix v) { return std::make_shared<LNode>(std::move(v), true); }

LVar MakeOp(Matrix value, std::vector<LVar> inputs) {
  auto n = std::make_shared<LNode>(std::move(value), false);
  n->inputs = std::move(inputs);
  return n;
}

LVar MatMul(const LVar& a, const LVar& b) {
  LVar out = MakeOp(a->value.MatMul(b->value), {a, b});
  LNode* o = out.get();
  out->backward_fn = [o, a, b]() {
    a->AccumGrad(o->grad.MatMul(b->value.Transpose()));
    b->AccumGrad(a->value.Transpose().MatMul(o->grad));
  };
  return out;
}

LVar Add(const LVar& a, const LVar& b) {
  LVar out = MakeOp(a->value.Add(b->value), {a, b});
  LNode* o = out.get();
  out->backward_fn = [o, a, b]() {
    a->AccumGrad(o->grad);
    b->AccumGrad(o->grad);
  };
  return out;
}

LVar AddRowBroadcast(const LVar& a, const LVar& row) {
  LVar out = MakeOp(a->value.AddRowBroadcast(row->value), {a, row});
  LNode* o = out.get();
  out->backward_fn = [o, a, row]() {
    a->AccumGrad(o->grad);
    row->AccumGrad(o->grad.SumRows());
  };
  return out;
}

LVar Relu(const LVar& a) {
  Matrix v = a->value;
  for (double& x : v.data()) x = std::max(0.0, x);
  LVar out = MakeOp(std::move(v), {a});
  LNode* o = out.get();
  out->backward_fn = [o, a]() {
    Matrix g = o->grad;
    const auto& in = a->value.data();
    for (size_t i = 0; i < g.data().size(); ++i) {
      if (in[i] <= 0.0) g.data()[i] = 0.0;
    }
    a->AccumGrad(g);
  };
  return out;
}

LVar TanhOp(const LVar& a) {
  Matrix v = a->value;
  for (double& x : v.data()) x = std::tanh(x);
  LVar out = MakeOp(std::move(v), {a});
  LNode* o = out.get();
  out->backward_fn = [o, a]() {
    Matrix g = o->grad;
    const auto& y = o->value.data();
    for (size_t i = 0; i < g.data().size(); ++i) {
      g.data()[i] *= 1.0 - y[i] * y[i];
    }
    a->AccumGrad(g);
  };
  return out;
}

LVar ConcatCols(const LVar& a, const LVar& b) {
  LVar out = MakeOp(a->value.ConcatCols(b->value), {a, b});
  LNode* o = out.get();
  out->backward_fn = [o, a, b]() {
    int ac = a->value.cols();
    a->AccumGrad(o->grad.SliceCols(0, ac));
    b->AccumGrad(o->grad.SliceCols(ac, o->grad.cols()));
  };
  return out;
}

LVar RmsNormRows(const LVar& a, double eps = 1e-6) {
  const int rows = a->value.rows(), cols = a->value.cols();
  Matrix v(rows, cols);
  std::vector<double> inv_rms(rows);
  for (int r = 0; r < rows; ++r) {
    double ms = 0;
    for (int c = 0; c < cols; ++c) ms += a->value.at(r, c) * a->value.at(r, c);
    ms = ms / cols + eps;
    inv_rms[r] = 1.0 / std::sqrt(ms);
    for (int c = 0; c < cols; ++c) v.at(r, c) = a->value.at(r, c) * inv_rms[r];
  }
  LVar out = MakeOp(std::move(v), {a});
  LNode* o = out.get();
  out->backward_fn = [o, a, inv_rms, cols]() {
    Matrix g(a->value.rows(), a->value.cols());
    for (int r = 0; r < g.rows(); ++r) {
      double m = 0;
      for (int c = 0; c < cols; ++c) m += o->grad.at(r, c) * o->value.at(r, c);
      m /= cols;
      for (int c = 0; c < cols; ++c) {
        g.at(r, c) = inv_rms[r] * (o->grad.at(r, c) - o->value.at(r, c) * m);
      }
    }
    a->AccumGrad(g);
  };
  return out;
}

LVar BceWithLogitsMasked(const LVar& logits, const Matrix& targets,
                         const Matrix& mask) {
  double count = 0;
  for (double m : mask.data()) {
    if (m != 0.0) count += 1.0;
  }
  Matrix v(1, 1);
  if (count > 0) {
    double total = 0;
    const auto& z = logits->value.data();
    const auto& y = targets.data();
    const auto& mk = mask.data();
    for (size_t i = 0; i < z.size(); ++i) {
      if (mk[i] == 0.0) continue;
      // Stable: max(z,0) - z*y + log(1 + exp(-|z|)).
      total += std::max(z[i], 0.0) - z[i] * y[i] +
               std::log1p(std::exp(-std::fabs(z[i])));
    }
    v.at(0, 0) = total / count;
  }
  LVar out = MakeOp(std::move(v), {logits});
  LNode* o = out.get();
  Matrix tg = targets, mk = mask;
  out->backward_fn = [o, logits, tg, mk, count]() {
    if (count == 0) return;
    Matrix g(logits->value.rows(), logits->value.cols());
    const auto& z = logits->value.data();
    for (size_t i = 0; i < z.size(); ++i) {
      if (mk.data()[i] == 0.0) continue;
      double s = z[i] >= 0 ? 1.0 / (1.0 + std::exp(-z[i]))
                           : std::exp(z[i]) / (1.0 + std::exp(z[i]));
      g.data()[i] = o->grad.at(0, 0) * (s - tg.data()[i]) / count;
    }
    logits->AccumGrad(g);
  };
  return out;
}

void Backward(const LVar& root) {
  // Post-order DFS for a topological order of the graph above `root`.
  // (The visited set is membership-only, never iterated: determinism-safe.)
  std::vector<LNode*> order;
  std::unordered_set<LNode*> visited;
  visited.insert(root.get());
  std::vector<LVar> node_stack{root};
  std::vector<size_t> idx_stack{0};
  std::vector<LVar> keepalive;
  while (!node_stack.empty()) {
    LVar cur = node_stack.back();
    size_t& i = idx_stack.back();
    if (i < cur->inputs.size()) {
      LVar next = cur->inputs[i++];
      if (visited.insert(next.get()).second) {
        node_stack.push_back(next);
        idx_stack.push_back(0);
      }
    } else {
      order.push_back(cur.get());
      keepalive.push_back(cur);
      node_stack.pop_back();
      idx_stack.pop_back();
    }
  }

  for (LNode* n : order) n->ZeroGrad();
  Matrix seed(1, 1);
  seed.at(0, 0) = 1.0;
  root->grad = seed;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    LNode* n = *it;
    if (n->backward_fn && n->has_grad()) n->backward_fn();
  }
}

// The old GnnEncoder + Mlp forwards, on weights shared with the current
// modules (GnnEncoder::Params() order: input W, input b, then per layer
// w_up/w_dn/w_self/bias, then w_fuse/b_fuse; Mlp::Params(): W, b per
// layer). Like the original, the adjacency is re-derived on every call.
struct LegacyGnn {
  std::vector<LVar> params;  // same order as GnnEncoder::Params()
  int num_layers = 0;

  explicit LegacyGnn(const ml::GnnEncoder& enc)
      : num_layers(enc.config().num_layers) {
    for (const ml::Var& p : enc.Params()) params.push_back(LParam(p->value));
  }

  LVar ForwardAgnostic(const JobGraph& graph, const Matrix& features) const {
    LVar a_up = LConstant(ml::GnnEncoder::NormalizedUpstreamAdj(graph));
    LVar a_dn = LConstant(ml::GnnEncoder::NormalizedDownstreamAdj(graph));
    LVar x = LConstant(features);

    LVar h = RmsNormRows(
        Relu(AddRowBroadcast(MatMul(x, params[0]), params[1])));
    for (int t = 0; t < num_layers; ++t) {
      const LVar& w_up = params[2 + 4 * t];
      const LVar& w_dn = params[3 + 4 * t];
      const LVar& w_self = params[4 + 4 * t];
      const LVar& bias = params[5 + 4 * t];
      LVar msg_up = MatMul(MatMul(a_up, h), w_up);
      LVar msg_dn = MatMul(MatMul(a_dn, h), w_dn);
      LVar self = MatMul(h, w_self);
      LVar m = AddRowBroadcast(Add(Add(msg_up, msg_dn), self), bias);
      h = RmsNormRows(Relu(m));
    }
    return h;
  }

  LVar Forward(const JobGraph& graph, const Matrix& features,
               const Matrix& parallelism_scaled) const {
    LVar agnostic = ForwardAgnostic(graph, features);
    LVar p_col = LConstant(parallelism_scaled);
    const LVar& w_fuse = params[params.size() - 2];
    const LVar& b_fuse = params[params.size() - 1];
    LVar fused = MatMul(ConcatCols(agnostic, p_col), w_fuse);
    return TanhOp(AddRowBroadcast(fused, b_fuse));
  }
};

struct LegacyMlp {
  std::vector<LVar> params;  // W, b per layer

  explicit LegacyMlp(const ml::Mlp& mlp) {
    for (const ml::Var& p : mlp.Params()) params.push_back(LParam(p->value));
  }

  LVar Forward(const LVar& x) const {
    LVar h = x;
    const size_t layers = params.size() / 2;
    for (size_t i = 0; i < layers; ++i) {
      h = AddRowBroadcast(MatMul(h, params[2 * i]), params[2 * i + 1]);
      if (i + 1 < layers) h = Relu(h);
    }
    return h;
  }
};

}  // namespace legacy

namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : fallback;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Hidden() { return EnvInt("ST_BENCH_HIDDEN", 32); }
int Reps() { return EnvInt("ST_BENCH_REPS", 7); }

core::PretrainOptions BenchOptions(int epochs, int threads) {
  core::PretrainOptions opts;
  opts.k = 2;
  opts.epochs = epochs;
  opts.hidden_dim = Hidden();
  opts.gnn_layers = 3;
  opts.num_threads = threads;
  return opts;
}

std::string SerializedBundle(const core::PretrainedBundle& bundle) {
  std::ostringstream os;
  Status s = core::WriteBundleBody(os, bundle);
  if (!s.ok()) {
    std::fprintf(stderr, "WriteBundleBody failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return os.str();
}

struct TrainRun {
  double ms = 0;
  std::string serialized;
};

TrainRun RunTraining(const std::vector<core::HistoryRecord>& corpus,
                     int epochs, int threads) {
  core::Pretrainer trainer(BenchOptions(epochs, threads));
  TrainRun out;
  double t0 = NowMs();
  auto bundle = trainer.Run(corpus);
  out.ms = NowMs() - t0;
  if (!bundle.ok()) {
    std::fprintf(stderr, "Pretrainer::Run failed: %s\n",
                 bundle.status().ToString().c_str());
    std::exit(1);
  }
  out.serialized = SerializedBundle(*bundle);
  return out;
}

ml::Matrix FeatureMatrix(const FeatureEncoder& fe, const JobGraph& g,
                         const std::vector<double>& rates) {
  return ml::Matrix::FromRows(fe.EncodeGraphWithRates(g, rates));
}

ml::Matrix ParallelismColumn(const FeatureEncoder& fe,
                             const std::vector<int>& p) {
  ml::Matrix col(static_cast<int>(p.size()), 1);
  for (size_t i = 0; i < p.size(); ++i) {
    col.at(static_cast<int>(i), 0) = fe.ScaleParallelism(p[i]);
  }
  return col;
}

struct EpochBench {
  double var_ms = 0;
  double tape_ms = 0;
  int samples = 0;
  bool numerics_ok = true;
};

// Epoch throughput: the per-sample forward + backward step exactly as the
// two training loops perform it, minus opt.Step() (Adam is engine-
// independent). Both sides run against the same frozen weights and follow
// identical arithmetic, so per-sample losses must match bit for bit.
EpochBench RunEpochBench(const std::vector<core::HistoryRecord>& corpus,
                         int iters) {
  EpochBench out;
  FeatureEncoder fe;
  ml::GnnConfig gcfg;
  gcfg.feature_dim = FeatureEncoder::FeatureDim();
  gcfg.hidden_dim = Hidden();
  gcfg.num_layers = 3;
  gcfg.seed = 777;
  ml::GnnEncoder encoder(gcfg);
  Rng head_rng(778);
  ml::Mlp head({Hidden(), 16, 1}, ml::Activation::kRelu, &head_rng);
  legacy::LegacyGnn legacy_encoder(encoder);
  legacy::LegacyMlp legacy_head(head);

  // Tape-path inputs: prepared once, reused every epoch (what the tape
  // refactor hoisted out of the epoch loop).
  struct Prepared {
    ml::GraphContext ctx;
    ml::Matrix features, pcol, targets, mask;
    bool any = false;
  };
  std::vector<Prepared> prepared(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const core::HistoryRecord& rec = corpus[i];
    Prepared& ps = prepared[i];
    ps.ctx = ml::GraphContext::Build(rec.graph);
    ps.features = FeatureMatrix(fe, rec.graph, rec.source_rates);
    ps.pcol = ParallelismColumn(fe, rec.parallelism);
    const int n = rec.graph.num_operators();
    ps.targets = ml::Matrix(n, 1);
    ps.mask = ml::Matrix(n, 1);
    for (int v = 0; v < n; ++v) {
      if (rec.labels[v] >= 0) {
        ps.targets.at(v, 0) = rec.labels[v];
        ps.mask.at(v, 0) = 1.0;
        ps.any = true;
      }
    }
    if (ps.any) ++out.samples;
  }

  std::vector<double> baseline_losses;
  ml::Tape tape;

  // Reps interleave the two engines and report best-of so a background noise
  // spike on a shared machine cannot skew one side's measurement.
  for (int rep = 0; rep < Reps(); ++rep) {
    // Baseline epoch: rebuild every per-sample input and re-derive the
    // adjacencies each time, then run the frozen Var-engine replica.
    double t0 = NowMs();
    for (int it = 0; it < iters; ++it) {
      for (const core::HistoryRecord& rec : corpus) {
        const int n = rec.graph.num_operators();
        ml::Matrix targets(n, 1), mask(n, 1);
        bool any = false;
        for (int v = 0; v < n; ++v) {
          if (rec.labels[v] >= 0) {
            targets.at(v, 0) = rec.labels[v];
            mask.at(v, 0) = 1.0;
            any = true;
          }
        }
        if (!any) continue;
        legacy::LVar emb = legacy_encoder.Forward(
            rec.graph, FeatureMatrix(fe, rec.graph, rec.source_rates),
            ParallelismColumn(fe, rec.parallelism));
        legacy::LVar logits = legacy_head.Forward(emb);
        legacy::LVar loss =
            legacy::BceWithLogitsMasked(logits, targets, mask);
        legacy::Backward(loss);
        if (rep == 0 && it == 0) {
          baseline_losses.push_back(loss->value.at(0, 0));
        }
      }
    }
    const double var_ms = NowMs() - t0;
    if (rep == 0 || var_ms < out.var_ms) out.var_ms = var_ms;

    // Tape epoch: hoisted inputs + one persistent tape + the kernel layer.
    size_t li = 0;
    double t1 = NowMs();
    for (int it = 0; it < iters; ++it) {
      for (const Prepared& ps : prepared) {
        if (!ps.any) continue;
        tape.Reset();
        ml::Tape::Ref emb =
            encoder.Forward(&tape, ps.ctx, ps.features, ps.pcol);
        ml::Tape::Ref logits = head.Forward(&tape, emb);
        ml::Tape::Ref loss =
            tape.BceWithLogitsMasked(logits, &ps.targets, &ps.mask);
        tape.Backward(loss);
        if (rep == 0 && it == 0 &&
            tape.value(loss).at(0, 0) != baseline_losses[li++]) {
          out.numerics_ok = false;
        }
      }
    }
    const double tape_ms = NowMs() - t1;
    if (rep == 0 || tape_ms < out.tape_ms) out.tape_ms = tape_ms;
  }
  return out;
}

}  // namespace

int main() {
  const int epoch_iters = EnvInt("ST_BENCH_EPOCH_ITERS", 50);
  const int epochs = EnvInt("ST_BENCH_EPOCHS", 40);
  const int samples = EnvInt("ST_BENCH_SAMPLES", 6);
  const int infer_iters = EnvInt("ST_BENCH_INFER", 2000);
  const std::vector<int> thread_counts = {1, 4, 8};

  std::vector<JobGraph> jobs;
  for (workloads::NexmarkQuery q : workloads::AllNexmarkQueries()) {
    jobs.push_back(workloads::BuildNexmarkJob(q, workloads::Engine::kFlink));
  }
  core::HistoryOptions hopts;
  hopts.samples_per_job = samples;
  std::vector<core::HistoryRecord> corpus = core::CollectHistory(jobs, hopts);
  std::printf("corpus: %zu records over %zu jobs (hidden=%d)\n",
              corpus.size(), jobs.size(), Hidden());

  bool numerics_ok = true;

  // --- 1. GNN training-epoch throughput -------------------------------
  EpochBench eb = RunEpochBench(corpus, epoch_iters);
  const double epoch_speedup = eb.tape_ms > 0 ? eb.var_ms / eb.tape_ms : 0.0;
  std::printf(
      "[epoch] %d epochs x %d samples: baseline %.0f ms -> tape %.0f ms "
      "(%.2fx)\n",
      epoch_iters, eb.samples, eb.var_ms, eb.tape_ms, epoch_speedup);
  if (!eb.numerics_ok) {
    numerics_ok = false;
    std::fprintf(stderr, "EPOCH LOSS NUMERICS MISMATCH\n");
  }

  // --- 2. Full Pretrainer::Run (thread-count identity) -----------------
  std::string reference;
  std::vector<double> run_ms(thread_counts.size());
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    const int t = thread_counts[i];
    std::printf("[run]   %d thread(s)... ", t);
    std::fflush(stdout);
    TrainRun run = RunTraining(corpus, epochs, t);
    run_ms[i] = run.ms;
    std::printf("%.0f ms\n", run.ms);
    if (reference.empty()) reference = run.serialized;
    if (run.serialized != reference) {
      numerics_ok = false;
      std::fprintf(stderr, "RUN IDENTITY MISMATCH at %d thread(s)\n", t);
    }
  }

  // --- 3. Single-graph inference latency ------------------------------
  JobGraph graph = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                              workloads::Engine::kFlink);
  ml::GnnConfig gcfg;
  gcfg.feature_dim = FeatureEncoder::FeatureDim();
  gcfg.hidden_dim = Hidden();
  gcfg.num_layers = 3;
  gcfg.seed = 17;
  ml::GnnEncoder encoder(gcfg);
  legacy::LegacyGnn legacy_encoder(encoder);
  FeatureEncoder fe;
  ml::Matrix features = ml::Matrix::FromRows(fe.EncodeGraph(graph));

  ml::GraphContext ctx = ml::GraphContext::Build(graph);
  ml::Tape tape;
  ml::Matrix var_emb, tape_emb;
  double var_infer_us = 0, tape_infer_us = 0;
  for (int rep = 0; rep < Reps(); ++rep) {
    // Baseline path: exactly what AgnosticEmbeddings did originally —
    // fresh node graph and re-derived adjacency on every call.
    double t0 = NowMs();
    for (int i = 0; i < infer_iters; ++i) {
      legacy::LVar emb = legacy_encoder.ForwardAgnostic(graph, features);
      var_emb = emb->value;
    }
    const double var_us = (NowMs() - t0) * 1000.0 / infer_iters;
    if (rep == 0 || var_us < var_infer_us) var_infer_us = var_us;

    // Tape path: prebuilt GraphContext + one persistent tape.
    double t1 = NowMs();
    for (int i = 0; i < infer_iters; ++i) {
      tape.Reset();
      ml::Tape::Ref emb = encoder.ForwardAgnostic(&tape, ctx, features);
      tape_emb = tape.value(emb);
    }
    const double tape_us = (NowMs() - t1) * 1000.0 / infer_iters;
    if (rep == 0 || tape_us < tape_infer_us) tape_infer_us = tape_us;
  }

  if (!var_emb.same_shape(tape_emb) || var_emb.data() != tape_emb.data()) {
    numerics_ok = false;
    std::fprintf(stderr, "INFERENCE NUMERICS MISMATCH\n");
  }
  const double infer_speedup =
      tape_infer_us > 0 ? var_infer_us / tape_infer_us : 0.0;
  std::printf(
      "[infer] baseline %.1f us/graph -> tape %.1f us/graph  (%.2fx, %d "
      "iters)\n",
      var_infer_us, tape_infer_us, infer_speedup, infer_iters);

  std::printf("\ntrain-epoch speedup: %.2fx; inference speedup: %.2fx; "
              "numerics: %s\n",
              epoch_speedup, infer_speedup, numerics_ok ? "ok" : "BAD (BUG)");

  FILE* f = std::fopen("BENCH_mltrain.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"host\": %s,\n"
                 "  \"corpus_records\": %zu,\n"
                 "  \"hidden_dim\": %d,\n"
                 "  \"epoch\": {\"iters\": %d, \"samples\": %d, "
                 "\"var_ms\": %.1f, \"tape_ms\": %.1f},\n"
                 "  \"train_epoch_speedup\": %.3f,\n"
                 "  \"pretrain_run\": [\n",
                 bench::HostInfoJson().c_str(), corpus.size(), Hidden(),
                 epoch_iters, eb.samples, eb.var_ms, eb.tape_ms,
                 epoch_speedup);
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      std::fprintf(f, "    {\"threads\": %d, \"ms\": %.1f}%s\n",
                   thread_counts[i], run_ms[i],
                   i + 1 < thread_counts.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"pretrain_epochs\": %d,\n"
                 "  \"inference_iters\": %d,\n"
                 "  \"var_infer_us\": %.2f,\n"
                 "  \"tape_infer_us\": %.2f,\n"
                 "  \"inference_speedup\": %.3f,\n"
                 "  \"numerics_ok\": %s\n"
                 "}\n",
                 epochs, infer_iters, var_infer_us, tape_infer_us,
                 infer_speedup, numerics_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_mltrain.json\n");
  }
  return numerics_ok ? 0 : 1;
}
