// Tape-based reverse-mode autodiff — the allocation-free successor of the
// dynamic Var-graph engine this repo started with (deleted once every
// consumer migrated here).
//
// That engine rebuilt a shared_ptr<Node> graph per training step: one
// heap node, one std::function closure and several transposed temporaries
// per op, plus a DFS with an unordered_set to order the backward pass. This
// engine records the same op sequence onto a flat tape instead:
//
//  - nodes live in an arena (a plain vector of POD-ish records) and are
//    addressed by index (Tape::Ref), so recording an op is a bounds-checked
//    push, not an allocation;
//  - every node's value and gradient live in reusable Matrix slots that are
//    reshaped (capacity-retaining) rather than reallocated, so a steady-state
//    training epoch performs zero heap allocations (asserted by the reuse
//    test via ArenaStats);
//  - Reset() rewinds the tape logically but keeps all capacity, so one tape
//    per worker serves every sample of every epoch;
//  - the backward pass walks the arena in reverse recording order and uses
//    the transpose-free kernels (MatMulNTInto / MatMulTNInto), so no
//    transposed temporary is ever materialized.
//
// Bit-identity with the retired Var engine (pinned while both coexisted,
// now the contract of this engine alone): each op's forward and backward
// kernels perform the identical floating-point operations in the identical
// order (see matrix.h kernel contracts),
// gradient accumulation keeps first-contribution-copies semantics, and
// reverse recording order executes the consumers of every shared node in
// the same relative order as a reverse post-order DFS for all model graphs
// in this repo (ops are recorded bottom-up, left-to-right). tape_test pins
// these numerics against hand-composed Matrix references.
//
// Parameters are ml::Var handles to the slim {value, grad} Node in
// ml/param.h — the surviving remnant of the Var engine's node type.
//
// Lifetime contract: Constant() and the loss ops store *pointers* to
// caller-owned matrices — they must outlive the tape ops that reference
// them (they always do in this repo: hoisted per-sample buffers or stack
// locals that live across the Backward call).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/matrix.h"
#include "ml/param.h"

namespace streamtune::ml {

class Tape {
 public:
  /// Index of a node on the tape (valid until the next Reset).
  using Ref = int32_t;

  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Rewinds the tape for the next recording. All arena and buffer capacity
  /// is retained; only the logical node count drops to zero.
  void Reset();

  // ---- Leaves --------------------------------------------------------------

  /// Wraps a caller-owned constant (no gradient flows into it, and its
  /// gradient is never computed). The pointed-to matrix is NOT copied.
  Ref Constant(const Matrix* value);
  /// Wraps a trainable parameter. Gradients accumulate into `param->grad`
  /// with exactly the Var engine's AccumGrad semantics.
  Ref Param(const Var& param);

  // ---- Differentiable operations ------------------------------------------

  Ref MatMul(Ref a, Ref b);
  /// a * value(b) where `a` is a caller-owned constant whose transpose `at`
  /// the caller has precomputed (e.g. the per-graph adjacencies hoisted into
  /// GraphContext). The backward pass then runs the contiguous row-major
  /// kernel on `at` instead of the strided transposed-operand kernel —
  /// bit-identical, since at(r, k) == a(k, r) gives every gradient element
  /// the same ascending-k addition chain and the same zero-skips.
  Ref MatMulConst(const Matrix* a, const Matrix* at, Ref b);
  Ref Add(Ref a, Ref b);
  Ref Sub(Ref a, Ref b);
  Ref Hadamard(Ref a, Ref b);
  Ref Scale(Ref a, double s);
  /// Adds a 1 x C bias row to every row of `a`.
  Ref AddRowBroadcast(Ref a, Ref row);
  Ref Relu(Ref a);
  Ref Tanh(Ref a);
  Ref Sigmoid(Ref a);
  /// Horizontal concatenation [a | b].
  Ref ConcatCols(Ref a, Ref b);
  /// Mean over rows -> 1 x C.
  Ref MeanRows(Ref a);
  /// Row-wise RMS normalization: y_r = x_r / sqrt(mean(x_r^2) + eps).
  /// Keeps hidden activations well-conditioned between GNN layers (prevents
  /// tanh saturation in the FUSE step).
  Ref RmsNormRows(Ref a, double eps = 1e-6);
  /// Sum of all entries -> 1 x 1.
  Ref SumAll(Ref a);

  // ---- Losses --------------------------------------------------------------

  /// Masked binary cross-entropy on logits; `targets`/`mask` are
  /// caller-owned N x 1 matrices (pointers stored, must outlive Backward).
  Ref BceWithLogitsMasked(Ref logits, const Matrix* targets,
                          const Matrix* mask);
  /// Mean squared error against a caller-owned constant target.
  Ref MseLoss(Ref pred, const Matrix* target);

  // ---- Execution -----------------------------------------------------------

  /// Reverse-mode differentiation from `root` (must be 1 x 1). Zeroes the
  /// gradients of every referenced parameter first (like the Var engine's
  /// Backward), then accumulates into parameter grads.
  void Backward(Ref root);

  /// The forward value of a node.
  const Matrix& value(Ref r) const;
  /// The gradient accumulated at a node by the last Backward (empty if the
  /// node received none). Parameters keep theirs in param->grad instead.
  const Matrix& grad(Ref r) const;
  bool has_grad(Ref r) const { return has_grad_[r] != 0; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // ---- Allocation telemetry ------------------------------------------------

  /// Snapshot of every capacity the tape owns. Two equal snapshots around a
  /// training epoch prove the epoch performed zero tape/arena allocations.
  struct Stats {
    size_t node_capacity = 0;     ///< arena slots (node records)
    size_t matrix_slots = 0;      ///< value/grad/aux slot count
    size_t buffer_doubles = 0;    ///< summed heap capacity of all buffers
    bool operator==(const Stats&) const = default;
  };
  Stats ArenaStats() const;

 private:
  enum class Op : uint8_t {
    kConstant,
    kParam,
    kMatMul,
    kMatMulConst,
    kAdd,
    kSub,
    kHadamard,
    kScale,
    kAddRowBroadcast,
    kRelu,
    kTanh,
    kSigmoid,
    kConcatCols,
    kMeanRows,
    kRmsNormRows,
    kSumAll,
    kBce,
    kMse,
  };

  struct NodeRec {
    Op op;
    Ref a = -1;
    Ref b = -1;
    /// Scale factor / RmsNorm eps / BCE labeled count / MSE element count.
    double scalar = 0.0;
    /// Parameter leaf (kParam).
    Node* param = nullptr;
    /// External value (kConstant/kMatMulConst) or loss target (kBce/kMse).
    const Matrix* ext = nullptr;
    /// Loss mask (kBce) or precomputed transpose (kMatMulConst).
    const Matrix* ext2 = nullptr;
    /// True when a parameter is reachable below this node; gradients are
    /// only computed along requiring paths (dead constant gradients the Var
    /// engine wastes work on are skipped — they are never read).
    bool requires_grad = false;
  };

  /// Appends a node and returns its index; the aligned value/grad/aux slots
  /// grow only while the tape is warming up.
  Ref Push(const NodeRec& rec);
  bool Requires(Ref r) const { return nodes_[r].requires_grad; }
  Ref Unary(Op op, Ref a);
  Ref Binary(Op op, Ref a, Ref b);
  /// AccumGrad equivalent: first contribution copies, later ones add.
  void Contribute(Ref input, const Matrix& g);
  /// Buffer a backward kernel should write `input`'s full contribution into:
  /// the gradient slot itself when this is the first contribution (saving the
  /// scratch-then-copy round trip), scratch_ otherwise. Every BeginContribution
  /// must be paired with EndContribution on the same input.
  Matrix* BeginContribution(Ref input);
  void EndContribution(Ref input, Matrix* dest);
  /// Pass-through contribution of node i's own gradient to `input` (identity
  /// backward of Add & co.). A first contribution is moved — node i's grad
  /// buffer is swapped into the input's slot, dodging the copy — so it must
  /// be the final use of grad_[i] in i's BackwardStep.
  void PassThrough(Ref i, Ref input);
  void BackwardStep(Ref i);

  std::vector<NodeRec> nodes_;       // arena; cleared (capacity kept) on Reset
  std::vector<Matrix> val_;          // grow-only, index-aligned with nodes_
  std::vector<Matrix> grad_;         // grow-only
  std::vector<std::vector<double>> aux_;  // per-node scalars (RmsNorm 1/rms)
  std::vector<uint8_t> has_grad_;
  Matrix scratch_;                   // staging buffer for grad contributions
};

}  // namespace streamtune::ml
