// Neural-network building blocks on top of the tape autograd: linear
// layers, multilayer perceptrons, and the Adam optimizer.

#pragma once

#include <vector>

#include "common/rng.h"
#include "ml/param.h"
#include "ml/tape.h"

namespace streamtune::ml {

/// Activation functions available to Mlp hidden layers.
enum class Activation { kRelu, kTanh, kSigmoid, kNone };

/// Records the chosen activation onto the tape.
Tape::Ref Activate(Tape* tape, Tape::Ref x, Activation act);

/// A fully connected layer y = x W + b.
class LinearLayer {
 public:
  LinearLayer() = default;
  LinearLayer(int in_dim, int out_dim, Rng* rng);

  /// Records y = x W + b onto `tape`.
  Tape::Ref Forward(Tape* tape, Tape::Ref x) const;
  std::vector<Var> Params() const { return {W_, b_}; }

 private:
  Var W_, b_;
};

/// A small MLP: Linear -> act -> ... -> Linear (no activation on output).
class Mlp {
 public:
  Mlp() = default;
  /// `dims` = {in, hidden..., out}; needs at least {in, out}.
  Mlp(const std::vector<int>& dims, Activation hidden_act, Rng* rng);

  /// Records the full Linear -> act -> ... -> Linear stack onto `tape`.
  Tape::Ref Forward(Tape* tape, Tape::Ref x) const;
  std::vector<Var> Params() const;
  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }

 private:
  std::vector<LinearLayer> layers_;
  Activation hidden_act_ = Activation::kRelu;
  int in_dim_ = 0, out_dim_ = 0;
};

/// Adam optimizer over a fixed parameter list, with the standard
/// beta1 = 0.9, beta2 = 0.999 and eps = 1e-8.
class Adam {
 public:
  explicit Adam(std::vector<Var> params, double lr = 1e-3);

  /// Applies one update using each parameter's accumulated gradient,
  /// then clears the gradients.
  void Step();
  void ZeroGrad();

 private:
  std::vector<Var> params_;
  std::vector<Matrix> m_, v_;
  double lr_;
  int t_ = 0;
};

}  // namespace streamtune::ml
