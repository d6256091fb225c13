#include "ml/nn.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace streamtune::ml {
namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

// One Adam update of the n weights w with gradients g and moments m, v.
// Restrict-qualified raw spans, and -fno-math-errno on this file (see
// src/ml/CMakeLists.txt) so std::sqrt is one instruction instead of a
// possible errno-setting call: GCC vectorizes this loop at -O3. Vector sqrt
// and div round exactly as the scalar ones, so every element gets the same
// value either way.
//
// A first moment that decays below the smallest normal double is stored as
// 0. The zero gradients of a dead ReLU unit shrink m by 0.9 a step (6,724
// steps take m = 1 below it), and once subnormal, m stays there for good,
// because 0.9 * k * 2^-1074 rounds back to itself for k <= 5: every later
// step would pay the subnormal penalty on it. The flush leaves the weights
// bit-identical: a subnormal m moves w by at most lr * 2.2e-299, which
// rounds away against any |w| above about 1e-282, and a later gradient of
// normal size absorbs it in m.
//
// kDivideFirstMoment is false once bc1 = 1 - beta1^t has rounded to exactly
// 1.0 (from t = 356 on): m / 1.0 == m, so dropping the division leaves every
// bit as it was.
template <bool kDivideFirstMoment>
void AdamUpdate(const double* __restrict g, double* __restrict m,
                double* __restrict v, double* __restrict w, size_t n,
                double lr, double bc1, double bc2) {
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  for (size_t k = 0; k < n; ++k) {
    const double mk = kBeta1 * m[k] + (1.0 - kBeta1) * g[k];
    m[k] = std::abs(mk) < kMinNormal ? 0.0 : mk;
    v[k] = kBeta2 * v[k] + (1.0 - kBeta2) * g[k] * g[k];
    const double mhat = kDivideFirstMoment ? m[k] / bc1 : m[k];
    const double vhat = v[k] / bc2;
    w[k] -= lr * mhat / (std::sqrt(vhat) + kEps);
  }
}

}  // namespace

Tape::Ref Activate(Tape* tape, Tape::Ref x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return tape->Relu(x);
    case Activation::kTanh:
      return tape->Tanh(x);
    case Activation::kSigmoid:
      return tape->Sigmoid(x);
    case Activation::kNone:
      return x;
  }
  return x;
}

LinearLayer::LinearLayer(int in_dim, int out_dim, Rng* rng)
    : W_(Param(Matrix::GlorotUniform(in_dim, out_dim, rng))),
      b_(Param(Matrix::Zeros(1, out_dim))) {}

Tape::Ref LinearLayer::Forward(Tape* tape, Tape::Ref x) const {
  return tape->AddRowBroadcast(tape->MatMul(x, tape->Param(W_)),
                               tape->Param(b_));
}

Mlp::Mlp(const std::vector<int>& dims, Activation hidden_act, Rng* rng)
    : hidden_act_(hidden_act) {
  assert(dims.size() >= 2);
  in_dim_ = dims.front();
  out_dim_ = dims.back();
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Tape::Ref Mlp::Forward(Tape* tape, Tape::Ref x) const {
  Tape::Ref h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(tape, h);
    if (i + 1 < layers_.size()) h = Activate(tape, h, hidden_act_);
  }
  return h;
}

std::vector<Var> Mlp::Params() const {
  std::vector<Var> ps;
  for (const auto& layer : layers_) {
    for (const Var& p : layer.Params()) ps.push_back(p);
  }
  return ps;
}

Adam::Adam(std::vector<Var> params, double lr)
    : params_(std::move(params)), lr_(lr) {
  for (const Var& p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::Step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(kBeta1, t_);
  const double bc2 = 1.0 - std::pow(kBeta2, t_);
  for (size_t i = 0; i < params_.size(); ++i) {
    Var& p = params_[i];
    if (!p->has_grad()) continue;
    const double* g = p->grad.data().data();
    double* m = m_[i].data().data();
    double* v = v_[i].data().data();
    double* w = p->value.data().data();
    const size_t n = p->value.size();
    if (bc1 == 1.0) {
      AdamUpdate<false>(g, m, v, w, n, lr_, bc1, bc2);
    } else {
      AdamUpdate<true>(g, m, v, w, n, lr_, bc1, bc2);
    }
  }
  ZeroGrad();
}

void Adam::ZeroGrad() {
  // Capacity-retaining, so tape-driven training rewrites param grads each
  // step without allocating.
  for (Var& p : params_) p->grad.Clear();
}

}  // namespace streamtune::ml
