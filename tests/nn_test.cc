#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "ml/nn.h"
#include "ml/tape.h"

namespace streamtune::ml {
namespace {

TEST(LinearLayerTest, ShapesAndBias) {
  Rng rng(1);
  LinearLayer layer(4, 3, &rng);
  Matrix x(5, 4, 1.0);
  Tape tape;
  Tape::Ref y = layer.Forward(&tape, tape.Constant(&x));
  EXPECT_EQ(tape.value(y).rows(), 5);
  EXPECT_EQ(tape.value(y).cols(), 3);
  EXPECT_EQ(layer.Params().size(), 2u);
}

TEST(MlpTest, ForwardShape) {
  Rng rng(2);
  Mlp mlp({6, 8, 4, 1}, Activation::kRelu, &rng);
  EXPECT_EQ(mlp.in_dim(), 6);
  EXPECT_EQ(mlp.out_dim(), 1);
  EXPECT_EQ(mlp.Params().size(), 6u);  // 3 layers x (W, b)
  Matrix x(7, 6, 0.5);
  Tape tape;
  Tape::Ref y = mlp.Forward(&tape, tape.Constant(&x));
  EXPECT_EQ(tape.value(y).rows(), 7);
  EXPECT_EQ(tape.value(y).cols(), 1);
}

TEST(AdamTest, MinimizesQuadratic) {
  // minimize ||x - t||^2; Adam should get close to t.
  Var x = Param(Matrix(1, 3, 0.0));
  Matrix target(1, 3);
  target.at(0, 0) = 1.0;
  target.at(0, 1) = -2.0;
  target.at(0, 2) = 0.5;
  Adam opt({x}, 0.05);
  Tape tape;
  for (int i = 0; i < 500; ++i) {
    tape.Reset();
    Tape::Ref loss = tape.MseLoss(tape.Param(x), &target);
    tape.Backward(loss);
    opt.Step();
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(x->value.at(0, c), target.at(0, c), 1e-2);
  }
}

TEST(AdamTest, ZeroGradClearsGradients) {
  Var x = Param(Matrix(1, 1, 1.0));
  Adam opt({x}, 0.1);
  Matrix target(1, 1, 0.0);
  Tape tape;
  Tape::Ref loss = tape.MseLoss(tape.Param(x), &target);
  tape.Backward(loss);
  EXPECT_TRUE(x->has_grad());
  opt.ZeroGrad();
  EXPECT_FALSE(x->has_grad());
}

TEST(AdamTest, SubnormalFirstMomentsLeaveWeightsUnchanged) {
  // Three real gradients, then 9,000 zero ones (a dead unit): the first
  // moments decay through the subnormal range, which Adam flushes to zero.
  // A replica of the textbook update without the flush must produce the
  // same weight bits after every step.
  const std::vector<double> w0 = {0.75, -1.25, 2.0, -0.5};
  const std::vector<double> g0 = {0.3, -2.0, 1.0, 4.5};
  constexpr double kLr = 0.01;
  Var x = Param(Matrix(1, 4));
  for (int c = 0; c < 4; ++c) x->value.at(0, c) = w0[c];
  Adam opt({x}, kLr);

  std::vector<double> ref_w = w0, ref_m(4, 0.0), ref_v(4, 0.0);
  bool crossed_subnormal = false;
  int mismatches = 0;
  for (int t = 1; t <= 3 + 9000; ++t) {
    const double scale = t <= 3 ? 1.0 : 0.0;
    x->grad = Matrix(1, 4);
    for (int c = 0; c < 4; ++c) x->grad.at(0, c) = scale * g0[c];
    opt.Step();

    const double bc1 = 1.0 - std::pow(0.9, t);
    const double bc2 = 1.0 - std::pow(0.999, t);
    for (int c = 0; c < 4; ++c) {
      const double g = scale * g0[c];
      ref_m[c] = 0.9 * ref_m[c] + (1.0 - 0.9) * g;
      ref_v[c] = 0.999 * ref_v[c] + (1.0 - 0.999) * g * g;
      ref_w[c] -= kLr * (ref_m[c] / bc1) /
                  (std::sqrt(ref_v[c] / bc2) + 1e-8);
      if (std::fpclassify(ref_m[c]) == FP_SUBNORMAL) crossed_subnormal = true;
      if (std::bit_cast<uint64_t>(x->value.at(0, c)) !=
          std::bit_cast<uint64_t>(ref_w[c])) {
        ++mismatches;
      }
    }
  }
  ASSERT_TRUE(crossed_subnormal);
  EXPECT_EQ(mismatches, 0);
}

TEST(AdamTest, UnitBiasCorrectionLeavesWeightsUnchanged) {
  // From t = 356 on, 1 - 0.9^t rounds to exactly 1.0 and Adam no longer
  // divides the first moment by it. A replica of the textbook update, which
  // always divides, must produce the same weight bits after every step,
  // before and after the switch.
  ASSERT_LT(1.0 - std::pow(0.9, 355), 1.0);
  ASSERT_EQ(1.0 - std::pow(0.9, 356), 1.0);
  constexpr int kWidth = 6;
  constexpr double kLr = 0.003;
  Rng rng(356);
  Var x = Param(Matrix(1, kWidth));
  std::vector<double> ref_w(kWidth), ref_m(kWidth, 0.0), ref_v(kWidth, 0.0);
  for (int c = 0; c < kWidth; ++c) {
    ref_w[c] = rng.Uniform(-1.0, 1.0);
    x->value.at(0, c) = ref_w[c];
  }
  Adam opt({x}, kLr);
  int mismatches = 0;
  for (int t = 1; t <= 1000; ++t) {
    x->grad = Matrix(1, kWidth);
    std::vector<double> g(kWidth);
    for (int c = 0; c < kWidth; ++c) {
      g[c] = rng.Uniform(-2.0, 2.0);
      x->grad.at(0, c) = g[c];
    }
    opt.Step();

    const double bc1 = 1.0 - std::pow(0.9, t);
    const double bc2 = 1.0 - std::pow(0.999, t);
    for (int c = 0; c < kWidth; ++c) {
      ref_m[c] = 0.9 * ref_m[c] + (1.0 - 0.9) * g[c];
      ref_v[c] = 0.999 * ref_v[c] + (1.0 - 0.999) * g[c] * g[c];
      ref_w[c] -= kLr * (ref_m[c] / bc1) /
                  (std::sqrt(ref_v[c] / bc2) + 1e-8);
      if (std::bit_cast<uint64_t>(x->value.at(0, c)) !=
          std::bit_cast<uint64_t>(ref_w[c])) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(MlpTest, LearnsXor) {
  // XOR is not linearly separable: requires the hidden layer to work.
  Rng rng(3);
  Mlp mlp({2, 8, 1}, Activation::kTanh, &rng);
  Matrix x = Matrix::FromRows({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  Matrix y = Matrix::FromRows({{0}, {1}, {1}, {0}});
  Matrix mask(4, 1, 1.0);
  Adam opt(mlp.Params(), 0.02);
  Tape tape;
  for (int epoch = 0; epoch < 1500; ++epoch) {
    tape.Reset();
    Tape::Ref logits = mlp.Forward(&tape, tape.Constant(&x));
    Tape::Ref loss = tape.BceWithLogitsMasked(logits, &y, &mask);
    tape.Backward(loss);
    opt.Step();
  }
  tape.Reset();
  Tape::Ref logits = mlp.Forward(&tape, tape.Constant(&x));
  for (int i = 0; i < 4; ++i) {
    double prob = Sigmoid(tape.value(logits).at(i, 0));
    EXPECT_NEAR(prob, y.at(i, 0), 0.2) << "input row " << i;
  }
}

TEST(ActivateTest, AppliesRequestedFunction) {
  Matrix x(1, 1, -1.0);
  auto apply = [&x](Activation act) {
    Tape tape;
    return tape.value(Activate(&tape, tape.Constant(&x), act)).at(0, 0);
  };
  EXPECT_DOUBLE_EQ(apply(Activation::kRelu), 0.0);
  EXPECT_NEAR(apply(Activation::kTanh), std::tanh(-1.0), 1e-12);
  EXPECT_NEAR(apply(Activation::kSigmoid), Sigmoid(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(apply(Activation::kNone), -1.0);
}

}  // namespace
}  // namespace streamtune::ml
