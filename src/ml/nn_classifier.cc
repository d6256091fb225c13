#include "ml/nn_classifier.h"

#include <cassert>

#include "common/math_util.h"

namespace streamtune::ml {

NnClassifier::NnClassifier(int embedding_dim, NnClassifierConfig config)
    : embedding_dim_(embedding_dim), config_(config) {
  assert(embedding_dim > 0);
  Rng rng(kSeed);
  mlp_ = Mlp({embedding_dim_ + 1, kHiddenDim, kHiddenDim, 1},
             Activation::kRelu, &rng);
}

Status NnClassifier::Fit(const std::vector<LabeledSample>& data) {
  ST_RETURN_NOT_OK(CheckTrainingSet(data, embedding_dim_));
  const int n = static_cast<int>(data.size());
  Matrix x(n, embedding_dim_ + 1);
  Matrix y(n, 1);
  Matrix mask(n, 1, 1.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < embedding_dim_; ++j) {
      x.at(i, j) = data[i].embedding[j];
    }
    x.at(i, embedding_dim_) =
        data[i].parallelism / kParallelismScale;
    y.at(i, 0) = data[i].label == 1 ? 1.0 : 0.0;
  }

  // Re-initialize so every Fit is a fresh retrain on the full dataset.
  Rng rng(kSeed);
  mlp_ = Mlp({embedding_dim_ + 1, kHiddenDim, kHiddenDim, 1},
             Activation::kRelu, &rng);
  Adam opt(mlp_.Params(), kLearningRate);
  // One tape for the whole training run: after the first epoch records the
  // op sequence, later epochs reuse every buffer (zero allocations).
  Tape tape;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    tape.Reset();
    Tape::Ref logits = mlp_.Forward(&tape, tape.Constant(&x));
    Tape::Ref loss = tape.BceWithLogitsMasked(logits, &y, &mask);
    tape.Backward(loss);
    opt.Step();
  }
  return Status::OK();
}

double NnClassifier::PredictProbability(const std::vector<double>& h,
                                        int parallelism) const {
  // thread_local so concurrent predictions (kb_service) each reuse their
  // own buffers; the tape never allocates once warmed up.
  thread_local Tape tape;
  thread_local Matrix x;
  x.SetShape(1, embedding_dim_ + 1);
  for (int j = 0; j < embedding_dim_; ++j) x.at(0, j) = h[j];
  x.at(0, embedding_dim_) = parallelism / kParallelismScale;
  tape.Reset();
  Tape::Ref out = mlp_.Forward(&tape, tape.Constant(&x));
  return Sigmoid(tape.value(out).at(0, 0));
}

}  // namespace streamtune::ml
