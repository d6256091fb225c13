// Numeric-equivalence pins on the ML pipeline: the training and inference
// paths must be bit-deterministic. Every test here asserts BIT-identical
// numerics — full Pretrainer::Run output (serialized weights round-trip
// doubles exactly at precision 17) across thread counts, the classifier
// training loop against a hand-rolled replica, and the bundle's inference
// path against a hand-built tape forward.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "core/history.h"
#include "core/pretrain.h"
#include "core/serialization.h"
#include "ml/nn_classifier.h"
#include "ml/tape.h"
#include "workloads/nexmark.h"

namespace streamtune::core {
namespace {

std::vector<HistoryRecord> NexmarkCorpus() {
  std::vector<JobGraph> jobs;
  for (workloads::NexmarkQuery q : workloads::AllNexmarkQueries()) {
    jobs.push_back(workloads::BuildNexmarkJob(q, workloads::Engine::kFlink));
  }
  HistoryOptions opts;
  opts.samples_per_job = 4;
  return CollectHistory(jobs, opts);
}

PretrainOptions FastOptions() {
  PretrainOptions opts;
  opts.k = 2;
  opts.epochs = 4;
  opts.hidden_dim = 12;
  opts.gnn_layers = 2;
  return opts;
}

std::string SerializedBundle(const PretrainedBundle& bundle) {
  std::ostringstream os;
  Status s = WriteBundleBody(os, bundle);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return os.str();
}

// A full pre-training run — GED clustering, per-cluster GNN+head training,
// every epoch and Adam step — produces byte-identical serialized weights at
// any thread count (every per-cluster RNG stream is drawn up front, and
// every kernel is deterministic).
TEST(MlEquivalenceTest, PretrainerRunBitIdenticalAcrossThreadCounts) {
  std::vector<HistoryRecord> corpus = NexmarkCorpus();

  PretrainOptions serial_opts = FastOptions();
  serial_opts.num_threads = 1;
  auto serial = Pretrainer(serial_opts).Run(corpus);
  ASSERT_TRUE(serial.ok());
  const std::string reference = SerializedBundle(*serial);
  ASSERT_FALSE(reference.empty());

  for (int threads : {2, 8}) {
    PretrainOptions opts = FastOptions();
    opts.num_threads = threads;
    auto bundle = Pretrainer(opts).Run(corpus);
    ASSERT_TRUE(bundle.ok());
    EXPECT_EQ(SerializedBundle(*bundle), reference)
        << "training diverged from the serial run at num_threads=" << threads;
  }
}

// AgnosticEmbeddings runs on a thread-local tape: the embeddings must match
// a direct tape forward of the frozen encoder bit-for-bit, with the
// mean-rate skip connection appended.
TEST(MlEquivalenceTest, AgnosticEmbeddingsMatchDirectTapeForward) {
  std::vector<HistoryRecord> corpus = NexmarkCorpus();
  PretrainOptions opts = FastOptions();
  auto bundle = Pretrainer(opts).Run(corpus);
  ASSERT_TRUE(bundle.ok());

  const FeatureEncoder& fe = bundle->feature_encoder();
  for (const HistoryRecord& rec : bundle->records()) {
    const int c = bundle->AssignCluster(rec.graph);
    ml::Matrix got =
        bundle->AgnosticEmbeddings(c, rec.graph, rec.source_rates);

    // Reference: one fresh tape over the same encoder and features.
    ml::Matrix features = ml::Matrix::FromRows(
        fe.EncodeGraphWithRates(rec.graph, rec.source_rates));
    ml::GraphContext ctx = ml::GraphContext::Build(rec.graph);
    ml::Tape tape;
    const ml::Matrix& emb = tape.value(
        bundle->cluster(c).encoder.ForwardAgnostic(&tape, ctx, features));
    const int n = rec.graph.num_operators();
    const int r_dim = FeatureEncoder::kRateFeatures;
    ASSERT_EQ(got.rows(), n);
    ASSERT_EQ(got.cols(), emb.cols() + r_dim);
    for (int v = 0; v < n; ++v) {
      for (int j = 0; j < emb.cols(); ++j) {
        EXPECT_EQ(got.at(v, j), emb.at(v, j))
            << rec.graph.name() << " op " << v << " dim " << j;
      }
    }
  }
}

// NnClassifier::Fit runs on a persistent tape; replicating the training
// loop by hand must land on bit-identical predictions.
TEST(MlEquivalenceTest, NnClassifierFitMatchesTapeLoop) {
  const int dim = 6;
  ml::NnClassifierConfig cfg;
  cfg.epochs = 30;
  std::vector<ml::LabeledSample> data;
  Rng rng(3);
  for (int i = 0; i < 24; ++i) {
    ml::LabeledSample s;
    for (int j = 0; j < dim; ++j) s.embedding.push_back(rng.Uniform());
    s.parallelism = 1 + static_cast<int>(i % 8);
    s.label = s.parallelism < 4 ? 1 : 0;
    data.push_back(std::move(s));
  }
  ml::NnClassifier classifier(dim, cfg);
  ASSERT_TRUE(classifier.Fit(data).ok());

  // Reference: the Fit loop, replicated verbatim on a local tape.
  const int n = static_cast<int>(data.size());
  constexpr double kScale = ml::NnClassifier::kParallelismScale;
  ml::Matrix x(n, dim + 1);
  ml::Matrix y(n, 1);
  ml::Matrix mask(n, 1, 1.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) x.at(i, j) = data[i].embedding[j];
    x.at(i, dim) = data[i].parallelism / kScale;
    y.at(i, 0) = data[i].label == 1 ? 1.0 : 0.0;
  }
  Rng init(ml::NnClassifier::kSeed);
  ml::Mlp mlp({dim + 1, ml::NnClassifier::kHiddenDim,
               ml::NnClassifier::kHiddenDim, 1},
              ml::Activation::kRelu, &init);
  ml::Adam opt(mlp.Params(), ml::NnClassifier::kLearningRate);
  ml::Tape tape;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    tape.Reset();
    ml::Tape::Ref logits = mlp.Forward(&tape, tape.Constant(&x));
    ml::Tape::Ref loss = tape.BceWithLogitsMasked(logits, &y, &mask);
    tape.Backward(loss);
    opt.Step();
  }

  for (const ml::LabeledSample& s : data) {
    ml::Matrix probe(1, dim + 1);
    for (int j = 0; j < dim; ++j) probe.at(0, j) = s.embedding[j];
    probe.at(0, dim) = s.parallelism / kScale;
    tape.Reset();
    ml::Tape::Ref out = mlp.Forward(&tape, tape.Constant(&probe));
    double expected = Sigmoid(tape.value(out).at(0, 0));
    EXPECT_EQ(classifier.PredictProbability(s.embedding, s.parallelism),
              expected);
  }
}

}  // namespace
}  // namespace streamtune::core
