#include <gtest/gtest.h>

#include "dataflow/feature_encoder.h"
#include "ml/gnn.h"
#include "ml/tape.h"
#include "workloads/nexmark.h"
#include "workloads/pqp.h"

namespace streamtune::ml {
namespace {

JobGraph Q3() {
  return workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                    workloads::Engine::kFlink);
}

GnnConfig SmallConfig() {
  GnnConfig cfg;
  cfg.feature_dim = FeatureEncoder::FeatureDim();
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  return cfg;
}

Matrix Features(const JobGraph& g) {
  FeatureEncoder enc;
  return Matrix::FromRows(enc.EncodeGraph(g));
}

// One-shot tape forwards; the returned Matrix is a copy, safe past the
// tape's lifetime.
Matrix AgnosticValue(const GnnEncoder& enc, const JobGraph& g,
                     const Matrix& features) {
  GraphContext ctx = GraphContext::Build(g);
  Tape tape;
  return tape.value(enc.ForwardAgnostic(&tape, ctx, features));
}

Matrix ForwardValue(const GnnEncoder& enc, const JobGraph& g,
                    const Matrix& features, const Matrix& p_scaled) {
  GraphContext ctx = GraphContext::Build(g);
  Tape tape;
  return tape.value(enc.Forward(&tape, ctx, features, p_scaled));
}

TEST(GnnTest, AdjacencyNormalization) {
  JobGraph g = Q3();
  Matrix up = GnnEncoder::NormalizedUpstreamAdj(g);
  Matrix dn = GnnEncoder::NormalizedDownstreamAdj(g);
  for (int v = 0; v < g.num_operators(); ++v) {
    double up_sum = 0, dn_sum = 0;
    for (int u = 0; u < g.num_operators(); ++u) {
      up_sum += up.at(v, u);
      dn_sum += dn.at(v, u);
    }
    EXPECT_NEAR(up_sum, g.upstream(v).empty() ? 0.0 : 1.0, 1e-12);
    EXPECT_NEAR(dn_sum, g.downstream(v).empty() ? 0.0 : 1.0, 1e-12);
  }
}

TEST(GnnTest, ForwardShapeAndRange) {
  JobGraph g = Q3();
  GnnEncoder enc(SmallConfig());
  Matrix h = AgnosticValue(enc, g, Features(g));
  EXPECT_EQ(h.rows(), g.num_operators());
  EXPECT_EQ(h.cols(), 16);
  // RMS-normalized rows: mean square of each row is 1.
  for (int r = 0; r < h.rows(); ++r) {
    double ms = 0;
    for (int c = 0; c < 16; ++c) ms += h.at(r, c) * h.at(r, c);
    EXPECT_NEAR(ms / 16, 1.0, 1e-4);
  }
}

TEST(GnnTest, FusedEmbeddingsNotSaturated) {
  // The tanh FUSE output must not collapse to +-1 (that would erase
  // per-operator and rate signal).
  JobGraph g = Q3();
  GnnEncoder enc(SmallConfig());
  Matrix h = ForwardValue(enc, g, Features(g),
                          Matrix(g.num_operators(), 1, 0.3));
  int interior = 0;
  for (double v : h.data()) {
    if (std::fabs(v) < 0.9) ++interior;
  }
  EXPECT_GT(interior, static_cast<int>(h.size()) / 2);
}

TEST(GnnTest, DistinctOperatorsGetDistinctEmbeddings) {
  JobGraph g = Q3();
  GnnEncoder enc(SmallConfig());
  Matrix h = AgnosticValue(enc, g, Features(g));
  // Source (op 0) vs join should differ noticeably.
  int join = -1;
  for (int v = 0; v < g.num_operators(); ++v) {
    if (g.op(v).type == OperatorType::kJoin) join = v;
  }
  ASSERT_GE(join, 0);
  double dist = 0;
  for (int c = 0; c < h.cols(); ++c) {
    double d = h.at(0, c) - h.at(join, c);
    dist += d * d;
  }
  EXPECT_GT(std::sqrt(dist), 0.1);
}

TEST(GnnTest, SourceRateChangesEmbeddings) {
  JobGraph g = Q3();
  GnnEncoder enc(SmallConfig());
  FeatureEncoder fenc;
  std::vector<double> low(g.num_operators(), 0.0);
  std::vector<double> high(g.num_operators(), 0.0);
  for (int v = 0; v < g.num_operators(); ++v) {
    if (g.op(v).is_source()) {
      low[v] = 1e4;
      high[v] = 1e6;
    }
  }
  Matrix h_low = AgnosticValue(
      enc, g, Matrix::FromRows(fenc.EncodeGraphWithRates(g, low)));
  Matrix h_high = AgnosticValue(
      enc, g, Matrix::FromRows(fenc.EncodeGraphWithRates(g, high)));
  double dist = h_low.Sub(h_high).SquaredNorm();
  EXPECT_GT(dist, 1e-4);
}

TEST(GnnTest, ParallelismInjectionChangesEmbeddings) {
  JobGraph g = Q3();
  GnnEncoder enc(SmallConfig());
  Matrix f = Features(g);
  Matrix p_low(g.num_operators(), 1, 0.01);
  Matrix p_high(g.num_operators(), 1, 0.8);
  Matrix h1 = ForwardValue(enc, g, f, p_low);
  Matrix h2 = ForwardValue(enc, g, f, p_high);
  EXPECT_GT(h1.Sub(h2).SquaredNorm(), 1e-4);
}

TEST(GnnTest, AgnosticEmbeddingIsParallelismFree) {
  // The agnostic path must not depend on parallelism at all; the FUSE step
  // applies on top of it (paper: parallelism incorporated only after all
  // other features are encoded).
  JobGraph g = Q3();
  GnnEncoder enc(SmallConfig());
  Matrix f = Features(g);
  Matrix pcol(g.num_operators(), 1, 0.3);
  GraphContext ctx = GraphContext::Build(g);
  Tape tape;
  Tape::Ref agn = enc.ForwardAgnostic(&tape, ctx, f);
  Tape::Ref fused = enc.Fuse(&tape, agn, pcol);
  EXPECT_EQ(tape.value(fused).rows(), tape.value(agn).rows());
  EXPECT_EQ(tape.value(fused).cols(),
            tape.value(agn).cols());  // width preserved
  Matrix direct = ForwardValue(enc, g, f, pcol);
  EXPECT_DOUBLE_EQ(direct.Sub(tape.value(fused)).SquaredNorm(), 0.0);
}

TEST(GnnTest, ParamCount) {
  GnnEncoder enc(SmallConfig());
  // input proj (W, b) + per layer (w_up, w_dn, w_self, bias) + FUSE (W, b).
  EXPECT_EQ(enc.Params().size(), 2u + 2u * 4u + 2u);
}

TEST(GnnTest, DeterministicForSeed) {
  JobGraph g = Q3();
  GnnConfig cfg = SmallConfig();
  GnnEncoder a(cfg), b(cfg);
  Matrix f = Features(g);
  EXPECT_DOUBLE_EQ(
      AgnosticValue(a, g, f).Sub(AgnosticValue(b, g, f)).SquaredNorm(), 0.0);
  cfg.seed = 1234;
  GnnEncoder c(cfg);
  EXPECT_GT(
      AgnosticValue(a, g, f).Sub(AgnosticValue(c, g, f)).SquaredNorm(), 0.0);
}

TEST(GnnTest, StructureMatters) {
  // The same operator specs arranged differently must embed differently.
  JobGraph chain("chain");
  OperatorSpec src;
  src.name = "s";
  src.type = OperatorType::kSource;
  src.source_rate = 1e5;
  OperatorSpec m1;
  m1.name = "m1";
  m1.type = OperatorType::kMap;
  OperatorSpec m2;
  m2.name = "m2";
  m2.type = OperatorType::kFilter;
  OperatorSpec sink;
  sink.name = "k";
  sink.type = OperatorType::kSink;

  int a0 = chain.AddOperator(src);
  int a1 = chain.AddOperator(m1);
  int a2 = chain.AddOperator(m2);
  int a3 = chain.AddOperator(sink);
  ASSERT_TRUE(chain.AddEdge(a0, a1).ok());
  ASSERT_TRUE(chain.AddEdge(a1, a2).ok());
  ASSERT_TRUE(chain.AddEdge(a2, a3).ok());

  JobGraph fan("fan");
  int b0 = fan.AddOperator(src);
  int b1 = fan.AddOperator(m1);
  int b2 = fan.AddOperator(m2);
  int b3 = fan.AddOperator(sink);
  ASSERT_TRUE(fan.AddEdge(b0, b1).ok());
  ASSERT_TRUE(fan.AddEdge(b0, b2).ok());
  ASSERT_TRUE(fan.AddEdge(b1, b3).ok());
  ASSERT_TRUE(fan.AddEdge(b2, b3).ok());

  GnnEncoder enc(SmallConfig());
  Matrix h_chain = AgnosticValue(enc, chain, Features(chain));
  Matrix h_fan = AgnosticValue(enc, fan, Features(fan));
  EXPECT_GT(h_chain.Sub(h_fan).SquaredNorm(), 1e-6);
}

}  // namespace
}  // namespace streamtune::ml
