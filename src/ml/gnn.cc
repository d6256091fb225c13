#include "ml/gnn.h"

#include <cassert>

namespace streamtune::ml {

GnnEncoder::GnnEncoder(const GnnConfig& config) : config_(config) {
  assert(config.feature_dim > 0);
  Rng rng(config.seed);
  input_proj_ = LinearLayer(config.feature_dim, config.hidden_dim, &rng);
  for (int t = 0; t < config.num_layers; ++t) {
    MessageLayer layer;
    layer.w_up =
        Param(Matrix::GlorotUniform(config.hidden_dim, config.hidden_dim, &rng));
    layer.w_dn =
        Param(Matrix::GlorotUniform(config.hidden_dim, config.hidden_dim, &rng));
    layer.w_self =
        Param(Matrix::GlorotUniform(config.hidden_dim, config.hidden_dim, &rng));
    layer.bias = Param(Matrix::Zeros(1, config.hidden_dim));
    layers_.push_back(std::move(layer));
  }
  w_fuse_ = Param(
      Matrix::GlorotUniform(config.hidden_dim + 1, config.hidden_dim, &rng));
  b_fuse_ = Param(Matrix::Zeros(1, config.hidden_dim));
}

GraphContext GraphContext::Build(const JobGraph& graph) {
  GraphContext ctx;
  ctx.a_up = GnnEncoder::NormalizedUpstreamAdj(graph);
  ctx.a_dn = GnnEncoder::NormalizedDownstreamAdj(graph);
  ctx.a_up_t = ctx.a_up.Transpose();
  ctx.a_dn_t = ctx.a_dn.Transpose();
  return ctx;
}

Matrix GnnEncoder::NormalizedUpstreamAdj(const JobGraph& graph) {
  int n = graph.num_operators();
  Matrix a(n, n);
  for (int v = 0; v < n; ++v) {
    const auto& ups = graph.upstream(v);
    if (ups.empty()) continue;
    double w = 1.0 / static_cast<double>(ups.size());
    for (int u : ups) a.at(v, u) = w;
  }
  return a;
}

Matrix GnnEncoder::NormalizedDownstreamAdj(const JobGraph& graph) {
  int n = graph.num_operators();
  Matrix a(n, n);
  for (int v = 0; v < n; ++v) {
    const auto& dns = graph.downstream(v);
    if (dns.empty()) continue;
    double w = 1.0 / static_cast<double>(dns.size());
    for (int d : dns) a.at(v, d) = w;
  }
  return a;
}

Tape::Ref GnnEncoder::ForwardAgnostic(Tape* tape, const GraphContext& ctx,
                                      const Matrix& features) const {
  assert(features.rows() == ctx.a_up.rows());
  assert(features.cols() == config_.feature_dim);

  Tape::Ref x = tape->Constant(&features);

  Tape::Ref h = tape->RmsNormRows(tape->Relu(input_proj_.Forward(tape, x)));
  for (const MessageLayer& layer : layers_) {
    Tape::Ref msg_up = tape->MatMul(
        tape->MatMulConst(&ctx.a_up, &ctx.a_up_t, h), tape->Param(layer.w_up));
    Tape::Ref msg_dn = tape->MatMul(
        tape->MatMulConst(&ctx.a_dn, &ctx.a_dn_t, h), tape->Param(layer.w_dn));
    Tape::Ref self = tape->MatMul(h, tape->Param(layer.w_self));
    Tape::Ref m = tape->AddRowBroadcast(
        tape->Add(tape->Add(msg_up, msg_dn), self), tape->Param(layer.bias));
    h = tape->RmsNormRows(tape->Relu(m));
  }
  return h;
}

Tape::Ref GnnEncoder::Fuse(Tape* tape, Tape::Ref agnostic,
                           const Matrix& parallelism_scaled) const {
  assert(parallelism_scaled.rows() == tape->value(agnostic).rows());
  assert(parallelism_scaled.cols() == 1);
  Tape::Ref p_col = tape->Constant(&parallelism_scaled);
  Tape::Ref fused =
      tape->MatMul(tape->ConcatCols(agnostic, p_col), tape->Param(w_fuse_));
  return tape->Tanh(tape->AddRowBroadcast(fused, tape->Param(b_fuse_)));
}

Tape::Ref GnnEncoder::Forward(Tape* tape, const GraphContext& ctx,
                              const Matrix& features,
                              const Matrix& parallelism_scaled) const {
  return Fuse(tape, ForwardAgnostic(tape, ctx, features), parallelism_scaled);
}

std::vector<Var> GnnEncoder::Params() const {
  std::vector<Var> ps = input_proj_.Params();
  for (const MessageLayer& layer : layers_) {
    ps.push_back(layer.w_up);
    ps.push_back(layer.w_dn);
    ps.push_back(layer.w_self);
    ps.push_back(layer.bias);
  }
  ps.push_back(w_fuse_);
  ps.push_back(b_fuse_);
  return ps;
}

}  // namespace streamtune::ml
