// GNN encoder for dataflow DAGs (Sec. IV-A).
//
// Message passing runs along both edge directions (an operator's behaviour
// depends on its upstream producers and downstream consumers), with mean
// aggregation:
//
//   H^(0)  = rmsnorm(relu(X W_x + b_x))
//   M^(t)  = A_up H^(t-1) W_up + A_dn H^(t-1) W_dn + H^(t-1) W_self + b
//   H^(t)  = rmsnorm(relu(M^(t)))                       (Eq. 1 + Eq. 2)
//
// Following the paper's parallelism-handling strategy, the parallelism
// degree is incorporated only AFTER all other features are encoded: the
// message-passing output H^(T) is the *parallelism-agnostic* embedding used
// by the online fine-tuning phase, and a single FUSE step
//
//   H' = tanh([H^(T) | p] W_fuse + b_fuse)              (FUSE, Eq. 3)
//
// produces the *parallelism-aware* embedding fed to the pre-training head.
// A_up / A_dn are row-normalized upstream/downstream adjacency matrices;
// RMS normalization between stages keeps activations well-conditioned so
// tanh cannot saturate away per-operator and rate signal.

#pragma once

#include <vector>

#include "common/rng.h"
#include "dataflow/job_graph.h"
#include "ml/nn.h"
#include "ml/param.h"
#include "ml/tape.h"

namespace streamtune::ml {

/// Architecture hyperparameters for the encoder.
struct GnnConfig {
  int feature_dim = 0;  ///< width of the initial node features (required)
  int hidden_dim = 32;
  int num_layers = 3;
  uint64_t seed = 7;
};

/// Per-graph encoder inputs that never change across epochs or fine-tune
/// iterations: the row-normalized adjacency matrices. Build once per unique
/// graph and reuse.
struct GraphContext {
  Matrix a_up;    ///< row-normalized upstream adjacency
  Matrix a_dn;    ///< row-normalized downstream adjacency
  Matrix a_up_t;  ///< a_up transposed, for the backward pass (see
                  ///< Tape::MatMulConst: hoists the transpose out of training)
  Matrix a_dn_t;  ///< a_dn transposed

  static GraphContext Build(const JobGraph& graph);
};

/// The dataflow-DAG encoder: per-operator embeddings of width hidden_dim.
class GnnEncoder {
 public:
  GnnEncoder() = default;
  explicit GnnEncoder(const GnnConfig& config);

  // Tape forwards. The caller owns `ctx`, `features`, and
  // `parallelism_scaled`, which must outlive the tape recording (see Tape's
  // lifetime contract).

  /// Parallelism-agnostic embeddings H^(T): pure message passing over the
  /// static features + source rates. `features` is
  /// num_operators x feature_dim.
  Tape::Ref ForwardAgnostic(Tape* tape, const GraphContext& ctx,
                            const Matrix& features) const;
  /// Applies only the FUSE step to precomputed agnostic embeddings:
  /// tanh([H | p] W_fuse + b_fuse), `parallelism_scaled` num_operators x 1.
  Tape::Ref Fuse(Tape* tape, Tape::Ref agnostic,
                 const Matrix& parallelism_scaled) const;
  /// Parallelism-aware embeddings: FUSE(ForwardAgnostic(...) | p).
  Tape::Ref Forward(Tape* tape, const GraphContext& ctx,
                    const Matrix& features,
                    const Matrix& parallelism_scaled) const;

  std::vector<Var> Params() const;
  const GnnConfig& config() const { return config_; }

  /// Row-normalized adjacency over upstream edges: (A_up)_{v,u} = 1/|up(v)|
  /// for each upstream u of v.
  static Matrix NormalizedUpstreamAdj(const JobGraph& graph);
  /// Row-normalized adjacency over downstream edges.
  static Matrix NormalizedDownstreamAdj(const JobGraph& graph);

 private:
  GnnConfig config_;
  LinearLayer input_proj_;
  struct MessageLayer {
    Var w_up, w_dn, w_self, bias;
  };
  std::vector<MessageLayer> layers_;
  Var w_fuse_, b_fuse_;  // FUSE: (hidden+1) -> hidden
};

}  // namespace streamtune::ml
