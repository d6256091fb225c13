// Initial feature vector construction for GNN encoding (Sec. IV-A).
//
// Categorical features from Table I are one-hot encoded; numeric features are
// min-max scaled into [0, 1]. The source rate (the only dynamic feature used
// at this stage) is min-max scaled on a log axis because rates span five
// orders of magnitude across engines (Table II). Operator parallelism is
// deliberately excluded: it is injected later through the FUSE layer.

#pragma once

#include <vector>

#include "dataflow/job_graph.h"
#include "dataflow/operator.h"

namespace streamtune {

/// Encodes operators into fixed-width initial feature vectors h_v^(0).
class FeatureEncoder {
 public:
  /// Normalization bounds. Defaults cover every workload in this repo.
  struct Bounds {
    double max_window_length = 600.0;   // seconds or records
    double max_sliding_length = 600.0;  // seconds or records
    double max_tuple_width = 1024.0;    // bytes
    double max_source_rate = 2.0e7;     // records/second
  };

  FeatureEncoder() = default;
  explicit FeatureEncoder(Bounds bounds) : bounds_(bounds) {}

  /// Number of features encoding the source rate: one min-max scaled log
  /// value plus soft threshold indicators at 10^3..10^7 records/second.
  /// Rates span five orders of magnitude (Table II); multi-resolution
  /// encoding keeps a 10x change visible after several GNN layers.
  static constexpr int kRateFeatures = 6;

  /// Width of every encoded feature vector.
  static constexpr int FeatureDim() {
    return kNumOperatorTypes + kNumWindowTypes + kNumWindowPolicies +
           4 * kNumKeyClasses + kNumAggregateFunctions + 4 + kRateFeatures;
  }

  /// Encodes a single operator.
  std::vector<double> Encode(const OperatorSpec& spec) const;

  /// Encodes every operator in `graph`, in id order.
  std::vector<std::vector<double>> EncodeGraph(const JobGraph& graph) const;

  /// Like EncodeGraph, but with each operator's source rate overridden by
  /// `rates[id]` — the rates in effect at measurement/tuning time rather
  /// than the base W_u baked into the graph.
  std::vector<std::vector<double>> EncodeGraphWithRates(
      const JobGraph& graph, const std::vector<double>& rates) const;

  /// Scales a raw parallelism degree to the model's [0, 1] input range.
  double ScaleParallelism(int parallelism) const;

  /// Upper bound used by ScaleParallelism (matches the Flink setup's
  /// max parallelism of 100).
  static constexpr int kMaxParallelism = 100;

 private:
  Bounds bounds_;
};

}  // namespace streamtune
