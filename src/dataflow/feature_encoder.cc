#include "dataflow/feature_encoder.h"

#include <cmath>

#include "common/math_util.h"

namespace streamtune {

namespace {

void OneHot(std::vector<double>* out, int value, int cardinality) {
  for (int i = 0; i < cardinality; ++i) {
    out->push_back(i == value ? 1.0 : 0.0);
  }
}

}  // namespace

std::vector<double> FeatureEncoder::Encode(const OperatorSpec& spec) const {
  std::vector<double> f;
  f.reserve(FeatureDim());
  OneHot(&f, static_cast<int>(spec.type), kNumOperatorTypes);
  OneHot(&f, static_cast<int>(spec.window_type), kNumWindowTypes);
  OneHot(&f, static_cast<int>(spec.window_policy), kNumWindowPolicies);
  OneHot(&f, static_cast<int>(spec.join_key_class), kNumKeyClasses);
  OneHot(&f, static_cast<int>(spec.aggregate_class), kNumKeyClasses);
  OneHot(&f, static_cast<int>(spec.aggregate_key_class), kNumKeyClasses);
  OneHot(&f, static_cast<int>(spec.aggregate_function),
         kNumAggregateFunctions);
  OneHot(&f, static_cast<int>(spec.tuple_data_type), kNumKeyClasses);

  f.push_back(MinMaxScale(spec.window_length, 0.0, bounds_.max_window_length));
  f.push_back(
      MinMaxScale(spec.sliding_length, 0.0, bounds_.max_sliding_length));
  f.push_back(MinMaxScale(spec.tuple_width_in, 0.0, bounds_.max_tuple_width));
  f.push_back(MinMaxScale(spec.tuple_width_out, 0.0, bounds_.max_tuple_width));
  // Multi-resolution source-rate encoding: a log-axis min-max value plus
  // soft threshold indicators at 10^3..10^7 rec/s, so rate differences
  // survive several rounds of message passing.
  f.push_back(MinMaxScale(std::log1p(spec.source_rate), 0.0,
                          std::log1p(bounds_.max_source_rate)));
  double log10_rate = std::log10(1.0 + spec.source_rate);
  for (int k = 3; k <= 7; ++k) {
    f.push_back(Sigmoid(2.0 * (log10_rate - k)));
  }
  return f;
}

std::vector<std::vector<double>> FeatureEncoder::EncodeGraph(
    const JobGraph& graph) const {
  std::vector<std::vector<double>> out;
  out.reserve(graph.num_operators());
  for (const OperatorSpec& spec : graph.operators()) {
    out.push_back(Encode(spec));
  }
  return out;
}

std::vector<std::vector<double>> FeatureEncoder::EncodeGraphWithRates(
    const JobGraph& graph, const std::vector<double>& rates) const {
  std::vector<std::vector<double>> out;
  out.reserve(graph.num_operators());
  for (int i = 0; i < graph.num_operators(); ++i) {
    OperatorSpec spec = graph.op(i);
    spec.source_rate = rates[i];
    out.push_back(Encode(spec));
  }
  return out;
}

double FeatureEncoder::ScaleParallelism(int parallelism) const {
  return MinMaxScale(static_cast<double>(parallelism), 0.0,
                     static_cast<double>(kMaxParallelism));
}

}  // namespace streamtune
