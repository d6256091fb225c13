#include "sim/cost_model.h"

#include <cassert>
#include <cmath>
#include <string>

#include "common/math_util.h"
#include "common/rng.h"

namespace streamtune::sim {

namespace {

// FNV-1a over the operator name, mixed with the config seed, so per-operator
// jitter is stable across runs but varies across jobs/operators.
uint64_t HashName(const std::string& name, uint64_t seed) {
  uint64_t h = 1469598103934665603ULL ^ seed;
  for (char c : name) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

CostProfile PerfModel::BaseProfile(const OperatorSpec& spec) {
  CostProfile p;
  switch (spec.type) {
    case OperatorType::kSource:
      p.cost_per_record = 2e-6;
      p.selectivity = 1.0;
      p.scaling_gamma = 0.005;
      break;
    case OperatorType::kMap:
      p.cost_per_record = 5e-6;
      p.selectivity = 1.0;
      p.scaling_gamma = 0.005;
      break;
    case OperatorType::kFilter:
      p.cost_per_record = 4e-6;
      p.selectivity = 0.4;
      p.scaling_gamma = 0.005;
      break;
    case OperatorType::kFlatMap:
      p.cost_per_record = 8e-6;
      p.selectivity = 1.8;
      p.scaling_gamma = 0.005;
      break;
    case OperatorType::kJoin:
      p.cost_per_record = 2e-5;
      p.selectivity = 0.8;
      p.scaling_gamma = 0.015;
      break;
    case OperatorType::kWindowJoin:
      p.cost_per_record = 1.5e-5;
      p.selectivity = 0.5;
      p.scaling_gamma = 0.012;
      break;
    case OperatorType::kAggregate:
      p.cost_per_record = 1.5e-5;
      p.selectivity = 0.05;
      p.scaling_gamma = 0.01;
      break;
    case OperatorType::kSink:
      p.cost_per_record = 3e-6;
      p.selectivity = 0.0;
      p.scaling_gamma = 0.005;
      break;
  }

  // Stateful windowing costs more; sliding windows amplify work by the
  // overlap factor (each record lives in window/slide panes).
  if (spec.window_type != WindowType::kNone && spec.window_length > 0) {
    double window_factor = 1.0 + 0.5 * spec.window_length / 300.0;
    if (spec.window_type == WindowType::kSliding && spec.sliding_length > 0) {
      double overlap = spec.window_length / spec.sliding_length;
      window_factor *= 1.0 + 0.05 * Clamp(overlap, 1.0, 20.0);
    }
    p.cost_per_record *= window_factor;
  }

  // Wider tuples cost more to (de)serialize.
  if (spec.tuple_width_in > 0) {
    p.cost_per_record *= 1.0 + 0.3 * spec.tuple_width_in / 512.0;
  }
  return p;
}

PerfModel::PerfModel(const JobGraph& graph, const CostModelConfig& config) {
  profiles_.reserve(graph.num_operators());
  for (int i = 0; i < graph.num_operators(); ++i) {
    const OperatorSpec& spec = graph.op(i);
    CostProfile p = BaseProfile(spec);
    Rng rng(HashName(graph.name() + "/" + spec.name, config.seed));
    double jitter = 1.0 + config.jitter * (2.0 * rng.Uniform() - 1.0);
    p.cost_per_record *= jitter * config.cost_scale;
    profiles_.push_back(p);
  }
}

void PerfModel::SetProfile(int op_id, CostProfile profile) {
  assert(op_id >= 0 && op_id < num_operators());
  profiles_[op_id] = profile;
}

double PerfModel::ProcessingAbility(int op_id, int p) const {
  assert(p >= 1);
  const CostProfile& c = profiles_.at(op_id);
  double effective_instances =
      static_cast<double>(p) / (1.0 + c.scaling_gamma * (p - 1));
  return effective_instances / c.cost_per_record;
}

int PerfModel::MinParallelismFor(int op_id, double rate, int p_max) const {
  if (rate <= 0) return 1;
  // PA is strictly increasing in p (gamma < 1), so binary search applies.
  if (ProcessingAbility(op_id, p_max) < rate) return p_max + 1;
  int lo = 1, hi = p_max;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (ProcessingAbility(op_id, mid) >= rate) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace streamtune::sim
