// Ground-truth performance model of the simulated cluster.
//
// The simulator needs a "physics": how many records per second one parallel
// instance of an operator can process, and how that capacity scales with the
// parallelism degree. Tuners never see this model directly — they only see
// the (noisy) metrics the engine exposes, exactly like on a real cluster.
//
// Capacity is sub-linear in parallelism:
//     PA(p) = base_rate * p / (1 + gamma * (p - 1))
// gamma > 0 models coordination/state-contention overhead. This is the regime
// where DS2's linearity assumption under-shoots and must iterate — the
// mechanism behind the reconfiguration-count gaps in the paper (Fig. 7a).

#pragma once

#include <cstdint>
#include <vector>

#include "dataflow/job_graph.h"
#include "dataflow/operator.h"

namespace streamtune::sim {

/// Per-operator ground-truth cost parameters.
struct CostProfile {
  /// CPU seconds one instance spends per input record.
  double cost_per_record = 1e-5;
  /// Output records per input record.
  double selectivity = 1.0;
  /// Contention coefficient for sub-linear scaling (0 = perfectly linear).
  double scaling_gamma = 0.02;
};

/// Configuration knobs for deriving cost profiles from operator specs.
struct CostModelConfig {
  /// Deterministic per-job jitter applied to base costs (+-fraction).
  double jitter = 0.15;
  /// Seed for the jitter; same seed + same graph => identical physics.
  uint64_t seed = 42;
  /// Global multiplier on all per-record costs (to emulate slower/faster
  /// hardware, e.g. the Timely machine vs the Flink machines).
  double cost_scale = 1.0;
};

/// Derives and stores ground-truth cost profiles for one job.
class PerfModel {
 public:
  PerfModel() = default;

  /// Builds profiles for every operator of `graph`.
  PerfModel(const JobGraph& graph, const CostModelConfig& config);

  /// Overrides the profile of one operator (used by calibrated workloads).
  void SetProfile(int op_id, CostProfile profile);

  const CostProfile& profile(int op_id) const { return profiles_.at(op_id); }
  int num_operators() const { return static_cast<int>(profiles_.size()); }

  /// Ground-truth processing ability (records/second) of operator `op_id`
  /// at parallelism `p` (p >= 1).
  double ProcessingAbility(int op_id, int p) const;

  /// Ground-truth selectivity of operator `op_id`.
  double Selectivity(int op_id) const { return profiles_.at(op_id).selectivity; }

  /// Smallest parallelism (up to `p_max`) whose processing ability reaches
  /// `rate`; returns p_max + 1 if unattainable.
  int MinParallelismFor(int op_id, double rate, int p_max) const;

  /// Derives a cost profile from static operator features alone (no jitter).
  static CostProfile BaseProfile(const OperatorSpec& spec);

 private:
  std::vector<CostProfile> profiles_;
};

}  // namespace streamtune::sim
