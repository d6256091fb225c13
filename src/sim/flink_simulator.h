// Flink-like stream engine simulator.
//
// Exposes exactly the signals a tuner can read off a real Flink cluster:
// busyTimeMsPerSecond / idleTimeMsPerSecond / backPressuredTimeMsPerSecond
// fractions, per-operator CPU load, achieved input/output rates, and a noisy
// "useful time" measurement. Reconfiguration follows the paper's DS2-style
// stop-and-restart protocol, with a virtual stabilization wait accounted per
// deployment so tuning time (Fig. 7b) can be reported.

#pragma once

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "dataflow/job_graph.h"
#include "sim/cost_model.h"
#include "sim/flow_solver.h"

namespace streamtune::sim {

/// Runtime metrics for one logical operator, as a tuner would observe them.
struct OperatorMetrics {
  double busy_frac = 0;           ///< busyTimeMsPerSecond / 1000
  double idle_frac = 0;           ///< idleTimeMsPerSecond / 1000
  double backpressured_frac = 0;  ///< backPressuredTimeMsPerSecond / 1000
  double cpu_load = 0;            ///< average per-instance CPU utilization
  double input_rate = 0;          ///< achieved records/second in
  double output_rate = 0;         ///< achieved records/second out
  double desired_input_rate = 0;  ///< unthrottled demand (rec/s)
  /// Noisy busy-fraction measurement — the "useful time" DS2/ContTune divide
  /// by. Can under- or over-estimate the true busy fraction.
  double useful_time_frac_observed = 0;
  bool backpressured = false;  ///< Flink rule: backpressured_frac > 10%
  bool saturated = false;      ///< running at full capacity
};

/// Job-level metrics for one measurement interval.
struct JobMetrics {
  std::vector<OperatorMetrics> ops;
  /// True when a bottleneck exists anywhere (some operator saturated), i.e.
  /// the job cannot sustain the offered source rates.
  bool job_backpressure = false;
  /// True when the backpressure is *sustained and observable*: some
  /// operator spends more than the engine's flag threshold of its time
  /// backpressured (Flink's 10% rule), or a source is throttled by more
  /// than that margin. Hairline saturation (lambda ~ 0.99) does not count.
  /// This is what an operator team would page on, and what Table III's
  /// backpressure occurrences mean.
  bool severe_backpressure = false;
  /// Sustained fraction of the offered source rates, in (0, 1].
  double lambda = 1.0;
  /// Sum of deployed parallelism degrees (task slots used).
  int total_parallelism = 0;
  /// Effective cores burned: sum over operators of p_v * busy_v.
  double used_cores = 0;

  /// Checks physical invariants (finite values, fractions in [0,1], non-
  /// negative rates, lambda in (0,1], each up to 1e-6 of floating-point
  /// dust) — the first line of defense against corrupted metric samples.
  /// Implemented in sim/metrics_sanitizer.cc.
  Status Validate() const;
};

/// Simulator knobs.
struct SimConfig {
  /// Physical ceiling on per-operator parallelism (paper: 100 slots).
  int max_parallelism = 100;
  /// Relative noise on the useful-time measurement (sigma of a clamped
  /// Gaussian). 0 disables noise.
  double useful_time_noise = 0.08;
  /// An operator counts as backpressured when its backpressured fraction
  /// exceeds this share (Flink's 10% rule, Sec. V-B).
  double backpressure_threshold = 0.10;
  /// Virtual wall-clock minutes charged per stop-and-restart deployment
  /// (paper enforces a 10-minute stabilization wait).
  double stabilization_minutes = 10.0;
  /// Live reconfiguration (the paper's Sec. VII extension, as deployed at
  /// ByteDance): parallelism is applied through runtime APIs without
  /// stopping the job, so a redeployment only costs
  /// `live_stabilization_minutes` of settling time and no downtime.
  bool live_reconfiguration = false;
  double live_stabilization_minutes = 1.0;
  uint64_t noise_seed = 1234;
};

/// A deployed streaming job on the simulated cluster.
class FlinkSimulator {
 public:
  /// The graph must validate; source rates are taken from the graph's source
  /// operator specs and can be changed later with SetSourceRate.
  FlinkSimulator(JobGraph graph, PerfModel model, SimConfig config = {});

  /// Changes the external rate of a source operator (workload fluctuation).
  Status SetSourceRate(int op_id, double rate);
  /// Scales every source to `factor` times its base (construction-time) rate.
  void ScaleAllSources(double factor);

  /// Stops and restarts the job with new parallelism degrees (one per
  /// operator, each in [1, max_parallelism]). Counts a reconfiguration when
  /// the assignment differs from the current one, and charges the
  /// stabilization wait to virtual time.
  Status Deploy(const std::vector<int>& parallelism);

  /// Samples runtime metrics. Requires a prior successful Deploy.
  Result<JobMetrics> Measure();

  const JobGraph& graph() const { return graph_; }
  const std::vector<int>& parallelism() const { return parallelism_; }
  const SimConfig& config() const { return config_; }
  bool deployed() const { return deployed_; }

  int deployment_count() const { return deployment_count_; }
  /// Deployments that changed the parallelism assignment (excludes the
  /// initial deployment).
  int reconfiguration_count() const { return reconfiguration_count_; }
  /// Virtual minutes elapsed in stabilization waits.
  double virtual_minutes() const { return virtual_minutes_; }
  /// Charges extra virtual minutes (retry backoff waits) to the clock.
  void AdvanceVirtualMinutes(double minutes) { virtual_minutes_ += minutes; }
  /// Resets deployment/reconfiguration counters and the virtual clock
  /// (used between tuning processes).
  void ResetCounters();

  /// Ground-truth cost model — for tests and oracle baselines only; tuners
  /// must not read this.
  const PerfModel& perf_model() const { return model_; }

  /// Ground-truth minimum backpressure-free parallelism per operator for the
  /// current source rates (the paper's tuning objective, Sec. II-B). Returns
  /// max_parallelism where even that is insufficient.
  std::vector<int> OracleParallelism() const;

  /// Current external source rates indexed by operator id (0 = non-source).
  const std::vector<double>& source_rates() const { return source_rates_; }

 private:
  FlowResult Solve() const;

  JobGraph graph_;
  PerfModel model_;
  SimConfig config_;
  Rng noise_rng_;

  std::vector<double> source_rates_;
  std::vector<double> selectivity_;
  std::vector<int> parallelism_;
  bool deployed_ = false;
  int deployment_count_ = 0;
  int reconfiguration_count_ = 0;
  double virtual_minutes_ = 0;
};

}  // namespace streamtune::sim
