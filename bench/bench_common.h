// Shared experiment plumbing for the per-table/per-figure bench binaries.
//
// Each bench binary reproduces one table or figure from the paper's
// evaluation. They share the same construction of engines, corpora,
// pre-trained bundles and schedule-driven tuning runs, defined here.
//
// Environment knobs:
//   ST_BENCH_SCHEDULE  number of source-rate changes per query (default 40;
//                      the paper's full periodic pattern is 120).
//   ST_BENCH_SAMPLES   history samples per job for pre-training corpora
//                      (default 30).

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/conttune.h"
#include "baselines/ds2.h"
#include "baselines/tuner.h"
#include "baselines/zerotune.h"
#include "common/table_printer.h"
#include "core/history.h"
#include "core/pretrain.h"
#include "core/streamtune_tuner.h"
#include "sim/engine.h"
#include "timelysim/timely_simulator.h"
#include "workloads/cost_config.h"
#include "workloads/nexmark.h"
#include "workloads/pqp.h"
#include "workloads/rate_schedule.h"

namespace streamtune::bench {

/// Reads an integer environment knob with a default.
int EnvInt(const char* name, int fallback);

/// Host provenance for BENCH_*.json files: the thread count, as a JSON
/// object, e.g. {"hardware_concurrency": 8} — perf numbers are only
/// comparable across runs with matching host objects.
std::string HostInfoJson();

/// Number of rate changes driven per query in schedule experiments.
int ScheduleLength();

/// Fresh Flink-like engine for `job` with the workload-matched calibration.
std::unique_ptr<sim::StreamEngine> MakeFlinkEngine(const JobGraph& job,
                                                   uint64_t seed = 7);
/// Fresh Timely-like engine for `job`.
std::unique_ptr<timelysim::TimelySimulator> MakeTimelyEngine(
    const JobGraph& job, uint64_t seed = 7);

/// The jobs used to build the Flink pre-training corpus: all Nexmark
/// queries plus a slice of PQP variants (mirrors Fig. 5's mixture).
std::vector<JobGraph> FlinkCorpusJobs();

/// Collects the Flink pre-training corpus (paper defaults).
std::vector<core::HistoryRecord> CollectFlinkCorpus();

/// Collects a Timely pre-training corpus over Q3/Q5/Q8.
std::vector<core::HistoryRecord> CollectTimelyCorpus();

/// Pre-trains a bundle over `corpus` (clustered by default).
std::shared_ptr<core::PretrainedBundle> Pretrain(
    std::vector<core::HistoryRecord> corpus, bool use_clustering = true,
    int k = 0);

/// Trains a ZeroTune cost model from history records.
std::unique_ptr<baselines::ZeroTuneTuner> TrainZeroTune(
    const std::vector<core::HistoryRecord>& corpus);

/// Builds one tuner per method. StreamTune instances share `bundle`.
std::unique_ptr<baselines::Tuner> MakeTuner(
    const std::string& method,
    std::shared_ptr<core::PretrainedBundle> bundle,
    const std::vector<core::HistoryRecord>* zerotune_corpus = nullptr);

/// Aggregate results of driving one tuner through the rate schedule on one
/// job (one simulated engine instance).
struct ScheduleResult {
  std::string method;
  std::string job;
  /// Final total parallelism after the last tuning process at 10 W_u.
  int parallelism_at_10x = 0;
  /// Ground-truth minimal total at 10 W_u.
  int oracle_at_10x = 0;
  /// Mean reconfigurations per tuning process.
  double avg_reconfigurations = 0;
  /// Tuning processes that ended with sustained backpressure (Table III).
  int backpressure_failures = 0;
  /// Virtual tuning minutes per process (stabilization waits).
  std::vector<double> tuning_minutes;
  /// Rate multiplier per process, aligned with tuning_minutes.
  std::vector<double> rate_multipliers;
  /// Mean CPU utilization across operators after each tuning process.
  std::vector<double> cpu_utilization;
};

/// Runs `tuner` through `schedule_length` rate changes of the periodic
/// pattern on a fresh engine for `job`, ending with one extra process at
/// 10 W_u (the Fig. 6 / Fig. 8a measurement point).
ScheduleResult RunSchedule(const JobGraph& job, baselines::Tuner* tuner,
                           const std::function<std::unique_ptr<
                               sim::StreamEngine>(const JobGraph&)>& factory,
                           int schedule_length);

/// Convenience overload on the Flink engine.
ScheduleResult RunFlinkSchedule(const JobGraph& job, baselines::Tuner* tuner,
                                int schedule_length);

}  // namespace streamtune::bench
