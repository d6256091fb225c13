// Common interface for parallelism tuners.
//
// A tuner drives one "tuning process": starting from the engine's current
// deployment (under possibly changed source rates), it reconfigures the job
// until its convergence criterion holds, and reports how it went. All four
// methods (DS2, ContTune, ZeroTune, StreamTune) implement this interface and
// run unchanged on either simulated engine. The three iterative methods run
// their process as a TuningSession, one decision per Step(), so the
// multi-job control plane can interleave thousands of them.

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "sim/engine.h"

namespace streamtune::baselines {

/// What happened during one tuning process.
struct TuningOutcome {
  /// Final per-operator parallelism degrees.
  std::vector<int> final_parallelism;
  /// Sum of the final degrees (the Fig. 6 / Fig. 8a metric).
  int total_parallelism = 0;
  /// Reconfigurations performed by this tuning process.
  int reconfigurations = 0;
  /// Post-deployment measurements that observed job-level backpressure
  /// during this tuning process (transient, while still iterating).
  int backpressure_events = 0;
  /// True when the process ended with unresolved job-level backpressure —
  /// the method declared convergence on a configuration that cannot sustain
  /// the source rates. Table III counts these failures.
  bool ended_with_backpressure = false;
  /// Tuning iterations executed.
  int iterations = 0;
  /// Virtual minutes spent (stabilization waits), for Fig. 7b.
  double tuning_minutes = 0;
  /// Injected/transient faults this process absorbed without dying:
  /// retried engine calls plus corrupted metric samples replaced by the
  /// sanitizer. 0 on a fault-free run.
  int faults_survived = 0;
  /// Engine calls re-attempted after transient failures.
  int retries = 0;
  /// Roll-backs to the last known-good deployment after a regression.
  int rollbacks = 0;
  /// Iterations decided by the DS2 rate rule because the fine-tuned model
  /// could not be fitted (StreamTune only). 0 on a healthy process.
  int model_fallbacks = 0;
  /// Fits of the fine-tuned model this process ran, failed ones included
  /// (StreamTune only). An iteration that reuses the job's last fit, when
  /// no feedback was folded since, runs none.
  int model_fits = 0;
};

/// One resumable tuning process: measure, recommend, redeploy, until the
/// recommendation is stable. Stepping it until Step() returns true and then
/// calling Finish() once is one whole process (RunToCompletion).
class TuningSession {
 public:
  TuningSession() = default;
  virtual ~TuningSession() = default;
  TuningSession(const TuningSession&) = delete;
  TuningSession& operator=(const TuningSession&) = delete;

  /// One decision. True when the process stopped (stable recommendation,
  /// exhausted iteration budget, or graceful degradation on persistent
  /// engine failure).
  virtual Result<bool> Step() = 0;

  /// Final accounting. Call once, after the last Step().
  virtual Result<TuningOutcome> Finish() = 0;
};

/// Steps `session` until it stops, then finishes it.
inline Result<TuningOutcome> RunToCompletion(TuningSession* session) {
  for (;;) {
    ST_ASSIGN_OR_RETURN(bool stopped, session->Step());
    if (stopped) return session->Finish();
  }
}

/// A parallelism tuning method.
class Tuner {
 public:
  virtual ~Tuner() = default;
  virtual std::string name() const = 0;

  /// Runs one tuning process on `engine` (which must already be deployed).
  /// Implementations call engine->Deploy / engine->Measure; counters are
  /// read as deltas so callers need not reset them.
  virtual Result<TuningOutcome> Tune(sim::StreamEngine* engine) = 0;
};

}  // namespace streamtune::baselines
