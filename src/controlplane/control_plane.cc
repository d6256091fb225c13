#include "controlplane/control_plane.h"

#include <algorithm>

#include "core/history.h"
#include "core/labeling.h"

namespace streamtune::controlplane {

namespace {

/// Scheduler resolution: decisions due within one tick form one wave.
constexpr double kTickMinutes = 1.0;
/// Deterministic start stagger: job `id` first runs at tick
/// id % kStaggerSlots, so fleet-sized waves do not all arrive at once.
constexpr int kStaggerSlots = 16;

}  // namespace

ControlPlane::ControlPlane(kb::KbService* kb, ControlPlaneOptions options)
    : kb_(kb),
      snapshot_(kb ? kb->Snapshot() : nullptr),
      options_(std::move(options)),
      pool_(options_.num_threads),
      queue_(kTickMinutes) {}

ControlPlane::~ControlPlane() = default;

Status ControlPlane::AddJob(std::int64_t id, sim::StreamEngine* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("AddJob: null engine");
  }
  if (jobs_.count(id) != 0) {
    return Status::InvalidArgument("AddJob: duplicate job id " +
                                   std::to_string(id));
  }
  if (engine->parallelism().empty() || engine->deployment_count() == 0) {
    return Status::FailedPrecondition(
        "AddJob: engine must be deployed before registration (job " +
        std::to_string(id) + ")");
  }

  // Admission control, in AddJob order: which jobs ride the expensive
  // StreamTune path depends only on the fleet composition, never on
  // faults, so a chaos storm cannot move the shed boundary.
  std::unique_ptr<core::StreamTuneTuner> tuner;
  if (snapshot_ != nullptr &&
      full_sessions_ < options_.full_admission.capacity) {
    ++full_sessions_;
    tuner = snapshot_->NewTuner(engine->graph().name(), options_.streamtune);
  }
  auto session = std::make_unique<JobTuningSession>(
      id, engine, std::move(tuner), options_.ds2, options_.fault);
  jobs_.emplace(id, std::move(session));

  queue_.Schedule(id, static_cast<double>(id % kStaggerSlots) * kTickMinutes);
  return Status::OK();
}

const JobTuningSession* ControlPlane::job(std::int64_t id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void ControlPlane::AdmitToKb(JobTuningSession* job) {
  sim::StreamEngine* engine = job->engine();
  kb::AdmissionRecord rec;
  rec.record.graph = engine->graph();
  rec.record.parallelism = engine->parallelism();
  rec.record.source_rates = engine->current_source_rates();
  // One labeling measurement of the final deployment. It runs after the
  // trajectory is final, so its clock cost never perturbs the decision
  // sequence; under faults it can fail, which skips the admission.
  Result<sim::JobMetrics> metrics = engine->Measure();
  if (!metrics.ok()) {
    ++kb_admit_failures_;
    return;
  }
  rec.record.labels = core::LabelBottlenecks(engine->graph(), *metrics);
  rec.record.job_cost = core::JobCost(*metrics);
  rec.record.backpressure = metrics->job_backpressure;
  rec.feedback = job->tuner()->FeedbackFor(engine->graph().name());
  if (kb_->Admit(rec).ok()) {
    ++kb_admitted_;
  } else {
    ++kb_admit_failures_;
  }
}

Result<ControlPlaneReport> ControlPlane::Run() {
  ControlPlaneReport report;
  report.jobs = static_cast<int>(jobs_.size());
  const bool timed = static_cast<bool>(options_.wall_clock);
  const double t0 = timed ? options_.wall_clock() : 0;

  while (queue_.size() > 0) {
    if (report.rounds >= options_.max_rounds) {
      // Fleet watchdog: whatever is still scheduled at the cap is
      // force-quarantined; Run() must terminate even if every job wedged.
      for (auto& [id, job] : jobs_) {
        if (job->state() == JobState::kRunning) {
          job->Quarantine();
          ++report.watchdog_terminations;
        }
      }
      break;
    }
    ++report.rounds;

    const std::vector<std::int64_t> due = queue_.PopDueBatch();
    if (due.empty()) continue;
    report.max_round_batch = std::max(report.max_round_batch, due.size());

    std::vector<JobTuningSession*> wave(due.size(), nullptr);
    for (std::size_t i = 0; i < due.size(); ++i) {
      wave[i] = jobs_.at(due[i]).get();
    }

    // Decision wave: every job touches only its own state, so the wave is
    // embarrassingly parallel; outcomes are folded serially below, in job
    // id order (PopDueBatch returns ids ascending).
    std::vector<double> latency_ms(due.size(), 0);
    pool_.ParallelFor(0, static_cast<std::int64_t>(due.size()),
                      [&](std::int64_t i) {
                        const double s =
                            timed ? options_.wall_clock() : 0;
                        wave[static_cast<std::size_t>(i)]->RunDecision();
                        if (timed) {
                          latency_ms[static_cast<std::size_t>(i)] =
                              (options_.wall_clock() - s) * 1e3;
                        }
                      });

    for (std::size_t i = 0; i < due.size(); ++i) {
      JobTuningSession* job = wave[i];
      if (timed) decision_latencies_ms_.push_back(latency_ms[i]);
      if (job->state() == JobState::kRunning) {
        // Pace by the job's own virtual clock.
        queue_.Schedule(job->id(), job->engine()->virtual_minutes() +
                                       options_.decision_period_minutes);
      } else if (job->state() == JobState::kConverged &&
                 job->mode() == JobMode::kFull) {
        AdmitToKb(job);  // full mode implies a KB
      }
    }
  }

  if (timed) {
    report.wall_seconds = options_.wall_clock() - t0;
  }
  for (const auto& [id, job] : jobs_) {
    JobReport jr;
    jr.id = id;
    jr.mode = job->mode();
    jr.state = job->state();
    jr.decisions = job->decisions();
    jr.breaker_trips = job->breaker().trip_count();
    jr.deadline_strikes = job->deadline_strikes();
    jr.trajectory_hash = job->trajectory_hash();
    for (int p : job->engine()->parallelism()) jr.total_parallelism += p;
    const baselines::TuningOutcome* out = job->outcome();
    jr.converged_clean = out != nullptr && !out->ended_with_backpressure;
    report.decisions += jr.decisions;
    if (jr.mode == JobMode::kFull) {
      ++report.full_jobs;
    } else {
      ++report.shed_jobs;
    }
    switch (jr.state) {
      case JobState::kConverged:
        ++report.converged;
        if (jr.mode == JobMode::kFull) ++report.converged_full;
        if (jr.mode == JobMode::kShed) ++report.converged_shed;
        if (jr.converged_clean) ++report.converged_clean;
        break;
      case JobState::kQuarantined:
        ++report.quarantined;
        break;
      case JobState::kFailed:
        ++report.failed;
        break;
      case JobState::kRunning:
        break;
    }
    report.job_reports.push_back(jr);
  }
  report.kb_admitted = kb_admitted_;
  report.kb_admit_failures = kb_admit_failures_;

  if (timed && report.wall_seconds > 0) {
    report.decisions_per_sec = report.decisions / report.wall_seconds;
  }
  if (!decision_latencies_ms_.empty()) {
    std::vector<double> sorted = decision_latencies_ms_;
    std::sort(sorted.begin(), sorted.end());
    auto quantile = [&](double q) {
      return sorted[static_cast<std::size_t>(q * (sorted.size() - 1))];
    };
    report.p50_decision_ms = quantile(0.50);
    report.p99_decision_ms = quantile(0.99);
  }
  return report;
}

}  // namespace streamtune::controlplane
