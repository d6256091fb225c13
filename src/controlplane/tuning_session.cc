#include "controlplane/tuning_session.h"

#include <cstring>

namespace streamtune::controlplane {

namespace {

// FNV-1a over one 64-bit value.
std::uint64_t Fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t DoubleBits(double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

JobTuningSession::JobTuningSession(std::int64_t id, sim::StreamEngine* engine,
                                   std::unique_ptr<core::StreamTuneTuner> tuner,
                                   const baselines::Ds2Options& ds2,
                                   const JobFaultOptions& fault)
    : id_(id),
      engine_(engine),
      tuner_(std::move(tuner)),
      ds2_(ds2),
      fault_(fault),
      mode_(tuner_ ? JobMode::kFull : JobMode::kShed),
      breaker_(fault.breaker) {}

JobTuningSession::~JobTuningSession() = default;

Result<bool> JobTuningSession::StepOnce() {
  if (session_ == nullptr) {
    if (mode_ == JobMode::kFull) {
      // Session creation performs the initial measurement and can fail
      // under faults; a failure feeds the breaker and is retried on the
      // next admitted decision.
      ST_ASSIGN_OR_RETURN(session_, tuner_->NewSession(engine_));
    } else {
      session_ = baselines::Ds2Tuner(ds2_).NewSession(engine_);
    }
  }
  return session_->Step();
}

void JobTuningSession::FoldTrajectory() {
  trajectory_hash_ =
      Fnv1a(trajectory_hash_, static_cast<std::uint64_t>(decisions_));
  for (int p : engine_->parallelism()) {
    trajectory_hash_ = Fnv1a(trajectory_hash_, static_cast<std::uint64_t>(p));
  }
  trajectory_hash_ =
      Fnv1a(trajectory_hash_, DoubleBits(engine_->virtual_minutes()));
}

JobState JobTuningSession::RunDecision() {
  if (state_ != JobState::kRunning) return state_;

  const double before_minutes = engine_->virtual_minutes();
  if (!breaker_.AllowRequest(before_minutes)) {
    // The job idles while the breaker cools. Its virtual clock only
    // advances through its own engine, so charge the remaining cooldown
    // here — otherwise an open breaker would never reach half-open (the
    // clock would stand still) and the job could be skipped forever. The
    // charge depends only on this job's own failures, preserving the
    // per-job determinism contract.
    const double wait = breaker_.reopen_minutes() - before_minutes;
    if (wait > 0) engine_->AdvanceVirtualMinutes(wait);
    return state_;
  }

  Result<bool> stepped = StepOnce();
  if (!stepped.ok()) {
    breaker_.RecordFailure(engine_->virtual_minutes());
    if (breaker_.trip_count() >= fault_.max_breaker_trips) {
      state_ = JobState::kQuarantined;
    }
    return state_;
  }
  breaker_.RecordSuccess();
  ++decisions_;
  FoldTrajectory();

  // Deadline budget: fault retries charge the virtual clock, so a decision
  // that burned far more virtual time than a clean one did hit faults.
  const double cost = engine_->virtual_minutes() - before_minutes;
  if (cost > fault_.decision_deadline_minutes) {
    if (++deadline_strikes_ >= fault_.max_deadline_strikes) {
      state_ = JobState::kQuarantined;
      return state_;
    }
  }

  if (*stepped) {
    Result<baselines::TuningOutcome> out = session_->Finish();
    if (out.ok()) {
      outcome_ = *out;
      has_outcome_ = true;
      state_ = JobState::kConverged;
    } else {
      state_ = JobState::kFailed;
    }
  }
  return state_;
}

}  // namespace streamtune::controlplane
