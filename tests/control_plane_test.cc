// Tests for the multi-job tuning control plane: admission order, scheduler
// edge cases (zero-job fleet, single job, all-quarantined, the round-cap
// watchdog), inline KB admission leaving every trajectory untouched,
// pinned shed-fleet trajectories under a chaos storm, the chaos-storm
// determinism contract (healthy jobs bit-identical to a chaos-free run),
// and a 10k-job concurrent smoke that doubles as the TSan target.
//
// Three tests pin decisions to a hash: the shed fleet (DS2), the full-mode
// fleet with inline admissions, and a long-lived StreamTune tuner retuning
// two jobs (DecisionPinTest). A change that moves one of these hashes
// changes decisions: it updates the constant and records the old and new
// values in CHANGES.md.

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "controlplane/control_plane.h"
#include "core/streamtune_tuner.h"
#include "sim/chaos_engine.h"
#include "workloads/cost_config.h"
#include "workloads/nexmark.h"
#include "workloads/pqp.h"

namespace streamtune::controlplane {
namespace {

std::vector<core::HistoryRecord> SampleCorpus(int samples_per_job = 5) {
  std::vector<JobGraph> jobs;
  jobs.push_back(workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                            workloads::Engine::kFlink));
  jobs.push_back(workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                            workloads::Engine::kFlink));
  jobs.push_back(workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 1));
  core::HistoryOptions opts;
  opts.samples_per_job = samples_per_job;
  return core::CollectHistory(jobs, opts);
}

kb::KbUpdateOptions SmallKbOptions() {
  kb::KbUpdateOptions o;
  o.pretrain.k = 2;
  o.pretrain.epochs = 2;
  o.pretrain.hidden_dim = 16;
  o.min_new_records = 1000;
  return o;
}

std::unique_ptr<kb::KbService> SmallService() {
  auto service = kb::KbService::Build(SampleCorpus(), SmallKbOptions());
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

JobGraph FleetGraph(int i) {
  switch (i % 3) {
    case 0:
      return workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                        workloads::Engine::kFlink);
    case 1:
      return workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                        workloads::Engine::kFlink);
    default:
      return workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 1);
  }
}

// One fleet: per-job inner Flink engines (deployed at all-ones) optionally
// wrapped in per-job chaos from a FleetFaultPlan.
struct Fleet {
  std::vector<std::unique_ptr<sim::StreamEngine>> inner;
  std::vector<std::unique_ptr<sim::ChaosEngine>> chaos;

  sim::StreamEngine* engine(int i) {
    return chaos.empty() ? inner[i].get()
                         : static_cast<sim::StreamEngine*>(chaos[i].get());
  }
};

// Fleet job `i`'s Flink engine, deployed at all-ones.
std::unique_ptr<sim::StreamEngine> FleetEngine(int i) {
  JobGraph job = FleetGraph(i);
  sim::PerfModel model(job, workloads::CostConfigFor(job));
  sim::SimConfig cfg;
  cfg.noise_seed = 1000 + static_cast<uint64_t>(i) * 7919;
  auto engine = std::make_unique<sim::FlinkEngine>(job, model, cfg);
  engine->ScaleAllSources(4.0);
  std::vector<int> ones(job.num_operators(), 1);
  EXPECT_TRUE(engine->Deploy(ones).ok());
  return engine;
}

Fleet MakeFleet(int jobs, const sim::FleetFaultPlan* storm) {
  Fleet fleet;
  for (int i = 0; i < jobs; ++i) fleet.inner.push_back(FleetEngine(i));
  if (storm != nullptr) {
    for (int i = 0; i < jobs; ++i) {
      fleet.chaos.push_back(std::make_unique<sim::ChaosEngine>(
          fleet.inner[i].get(), storm->PlanFor(i)));
    }
  }
  return fleet;
}

// FNV-1a over the eight little-endian bytes of each folded value: the
// pinned hashes below.
class PinHash {
 public:
  void Fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void FoldReport(const JobReport& jr) {
    Fold(static_cast<std::uint64_t>(jr.id));
    Fold(static_cast<std::uint64_t>(jr.state));
    Fold(static_cast<std::uint64_t>(jr.decisions));
    Fold(jr.trajectory_hash);
  }
  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;  // FNV-1a offset
};

ControlPlaneOptions FastOptions() {
  ControlPlaneOptions opts;
  opts.num_threads = 4;
  opts.decision_period_minutes = 30;
  opts.fault.decision_deadline_minutes = 10000;  // containment off by default
  opts.fault.breaker.failure_threshold = 3;
  opts.fault.breaker.open_minutes = 30;
  opts.fault.max_breaker_trips = 2;
  opts.streamtune.max_iterations = 8;
  opts.streamtune.warmup_records = 40;
  return opts;
}

TEST(ControlPlaneTest, ZeroJobFleetReturnsEmptyReport) {
  ControlPlane plane(nullptr, FastOptions());
  auto report = plane.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->jobs, 0);
  EXPECT_EQ(report->decisions, 0);
  EXPECT_EQ(report->rounds, 0);
  EXPECT_EQ(report->converged, 0);
}

TEST(ControlPlaneTest, SingleFullJobConvergesAndAdmitsToKb) {
  auto service = SmallService();
  const long long version_before = service->Stats().snapshot_version;
  ControlPlaneOptions opts = FastOptions();
  opts.full_admission.capacity = 4;
  ControlPlane plane(service.get(), opts);

  Fleet fleet = MakeFleet(1, nullptr);
  ASSERT_TRUE(plane.AddJob(0, fleet.engine(0)).ok());
  auto report = plane.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->jobs, 1);
  EXPECT_EQ(report->full_jobs, 1);
  EXPECT_EQ(report->converged, 1);
  EXPECT_GT(report->decisions, 0);
  EXPECT_EQ(report->kb_admitted, 1);
  EXPECT_EQ(service->Stats().snapshot_version, version_before + 1);
  ASSERT_EQ(report->job_reports.size(), 1u);
  EXPECT_NE(report->job_reports[0].trajectory_hash, 0u);
}

TEST(ControlPlaneTest, AdmissionControlShedsOverflowInJobOrder) {
  auto service = SmallService();
  ControlPlaneOptions opts = FastOptions();
  opts.full_admission.capacity = 2;
  ControlPlane plane(service.get(), opts);

  Fleet fleet = MakeFleet(6, nullptr);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(plane.AddJob(i, fleet.engine(i)).ok());
  }
  // The shed boundary is the AddJob order, nothing else.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(plane.job(i)->mode(), i < 2 ? JobMode::kFull : JobMode::kShed)
        << "job " << i;
  }
  auto report = plane.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->full_jobs, 2);
  EXPECT_EQ(report->shed_jobs, 4);
  EXPECT_EQ(report->converged, 6);
}

TEST(ControlPlaneTest, RejectsDuplicateAndUndeployedJobs) {
  ControlPlane plane(nullptr, FastOptions());
  Fleet fleet = MakeFleet(1, nullptr);
  ASSERT_TRUE(plane.AddJob(0, fleet.engine(0)).ok());
  EXPECT_FALSE(plane.AddJob(0, fleet.engine(0)).ok());  // duplicate id

  JobGraph job = FleetGraph(0);
  sim::PerfModel model(job, workloads::CostConfigFor(job));
  sim::FlinkEngine undeployed(job, model);
  EXPECT_FALSE(plane.AddJob(1, &undeployed).ok());
}

TEST(ControlPlaneTest, AllJobsQuarantinedStillTerminates) {
  // Engines whose Measure never succeeds: every decision fails, breakers
  // trip, the watchdog quarantines each job — and Run() terminates without
  // the round-cap hammer.
  auto service = SmallService();
  ControlPlaneOptions opts = FastOptions();
  opts.full_admission.capacity = 8;
  ControlPlane plane(service.get(), opts);

  sim::FaultPlan broken;
  broken.measure_dropout_prob = 1.0;
  broken.max_consecutive_dropouts = 1 << 20;
  Fleet fleet = MakeFleet(4, nullptr);
  std::vector<std::unique_ptr<sim::ChaosEngine>> wrapped;
  for (int i = 0; i < 4; ++i) {
    broken.seed = 77 + static_cast<uint64_t>(i);
    wrapped.push_back(
        std::make_unique<sim::ChaosEngine>(fleet.inner[i].get(), broken));
    ASSERT_TRUE(plane.AddJob(i, wrapped[i].get()).ok());
  }
  auto report = plane.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->quarantined, 4);
  EXPECT_EQ(report->converged, 0);
  EXPECT_EQ(report->watchdog_terminations, 0);  // breakers did it, not the cap
  for (const JobReport& jr : report->job_reports) {
    EXPECT_GE(jr.breaker_trips, 2) << "job " << jr.id;
  }
}

TEST(ControlPlaneTest, AdmissionsNeverTouchATrajectory) {
  // A 12-job full-mode fleet: jobs converge in different rounds, and each
  // is admitted into the KB while the rest keep deciding. Every job must
  // decide exactly as it does alone in its own plane on an untouched KB,
  // and the fleet's decisions (pre-training, GED assignment, M_f fits and
  // the tuning loop) are pinned.
  constexpr int kJobs = 12;
  ControlPlaneOptions opts = FastOptions();
  opts.full_admission.capacity = kJobs;

  auto service = SmallService();
  const long long version_before = service->Stats().snapshot_version;
  ControlPlane plane(service.get(), opts);
  Fleet fleet = MakeFleet(kJobs, nullptr);
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(plane.AddJob(i, fleet.engine(i)).ok());
  }
  auto report = plane.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->full_jobs, kJobs);
  EXPECT_EQ(report->converged, kJobs);
  EXPECT_GT(report->kb_admitted, 0);
  EXPECT_EQ(report->kb_admitted + report->kb_admit_failures,
            report->converged_full);
  EXPECT_EQ(service->Stats().snapshot_version,
            version_before + report->kb_admitted);

  PinHash hash;
  for (const JobReport& jr : report->job_reports) hash.FoldReport(jr);
  EXPECT_EQ(report->rounds, 19);
  EXPECT_EQ(report->decisions, 96);
  EXPECT_EQ(report->kb_admitted, 12);
  EXPECT_EQ(hash.digest(), 0xac08c12b17361c29ull) << std::hex << hash.digest();

  for (const JobReport& jr : report->job_reports) {
    auto alone_service = SmallService();
    ControlPlane alone(alone_service.get(), opts);
    auto engine = FleetEngine(static_cast<int>(jr.id));
    ASSERT_TRUE(alone.AddJob(jr.id, engine.get()).ok());  // same stagger
    auto solo = alone.Run();
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    ASSERT_EQ(solo->job_reports.size(), 1u);
    const JobReport& want = solo->job_reports[0];
    EXPECT_EQ(jr.state, want.state) << "job " << jr.id;
    EXPECT_EQ(jr.decisions, want.decisions) << "job " << jr.id;
    EXPECT_EQ(jr.trajectory_hash, want.trajectory_hash) << "job " << jr.id;
  }
}

TEST(ControlPlaneTest, HealthyJobsBitIdenticalUnderChaosStorm) {
  // The acceptance criterion: a 30% chaos storm must leave the untouched
  // 70% with trajectories bit-identical to a fully chaos-free run.
  constexpr int kJobs = 30;
  sim::FleetFaultPlan storm;
  storm.master_seed = 0xF1EE7;
  storm.fault_fraction = 0.3;
  sim::FleetFaultPlan calm = storm;
  calm.fault_fraction = 0.0;

  auto run = [&](const sim::FleetFaultPlan& plan) {
    auto service = SmallService();
    ControlPlaneOptions opts = FastOptions();
    opts.full_admission.capacity = 6;
    ControlPlane plane(service.get(), opts);
    Fleet fleet = MakeFleet(kJobs, &plan);
    for (int i = 0; i < kJobs; ++i) {
      EXPECT_TRUE(plane.AddJob(i, fleet.engine(i)).ok());
    }
    auto report = plane.Run();
    EXPECT_TRUE(report.ok());
    std::map<std::int64_t, JobReport> by_id;
    for (const JobReport& jr : report->job_reports) by_id[jr.id] = jr;
    return by_id;
  };

  std::map<std::int64_t, JobReport> with_chaos = run(storm);
  std::map<std::int64_t, JobReport> without = run(calm);

  int healthy = 0, faulted = 0;
  for (int i = 0; i < kJobs; ++i) {
    if (storm.Faulted(i)) {
      ++faulted;
      continue;
    }
    ++healthy;
    EXPECT_EQ(with_chaos[i].trajectory_hash, without[i].trajectory_hash)
        << "healthy job " << i << " diverged under the storm";
    EXPECT_EQ(with_chaos[i].decisions, without[i].decisions);
    EXPECT_EQ(with_chaos[i].total_parallelism, without[i].total_parallelism);
  }
  ASSERT_GT(faulted, 0);  // the storm actually hit someone
  ASSERT_GT(healthy, 0);

  // Degraded (shed) jobs under survivable faults still converge via DS2.
  for (int i = 0; i < kJobs; ++i) {
    if (with_chaos[i].mode == JobMode::kShed) {
      EXPECT_EQ(with_chaos[i].state, JobState::kConverged) << "job " << i;
    }
  }
}

TEST(ControlPlaneTest, ShedFleetUnderStormMatchesPinnedTrajectories) {
  // Pins every decision of a shed fleet under a 30% chaos storm: the DS2
  // session, the scheduler's rounds and the containment path. Without a KB
  // no model runs.
  constexpr int kJobs = 48;
  sim::FleetFaultPlan storm;
  storm.master_seed = 0xF1EE7;
  storm.fault_fraction = 0.3;
  ControlPlane plane(nullptr, FastOptions());
  Fleet fleet = MakeFleet(kJobs, &storm);
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(plane.AddJob(i, fleet.engine(i)).ok());
  }
  auto report = plane.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  PinHash hash;
  for (const JobReport& jr : report->job_reports) hash.FoldReport(jr);
  EXPECT_EQ(report->shed_jobs, kJobs);
  EXPECT_EQ(report->rounds, 29);
  EXPECT_EQ(report->decisions, 243);
  EXPECT_EQ(hash.digest(), 0x6f1a9b9f2bb0ca3eull) << std::hex << hash.digest();
}

TEST(DecisionPinTest, LongLivedTunerRetunesMatchPinnedHash) {
  // One StreamTune tuner retunes two jobs through three rates, so a later
  // process opens on the set its previous stop decision fitted and reuses
  // that fit. Job 1 starts at the FIFO bound (a donor process's feedback,
  // repeated), so each of its folds evicts and its processes refit. The
  // hash covers every process's final degrees, reconfigurations,
  // iterations and M_f fits, then the bytes of both jobs' feedback.
  auto service = SmallService();
  const std::shared_ptr<const core::PretrainedBundle> bundle =
      service->Snapshot()->bundle();
  const core::StreamTuneOptions opts = FastOptions().streamtune;
  constexpr std::size_t kCap = core::StreamTuneTuner::kMaxAccumulatedSamples;
  std::unique_ptr<sim::StreamEngine> engines[] = {FleetEngine(0),
                                                  FleetEngine(1)};
  const std::string names[] = {engines[0]->graph().name(),
                               engines[1]->graph().name()};

  core::StreamTuneTuner tuner(bundle, opts);
  {
    core::StreamTuneTuner donor(bundle, opts);
    auto engine = FleetEngine(1);
    ASSERT_TRUE(donor.Tune(engine.get()).ok());
    const std::vector<ml::LabeledSample>& some = donor.FeedbackFor(names[1]);
    ASSERT_FALSE(some.empty());
    std::vector<ml::LabeledSample> full;
    while (full.size() < kCap) {
      full.insert(full.end(), some.begin(), some.end());
    }
    tuner.SeedFeedback(names[1], std::move(full));
  }

  PinHash hash;
  int reused = 0;
  for (double mult : {6.0, 2.5, 9.0}) {
    for (int j = 0; j < 2; ++j) {
      SCOPED_TRACE(testing::Message() << names[j] << " at " << mult);
      engines[j]->ScaleAllSources(mult);
      auto outcome = tuner.Tune(engines[j].get());
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      for (int p : outcome->final_parallelism) {
        hash.Fold(static_cast<std::uint64_t>(p));
      }
      hash.Fold(static_cast<std::uint64_t>(outcome->reconfigurations));
      hash.Fold(static_cast<std::uint64_t>(outcome->iterations));
      hash.Fold(static_cast<std::uint64_t>(outcome->model_fits));
      reused += outcome->iterations - outcome->model_fits;
    }
  }
  for (const std::string& name : names) {
    for (const ml::LabeledSample& s : tuner.FeedbackFor(name)) {
      for (double x : s.embedding) hash.Fold(std::bit_cast<std::uint64_t>(x));
      hash.Fold(static_cast<std::uint64_t>(s.parallelism));
      hash.Fold(static_cast<std::uint64_t>(s.label));
    }
  }
  EXPECT_GT(reused, 0);
  EXPECT_EQ(tuner.FeedbackFor(names[1]).size(), kCap);
  EXPECT_EQ(hash.digest(), 0x6c6c0a8bc5baebd9ull) << std::hex << hash.digest();
}

TEST(ControlPlaneTest, WatchdogQuarantinesAtRoundCap) {
  // The round cap is the termination guarantee of last resort: whatever is
  // still running when it is hit is quarantined, and Run() returns.
  constexpr int kJobs = 6;
  ControlPlaneOptions opts = FastOptions();
  opts.max_rounds = 2;
  ControlPlane plane(nullptr, opts);
  Fleet fleet = MakeFleet(kJobs, nullptr);
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(plane.AddJob(i, fleet.engine(i)).ok());
  }
  auto report = plane.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rounds, 2);
  EXPECT_GT(report->watchdog_terminations, 0);
  EXPECT_EQ(report->watchdog_terminations, report->quarantined);
  for (const JobReport& jr : report->job_reports) {
    EXPECT_NE(jr.state, JobState::kRunning) << "job " << jr.id;
  }
  EXPECT_EQ(report->converged + report->quarantined + report->failed, kJobs);
}

TEST(ControlPlaneTest, TenThousandJobConcurrentSmoke) {
  // The TSan shard target: a big shed-mode fleet over the full worker pool.
  // No KB (null service): exercises scheduling, waves and containment only.
  const int jobs = 10000;
  ControlPlaneOptions opts = FastOptions();
  opts.num_threads = 0;  // all hardware threads
  ControlPlane plane(nullptr, opts);
  Fleet fleet = MakeFleet(jobs, nullptr);
  for (int i = 0; i < jobs; ++i) {
    ASSERT_TRUE(plane.AddJob(i, fleet.engine(i)).ok());
  }
  auto report = plane.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->jobs, jobs);
  EXPECT_EQ(report->shed_jobs, jobs);
  EXPECT_EQ(report->converged + report->quarantined + report->failed, jobs);
  EXPECT_GT(report->converged, jobs * 9 / 10);
  EXPECT_GT(report->decisions, jobs);
  EXPECT_GE(report->max_round_batch, 1u);
}

}  // namespace
}  // namespace streamtune::controlplane
