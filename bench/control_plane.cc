// Control-plane scale benchmark: 1k / 10k / 100k concurrent tuning
// processes against one KbService, with and without a fleet-wide chaos
// storm. Reports decisions/sec, decision-latency percentiles, shed /
// quarantine counts, degraded-vs-healthy convergence, and verifies the
// determinism contract: jobs the storm does not touch must be bit-identical
// to a chaos-free run.
//
// Environment knobs:
//   ST_BENCH_CP_MAX_JOBS      largest fleet size (default 100000; the
//                             ladder 1000/10000/100000 is filtered to it)
//   ST_BENCH_CP_FULL          full StreamTune admission capacity (64)
//   ST_BENCH_CP_CHAOS_PCT     storm fraction in percent (30)
//   ST_BENCH_CP_IDENTITY_MAX  largest size to double-run for the
//                             bit-identity check (default 10000)
//   ST_BENCH_CP_MIN_DPS       regression gate: decisions/sec floor (0=off)
//   ST_BENCH_CP_MAX_P99_MS    regression gate: p99 ceiling (0=off)
//
// Exit code 1 when a gate fails or healthy jobs diverge under chaos.

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "controlplane/control_plane.h"
#include "sim/chaos_engine.h"
#include "workloads/nexmark.h"

namespace {

using streamtune::JobGraph;
using streamtune::bench::EnvInt;
using streamtune::bench::MakeFlinkEngine;
namespace cp = streamtune::controlplane;
namespace sim = streamtune::sim;
namespace kb = streamtune::kb;

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  cp::ControlPlaneReport report;
  std::map<std::int64_t, std::uint64_t> hashes;
};

struct Sweep {
  int jobs = 0;
  bool chaos = false;
  cp::ControlPlaneReport report;
  bool identity_checked = false;
  bool healthy_bit_identical = true;
  int healthy_jobs = 0;
  int faulted_jobs = 0;
};

RunResult RunFleet(const std::shared_ptr<const streamtune::core::PretrainedBundle>& bundle,
                   int jobs, const sim::FleetFaultPlan& plan, int full_capacity) {
  // A fresh service per run pins an identical v0 snapshot, so chaos-on and
  // chaos-off fleets warm-start from the same knowledge.
  std::unique_ptr<kb::KbService> service = kb::KbService::FromBundle(bundle);

  cp::ControlPlaneOptions opts;
  opts.full_admission.capacity = full_capacity;
  opts.wall_clock = [] { return WallSeconds(); };
  opts.streamtune.max_iterations = 8;
  opts.streamtune.warmup_records = 40;
  cp::ControlPlane plane(service.get(), opts);

  const std::vector<JobGraph> catalogue = streamtune::bench::FlinkCorpusJobs();
  std::vector<std::unique_ptr<sim::StreamEngine>> inner(jobs);
  std::vector<std::unique_ptr<sim::ChaosEngine>> wrapped(jobs);
  RunResult result;
  for (int i = 0; i < jobs; ++i) {
    const JobGraph& job = catalogue[i % catalogue.size()];
    inner[i] = MakeFlinkEngine(job, static_cast<uint64_t>(i));
    inner[i]->ScaleAllSources(4.0);
    std::vector<int> ones(job.num_operators(), 1);
    if (!inner[i]->Deploy(ones).ok()) continue;
    wrapped[i] = std::make_unique<sim::ChaosEngine>(inner[i].get(),
                                                    plan.PlanFor(i));
    if (!plane.AddJob(i, wrapped[i].get()).ok()) continue;
  }

  auto report = plane.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "control plane run failed: %s\n",
                 report.status().ToString().c_str());
    return result;
  }
  result.report = *std::move(report);
  for (const cp::JobReport& jr : result.report.job_reports) {
    result.hashes[jr.id] = jr.trajectory_hash;
  }
  return result;
}

void PrintRow(const Sweep& s) {
  const cp::ControlPlaneReport& r = s.report;
  std::printf(
      "%7d jobs chaos=%-3s  %8.0f dec/s  p50 %6.3fms  p99 %6.3fms  "
      "conv %d/%d (clean %d)  shed %d  quar %d  kb %lld\n",
      s.jobs, s.chaos ? "on" : "off", r.decisions_per_sec,
      r.p50_decision_ms, r.p99_decision_ms, r.converged, r.jobs,
      r.converged_clean, r.shed_jobs, r.quarantined, r.kb_admitted);
}

std::string SweepJson(const Sweep& s) {
  const cp::ControlPlaneReport& r = s.report;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"jobs\": %d, \"chaos\": %s, \"full_jobs\": %d, "
      "\"shed_jobs\": %d, \"decisions\": %lld, \"decisions_per_sec\": %.0f, "
      "\"p50_decision_ms\": %.4f, \"p99_decision_ms\": %.4f, "
      "\"converged\": %d, \"converged_full\": %d, \"converged_shed\": %d, "
      "\"converged_clean\": %d, \"quarantined\": %d, \"failed\": %d, "
      "\"rounds\": %d, \"kb_admitted\": %lld, "
      "\"identity_checked\": %s, \"healthy_jobs\": %d, "
      "\"faulted_jobs\": %d, \"healthy_jobs_bit_identical\": %s}",
      s.jobs, s.chaos ? "true" : "false", r.full_jobs, r.shed_jobs,
      r.decisions, r.decisions_per_sec, r.p50_decision_ms,
      r.p99_decision_ms, r.converged, r.converged_full, r.converged_shed,
      r.converged_clean, r.quarantined, r.failed, r.rounds, r.kb_admitted,
      s.identity_checked ? "true" : "false",
      s.healthy_jobs, s.faulted_jobs,
      s.healthy_bit_identical ? "true" : "false");
  return buf;
}

}  // namespace

int main() {
  const int max_jobs = EnvInt("ST_BENCH_CP_MAX_JOBS", 100000);
  const int full_capacity = EnvInt("ST_BENCH_CP_FULL", 64);
  const int chaos_pct = EnvInt("ST_BENCH_CP_CHAOS_PCT", 30);
  const int identity_max = EnvInt("ST_BENCH_CP_IDENTITY_MAX", 10000);
  const int min_dps = EnvInt("ST_BENCH_CP_MIN_DPS", 0);
  const int max_p99_ms = EnvInt("ST_BENCH_CP_MAX_P99_MS", 0);

  auto bundle = streamtune::bench::Pretrain(
      streamtune::bench::CollectFlinkCorpus());

  std::vector<int> sizes;
  for (int s : {1000, 10000, 100000}) {
    if (s <= max_jobs) sizes.push_back(s);
  }
  if (sizes.empty()) sizes.push_back(max_jobs);

  sim::FleetFaultPlan storm;
  storm.fault_fraction = chaos_pct / 100.0;
  sim::FleetFaultPlan calm = storm;
  calm.fault_fraction = 0.0;

  bool ok = true;
  std::vector<Sweep> sweeps;
  for (int jobs : sizes) {
    RunResult off = RunFleet(bundle, jobs, calm, full_capacity);
    Sweep off_sweep;
    off_sweep.jobs = jobs;
    off_sweep.report = off.report;
    PrintRow(off_sweep);

    RunResult on = RunFleet(bundle, jobs, storm, full_capacity);
    Sweep on_sweep;
    on_sweep.jobs = jobs;
    on_sweep.chaos = true;
    on_sweep.report = on.report;
    if (jobs <= identity_max) {
      on_sweep.identity_checked = true;
      for (int i = 0; i < jobs; ++i) {
        if (storm.Faulted(i)) {
          ++on_sweep.faulted_jobs;
          continue;
        }
        ++on_sweep.healthy_jobs;
        if (on.hashes[i] != off.hashes[i]) {
          on_sweep.healthy_bit_identical = false;
        }
      }
      if (!on_sweep.healthy_bit_identical) {
        std::fprintf(stderr,
                     "FAIL: healthy jobs diverged under chaos at %d jobs\n",
                     jobs);
        ok = false;
      }
    }
    PrintRow(on_sweep);

    for (const Sweep& s : {off_sweep, on_sweep}) {
      if (min_dps > 0 && s.report.decisions_per_sec < min_dps) {
        std::fprintf(stderr, "FAIL: %.0f dec/s below floor %d (%d jobs)\n",
                     s.report.decisions_per_sec, min_dps, s.jobs);
        ok = false;
      }
      if (max_p99_ms > 0 && s.report.p99_decision_ms > max_p99_ms) {
        std::fprintf(stderr, "FAIL: p99 %.3fms above ceiling %dms (%d jobs)\n",
                     s.report.p99_decision_ms, max_p99_ms, s.jobs);
        ok = false;
      }
      if (s.report.quarantined + s.report.converged + s.report.failed !=
          s.report.jobs) {
        std::fprintf(stderr, "FAIL: %d jobs unaccounted for (%d jobs)\n",
                     s.report.jobs - s.report.converged -
                         s.report.quarantined - s.report.failed,
                     s.jobs);
        ok = false;
      }
    }
    sweeps.push_back(off_sweep);
    sweeps.push_back(on_sweep);
  }

  FILE* f = std::fopen("BENCH_controlplane.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"host\": %s,\n  \"sweeps\": [\n",
                 streamtune::bench::HostInfoJson().c_str());
    for (size_t i = 0; i < sweeps.size(); ++i) {
      std::fprintf(f, "%s%s", SweepJson(sweeps[i]).c_str(),
                   i + 1 < sweeps.size() ? ",\n" : "\n");
    }
    std::fprintf(f, "  ],\n  \"gates_ok\": %s\n}\n", ok ? "true" : "false");
    std::fclose(f);
  }
  return ok ? 0 : 1;
}
