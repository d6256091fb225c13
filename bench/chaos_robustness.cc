// Chaos robustness sweep: drive all four tuners through fault plans of
// increasing intensity and record convergence rate, reconfiguration
// overhead and adaptation-time overhead relative to the fault-free run.
// Emits BENCH_chaos.json so the robustness trajectory is tracked across
// PRs. A run "converges" when the tuning process returns ok() AND the
// underlying (fault-free view of the) job ends without severe backpressure.
//
// Fault plans: deploy-failure and metric-dropout probability = rate,
// straggler probability = rate / 2 (the standard plan at rate 0.10).

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/robust_loop.h"
#include "bench_common.h"
#include "sim/chaos_engine.h"

using namespace streamtune;
using namespace streamtune::bench;

namespace {

struct Cell {
  int runs = 0;
  int ok = 0;
  int converged = 0;  // ok() and no severe backpressure on the inner engine
  double reconfigs = 0;
  double minutes = 0;
  int faults_survived = 0;
  int retries = 0;
  int rollbacks = 0;

  double ConvergenceRate() const {
    return runs > 0 ? static_cast<double>(converged) / runs : 0;
  }
  double AvgReconfigs() const { return ok > 0 ? reconfigs / ok : 0; }
  double AvgMinutes() const { return ok > 0 ? minutes / ok : 0; }
};

}  // namespace

int main() {
  const std::vector<double> kRates = {0.0, 0.05, 0.10, 0.20};
  const std::vector<std::string> kMethods = {"DS2", "ContTune", "ZeroTune",
                                             "StreamTune"};
  const std::vector<uint64_t> kSeeds = {1, 2, 3};

  auto corpus = CollectFlinkCorpus();
  auto bundle = Pretrain(corpus);
  auto zerotune = TrainZeroTune(corpus);  // trained once, reused

  std::vector<JobGraph> jobs;
  jobs.push_back(workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                            workloads::Engine::kFlink));
  jobs.push_back(
      workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, 9));

  bool all_ok = true;
  std::vector<std::vector<Cell>> cells(kMethods.size(),
                                       std::vector<Cell>(kRates.size()));

  for (size_t mi = 0; mi < kMethods.size(); ++mi) {
    const std::string& method = kMethods[mi];
    for (size_t ri = 0; ri < kRates.size(); ++ri) {
      const double rate = kRates[ri];
      Cell& cell = cells[mi][ri];
      for (const JobGraph& job : jobs) {
        for (uint64_t seed : kSeeds) {
          auto inner = MakeFlinkEngine(job, seed);
          sim::FaultPlan plan;
          plan.seed = 1000 * seed + static_cast<uint64_t>(100 * rate);
          plan.deploy_failure_prob = rate;
          plan.measure_dropout_prob = rate;
          plan.straggler_prob = rate / 2;
          std::unique_ptr<sim::ChaosEngine> chaos;
          sim::StreamEngine* engine = inner.get();
          if (!plan.Empty()) {
            chaos = std::make_unique<sim::ChaosEngine>(inner.get(), plan);
            engine = chaos.get();
          }

          std::vector<int> ones(job.num_operators(), 1);
          if (!baselines::RobustLoop(engine).Deploy(ones).ok()) {
            ++cell.runs;
            all_ok = false;
            continue;
          }
          engine->ScaleAllSources(8.0);

          baselines::Tuner* tuner = zerotune.get();
          std::unique_ptr<baselines::Tuner> fresh;
          if (method != "ZeroTune") {
            fresh = MakeTuner(method, bundle, nullptr);
            tuner = fresh.get();
          }

          ++cell.runs;
          auto outcome = tuner->Tune(engine);
          if (!outcome.ok()) {
            std::fprintf(stderr, "%s failed at rate %.2f seed %llu: %s\n",
                         method.c_str(), rate,
                         static_cast<unsigned long long>(seed),
                         outcome.status().ToString().c_str());
            all_ok = false;
            continue;
          }
          ++cell.ok;
          cell.reconfigs += outcome->reconfigurations;
          cell.minutes += outcome->tuning_minutes;
          cell.faults_survived += outcome->faults_survived;
          cell.retries += outcome->retries;
          cell.rollbacks += outcome->rollbacks;
          auto metrics = inner->Measure();  // fault-free view
          if (metrics.ok() && !metrics->severe_backpressure) ++cell.converged;
        }
      }
    }
  }

  TablePrinter table("chaos robustness sweep (convergence rate | avg "
                     "reconfigs | faults survived)",
                     {"method", "0%", "5%", "10%", "20%"});
  for (size_t mi = 0; mi < kMethods.size(); ++mi) {
    std::vector<std::string> row{kMethods[mi]};
    for (size_t ri = 0; ri < kRates.size(); ++ri) {
      const Cell& c = cells[mi][ri];
      row.push_back(TablePrinter::Fmt(100 * c.ConvergenceRate(), 0) + "% | " +
                    TablePrinter::Fmt(c.AvgReconfigs(), 1) + " | " +
                    std::to_string(c.faults_survived));
    }
    table.AddRow(row);
  }
  table.Print();

  FILE* f = std::fopen("BENCH_chaos.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"host\": %s,\n  \"cells\": [\n",
                 bench::HostInfoJson().c_str());
    bool first = true;
    for (size_t mi = 0; mi < kMethods.size(); ++mi) {
      const Cell& base = cells[mi][0];
      for (size_t ri = 0; ri < kRates.size(); ++ri) {
        const Cell& c = cells[mi][ri];
        const double reconfig_overhead =
            base.AvgReconfigs() > 0 ? c.AvgReconfigs() / base.AvgReconfigs()
                                    : 0;
        const double minutes_overhead =
            base.AvgMinutes() > 0 ? c.AvgMinutes() / base.AvgMinutes() : 0;
        std::fprintf(
            f,
            "%s    {\"method\": \"%s\", \"fault_rate\": %.2f, \"runs\": %d, "
            "\"ok\": %d, \"convergence_rate\": %.3f, "
            "\"avg_reconfigurations\": %.2f, \"reconfig_overhead\": %.3f, "
            "\"avg_tuning_minutes\": %.1f, \"minutes_overhead\": %.3f, "
            "\"faults_survived\": %d, \"retries\": %d, \"rollbacks\": %d}",
            first ? "" : ",\n", kMethods[mi].c_str(), kRates[ri], c.runs,
            c.ok, c.ConvergenceRate(), c.AvgReconfigs(), reconfig_overhead,
            c.AvgMinutes(), minutes_overhead, c.faults_survived, c.retries,
            c.rollbacks);
        first = false;
      }
    }
    std::fprintf(f, "\n  ],\n  \"all_ok\": %s\n}\n",
                 all_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_chaos.json\n");
  }

  std::printf(
      "\nShape check: every tuner must finish ok() at every fault rate "
      "(bounded fault bursts vs. a larger retry budget), and hardened "
      "StreamTune should stay backpressure-free without blowing its "
      "fault-free reconfiguration budget.\n");
  return all_ok ? 0 : 1;
}
