#include "bench_common.h"

#include <cstdlib>
#include <sstream>
#include <thread>

#include "workloads/random_dag.h"

namespace streamtune::bench {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return std::atoi(v);
}

std::string HostInfoJson() {
  std::ostringstream os;
  os << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << "}";
  return os.str();
}

int ScheduleLength() { return EnvInt("ST_BENCH_SCHEDULE", 24); }

std::unique_ptr<sim::StreamEngine> MakeFlinkEngine(const JobGraph& job,
                                                   uint64_t seed) {
  sim::PerfModel model(job, workloads::CostConfigFor(job));
  sim::SimConfig cfg;
  cfg.noise_seed = seed * 7919 + 13;
  return std::make_unique<sim::FlinkEngine>(job, model, cfg);
}

std::unique_ptr<timelysim::TimelySimulator> MakeTimelyEngine(
    const JobGraph& job, uint64_t seed) {
  sim::PerfModel model(job, workloads::CostConfigFor(job));
  timelysim::TimelyConfig cfg;
  cfg.noise_seed = seed * 6271 + 5;
  return std::make_unique<timelysim::TimelySimulator>(job, model, cfg);
}

std::vector<JobGraph> FlinkCorpusJobs() {
  std::vector<JobGraph> jobs;
  for (auto q : workloads::AllNexmarkQueries()) {
    jobs.push_back(workloads::BuildNexmarkJob(q, workloads::Engine::kFlink));
  }
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, i));
  }
  for (int i = 0; i < 10; ++i) {
    jobs.push_back(
        workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, i));
  }
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(
        workloads::BuildPqpJob(workloads::PqpTemplate::kThreeWayJoin, i));
  }
  return jobs;
}

std::vector<core::HistoryRecord> CollectFlinkCorpus() {
  core::HistoryOptions opts;
  opts.samples_per_job = EnvInt("ST_BENCH_SAMPLES", 30);
  return core::CollectHistory(FlinkCorpusJobs(), opts);
}

std::vector<core::HistoryRecord> CollectTimelyCorpus() {
  std::vector<JobGraph> jobs;
  for (auto q : {workloads::NexmarkQuery::kQ3, workloads::NexmarkQuery::kQ5,
                 workloads::NexmarkQuery::kQ8}) {
    jobs.push_back(workloads::BuildNexmarkJob(q, workloads::Engine::kTimely));
  }
  core::HistoryOptions opts;
  opts.samples_per_job = EnvInt("ST_BENCH_SAMPLES", 30);
  opts.max_parallelism = 10;
  auto factory = [](const JobGraph& g, uint64_t seed) {
    sim::PerfModel model(g, workloads::CostConfigFor(g));
    timelysim::TimelyConfig cfg;
    cfg.noise_seed = seed;
    return std::make_unique<timelysim::TimelySimulator>(g, model, cfg);
  };
  return core::CollectHistory(jobs, opts, factory);
}

std::shared_ptr<core::PretrainedBundle> Pretrain(
    std::vector<core::HistoryRecord> corpus, bool use_clustering, int k) {
  core::PretrainOptions opts;
  opts.use_clustering = use_clustering;
  opts.k = k;
  auto bundle = core::Pretrainer(opts).Run(std::move(corpus));
  if (!bundle.ok()) {
    std::fprintf(stderr, "pre-training failed: %s\n",
                 bundle.status().ToString().c_str());
    std::abort();
  }
  return std::make_shared<core::PretrainedBundle>(std::move(*bundle));
}

std::unique_ptr<baselines::ZeroTuneTuner> TrainZeroTune(
    const std::vector<core::HistoryRecord>& corpus) {
  std::vector<baselines::ZeroTuneExample> examples;
  examples.reserve(corpus.size());
  for (const auto& r : corpus) {
    baselines::ZeroTuneExample ex;
    ex.graph = r.graph;
    ex.parallelism = r.parallelism;
    ex.cost = r.job_cost;
    examples.push_back(std::move(ex));
  }
  auto tuner = std::make_unique<baselines::ZeroTuneTuner>();
  Status st = tuner->Train(examples);
  if (!st.ok()) {
    std::fprintf(stderr, "ZeroTune training failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  return tuner;
}

std::unique_ptr<baselines::Tuner> MakeTuner(
    const std::string& method,
    std::shared_ptr<core::PretrainedBundle> bundle,
    const std::vector<core::HistoryRecord>* zerotune_corpus) {
  if (method == "DS2") return std::make_unique<baselines::Ds2Tuner>();
  if (method == "ContTune") {
    return std::make_unique<baselines::ContTuneTuner>();
  }
  if (method == "ZeroTune") {
    return TrainZeroTune(*zerotune_corpus);
  }
  core::StreamTuneOptions opts;
  if (method == "StreamTune-SVM") opts.model = core::FineTuneModel::kSvm;
  if (method == "StreamTune-NN") opts.model = core::FineTuneModel::kNn;
  return std::make_unique<core::StreamTuneTuner>(bundle, opts);
}

ScheduleResult RunSchedule(
    const JobGraph& job, baselines::Tuner* tuner,
    const std::function<std::unique_ptr<sim::StreamEngine>(const JobGraph&)>&
        factory,
    int schedule_length) {
  ScheduleResult result;
  result.method = tuner->name();
  result.job = job.name();

  std::unique_ptr<sim::StreamEngine> engine = factory(job);
  std::vector<int> ones(job.num_operators(), 1);
  Status st = engine->Deploy(ones);
  if (!st.ok()) std::abort();

  std::vector<double> schedule = workloads::FullRateSchedule();
  schedule.resize(schedule_length);
  schedule.push_back(10.0);  // the Fig. 6 / Fig. 8a measurement point

  int total_reconfigs = 0;
  int processes = 0;
  for (double mult : schedule) {
    engine->ScaleAllSources(mult);
    auto outcome = tuner->Tune(engine.get());
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s failed on %s: %s\n", tuner->name().c_str(),
                   job.name().c_str(),
                   outcome.status().ToString().c_str());
      std::abort();
    }
    ++processes;
    total_reconfigs += outcome->reconfigurations;
    if (outcome->ended_with_backpressure) ++result.backpressure_failures;
    result.tuning_minutes.push_back(outcome->tuning_minutes);
    result.rate_multipliers.push_back(mult);
    result.parallelism_at_10x = outcome->total_parallelism;

    auto metrics = engine->Measure();
    if (metrics.ok()) {
      double cpu = 0;
      for (const auto& om : metrics->ops) cpu += om.cpu_load;
      result.cpu_utilization.push_back(
          cpu / static_cast<double>(metrics->ops.size()));
    }
  }
  result.avg_reconfigurations =
      static_cast<double>(total_reconfigs) / processes;

  engine->ScaleAllSources(10.0);
  result.oracle_at_10x = 0;
  for (int p : engine->OracleParallelism()) result.oracle_at_10x += p;
  return result;
}

ScheduleResult RunFlinkSchedule(const JobGraph& job, baselines::Tuner* tuner,
                                int schedule_length) {
  return RunSchedule(
      job, tuner,
      [](const JobGraph& g) { return MakeFlinkEngine(g); },
      schedule_length);
}

}  // namespace streamtune::bench
