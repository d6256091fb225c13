// streamtune_cli — operate the StreamTune pipeline from the command line.
//
//   streamtune_cli collect  --workload nexmark-flink|nexmark-timely|pqp|all
//                           [--samples N] [--seed S] --out history.txt
//   streamtune_cli pretrain --history history.txt [--no-cluster] [--k K]
//                           [--epochs N] --kb-path kb.txt
//   streamtune_cli tune     --kb-path kb.txt [--admit] --job <spec> [--rate M]
//                           [--engine flink|timely] [--model xgboost|svm|nn]
//   streamtune_cli admit    --kb-path kb.txt --history history.txt
//   streamtune_cli simulate --job <spec> [--rate M] [--parallelism p1,p2,..]
//   streamtune_cli inspect  --history h.txt | --kb kb.txt
//
// Job specs: nexmark:Q1|Q2|Q3|Q5|Q8  or  pqp:linear|2way|3way:<variant>.
//
// The knowledge-base file (--kb-path) persists the full StreamTune loop:
// pretrain writes a KB, tune reads it (warm-starting from the job's own
// admitted feedback) and --admit folds the converged session back in.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "baselines/robust_loop.h"
#include "common/table_printer.h"
#include "core/history.h"
#include "sim/chaos_engine.h"
#include "core/pretrain.h"
#include "core/serialization.h"
#include "core/streamtune_tuner.h"
#include "kb/kb_service.h"
#include "sim/engine.h"
#include "sim/event_simulator.h"
#include "timelysim/timely_simulator.h"
#include "workloads/cost_config.h"
#include "workloads/nexmark.h"
#include "workloads/pqp.h"

using namespace streamtune;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  streamtune_cli collect  --workload nexmark-flink|nexmark-timely|"
      "pqp|all [--samples N] [--seed S] --out FILE\n"
      "  streamtune_cli pretrain --history FILE [--no-cluster] [--k K] "
      "[--epochs N] --kb-path FILE\n"
      "  streamtune_cli tune     --kb-path FILE [--admit] --job SPEC "
      "[--rate M] [--engine flink|timely] [--model xgboost|svm|nn]\n"
      "                          [--chaos-seed S] [--chaos-deploy-fail P]\n"
      "                          [--chaos-metric-drop P] "
      "[--chaos-straggler P]\n"
      "                          [--chaos-corrupt P] [--chaos-spike P]\n"
      "  streamtune_cli admit    --kb-path FILE --history FILE\n"
      "  streamtune_cli simulate --job SPEC [--rate M] "
      "[--parallelism p1,p2,...]\n"
      "  streamtune_cli inspect  --history FILE | --kb FILE\n"
      "job SPEC: nexmark:Q1|Q2|Q3|Q5|Q8 or pqp:linear|2way|3way:VARIANT\n"
      "numbers: integers N >= 1, K >= 0 (0 = elbow), S >= 0; "
      "0 <= P <= 1; 0.001 <= M <= 1000\n");
  return 2;
}

using Flags = std::map<std::string, std::string>;

constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
/// Source-rate multipliers (--rate, in W_u) the engines are driven at.
constexpr double kMinRate = 0.001;
constexpr double kMaxRate = 1000.0;
/// Largest parallelism `simulate --parallelism` accepts.
constexpr int kMaxParallelism = 10000;

/// Strict number parser for every numeric flag: the whole token must parse
/// as a T (no sign on an unsigned value) and lie in [lo, hi], so NaN and
/// infinities fail too.
template <typename T>
bool ParseNumber(const std::string& token, T lo, T hi, T* out) {
  T v{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) return false;
  *out = v;
  return true;
}

/// Parses flag `--name` into `*out` when it is present; an absent flag
/// keeps the default. Reports a bad value and returns false.
template <typename T>
bool NumericFlag(const Flags& flags, const char* name, T lo, T hi, T* out) {
  auto it = flags.find(name);
  if (it == flags.end() || ParseNumber(it->second, lo, hi, out)) return true;
  std::fprintf(stderr, "bad value '%s' for --%s\n", it->second.c_str(), name);
  return false;
}

/// Maps `--model` onto the fine-tuned model family; false for an unknown
/// name. Absent, the default (XGBoost) stays.
bool ParseModel(const Flags& flags, core::FineTuneModel* model) {
  auto it = flags.find("model");
  if (it == flags.end()) return true;
  const std::string& m = it->second;
  if (m == "xgboost") {
    *model = core::FineTuneModel::kXgboost;
  } else if (m == "svm") {
    *model = core::FineTuneModel::kSvm;
  } else if (m == "nn") {
    *model = core::FineTuneModel::kNn;
  } else {
    std::fprintf(stderr, "unknown --model '%s'\n", m.c_str());
    return false;
  }
  return true;
}

Flags ParseFlags(int argc, char** argv, int start) {
  Flags flags;
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string key = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags[key] = argv[++i];
    } else {
      // A switch (--admit, --no-cluster). A valueless numeric flag fails
      // to parse instead of reading as 1.
      flags[key] = "";
    }
  }
  return flags;
}

Result<JobGraph> ParseJobSpec(const std::string& spec, bool timely) {
  auto engine = timely ? workloads::Engine::kTimely : workloads::Engine::kFlink;
  if (spec.rfind("nexmark:", 0) == 0) {
    std::string q = spec.substr(8);
    for (auto query : workloads::AllNexmarkQueries()) {
      if (q == workloads::NexmarkQueryName(query)) {
        return workloads::BuildNexmarkJob(query, engine);
      }
    }
    return Status::InvalidArgument("unknown Nexmark query '" + q + "'");
  }
  if (spec.rfind("pqp:", 0) == 0) {
    std::string rest = spec.substr(4);
    size_t colon = rest.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("pqp spec needs a variant index");
    }
    std::string tmpl = rest.substr(0, colon);
    workloads::PqpTemplate t;
    if (tmpl == "linear") {
      t = workloads::PqpTemplate::kLinear;
    } else if (tmpl == "2way") {
      t = workloads::PqpTemplate::kTwoWayJoin;
    } else if (tmpl == "3way") {
      t = workloads::PqpTemplate::kThreeWayJoin;
    } else {
      return Status::InvalidArgument("unknown PQP template '" + tmpl + "'");
    }
    int variant = 0;
    if (!ParseNumber(rest.substr(colon + 1), 0,
                     workloads::PqpVariantCount(t) - 1, &variant)) {
      return Status::InvalidArgument("PQP variant out of range");
    }
    return workloads::BuildPqpJob(t, variant);
  }
  return Status::InvalidArgument("unrecognized job spec '" + spec + "'");
}

std::unique_ptr<sim::StreamEngine> MakeEngine(const JobGraph& job,
                                              bool timely, uint64_t seed) {
  sim::PerfModel model(job, workloads::CostConfigFor(job));
  if (timely) {
    timelysim::TimelyConfig cfg;
    cfg.noise_seed = seed;
    return std::make_unique<timelysim::TimelySimulator>(job, model, cfg);
  }
  sim::SimConfig cfg;
  cfg.noise_seed = seed;
  return std::make_unique<sim::FlinkEngine>(job, model, cfg);
}

int CmdCollect(const Flags& flags) {
  auto out = flags.find("out");
  if (out == flags.end()) return Usage();
  core::HistoryOptions opts;
  if (!NumericFlag(flags, "samples", 1, 100000, &opts.samples_per_job) ||
      !NumericFlag(flags, "seed", uint64_t{0}, kMaxU64, &opts.seed)) {
    return Usage();
  }
  std::string workload = flags.count("workload") ? flags.at("workload")
                                                 : std::string("all");
  bool timely = workload == "nexmark-timely";

  std::vector<JobGraph> jobs;
  auto engine = timely ? workloads::Engine::kTimely : workloads::Engine::kFlink;
  if (workload == "nexmark-flink" || workload == "nexmark-timely" ||
      workload == "all") {
    for (auto q : workloads::AllNexmarkQueries()) {
      jobs.push_back(workloads::BuildNexmarkJob(q, engine));
    }
  }
  if (workload == "pqp" || workload == "all") {
    for (int i = 0; i < 6; ++i) {
      jobs.push_back(
          workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, i));
      jobs.push_back(
          workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, i));
      jobs.push_back(
          workloads::BuildPqpJob(workloads::PqpTemplate::kThreeWayJoin, i));
    }
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  core::EngineFactory factory;
  if (timely) {
    opts.max_parallelism = 10;
    factory = [](const JobGraph& g, uint64_t seed) {
      sim::PerfModel model(g, workloads::CostConfigFor(g));
      timelysim::TimelyConfig cfg;
      cfg.noise_seed = seed;
      return std::make_unique<timelysim::TimelySimulator>(g, model, cfg);
    };
  }
  auto records = core::CollectHistory(jobs, opts, factory);
  Status st = core::SaveHistory(records, out->second);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("collected %zu records from %zu jobs -> %s\n", records.size(),
              jobs.size(), out->second.c_str());
  return 0;
}

int CmdPretrain(const Flags& flags) {
  if (!flags.count("history") || !flags.count("kb-path")) return Usage();
  core::PretrainOptions opts;
  if (flags.count("no-cluster")) opts.use_clustering = false;
  if (!NumericFlag(flags, "k", 0, 1000, &opts.k) ||
      !NumericFlag(flags, "epochs", 1, 100000, &opts.epochs)) {
    return Usage();
  }
  auto records = core::LoadHistory(flags.at("history"));
  if (!records.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 records.status().ToString().c_str());
    return 1;
  }
  std::printf("pre-training on %zu records...\n", records->size());
  auto bundle = core::Pretrainer(opts).Run(std::move(*records));
  if (!bundle.ok()) {
    std::fprintf(stderr, "pre-training failed: %s\n",
                 bundle.status().ToString().c_str());
    return 1;
  }
  auto service = kb::KbService::FromBundle(
      std::make_shared<const core::PretrainedBundle>(std::move(*bundle)));
  Status st = service->Save(flags.at("kb-path"));
  if (!st.ok()) {
    std::fprintf(stderr, "kb save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("knowledge base initialized -> %s\n",
              flags.at("kb-path").c_str());
  return 0;
}

int CmdTune(const Flags& flags) {
  if (!flags.count("kb-path") || !flags.count("job")) return Usage();
  bool timely = flags.count("engine") && flags.at("engine") == "timely";

  double rate = 10.0;
  sim::FaultPlan plan;
  core::StreamTuneOptions opts;
  if (!NumericFlag(flags, "rate", kMinRate, kMaxRate, &rate) ||
      !NumericFlag(flags, "chaos-seed", uint64_t{0}, kMaxU64, &plan.seed) ||
      !NumericFlag(flags, "chaos-deploy-fail", 0.0, 1.0,
                   &plan.deploy_failure_prob) ||
      !NumericFlag(flags, "chaos-metric-drop", 0.0, 1.0,
                   &plan.measure_dropout_prob) ||
      !NumericFlag(flags, "chaos-straggler", 0.0, 1.0,
                   &plan.straggler_prob) ||
      !NumericFlag(flags, "chaos-corrupt", 0.0, 1.0,
                   &plan.metric_corruption_prob) ||
      !NumericFlag(flags, "chaos-spike", 0.0, 1.0, &plan.rate_spike_prob) ||
      !ParseModel(flags, &opts.model)) {
    return Usage();
  }
  Status plan_ok = plan.Validate();
  if (!plan_ok.ok()) {
    std::fprintf(stderr, "bad fault plan: %s\n", plan_ok.ToString().c_str());
    return 2;
  }

  auto job = ParseJobSpec(flags.at("job"), timely);
  if (!job.ok()) {
    std::fprintf(stderr, "%s\n", job.status().ToString().c_str());
    return 2;
  }

  auto opened = kb::KbService::Open(flags.at("kb-path"));
  if (!opened.ok()) {
    std::fprintf(stderr, "kb load failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<kb::KbService> service = std::move(*opened);
  std::shared_ptr<const kb::KbSnapshot> snapshot = service->Snapshot();
  auto bare_engine = MakeEngine(*job, timely, 7);
  sim::StreamEngine* engine = bare_engine.get();
  std::unique_ptr<sim::ChaosEngine> chaos;
  if (!plan.Empty()) {
    chaos = std::make_unique<sim::ChaosEngine>(bare_engine.get(), plan);
    engine = chaos.get();
  }
  std::vector<int> ones(job->num_operators(), 1);
  // Retried so an injected fault cannot leave the job undeployed before
  // tuning even starts (a single call when chaos is off).
  (void)baselines::RobustLoop(engine).Deploy(ones);
  engine->ScaleAllSources(rate);

  std::unique_ptr<core::StreamTuneTuner> tuner =
      snapshot->NewTuner(job->name(), opts);
  if (snapshot->job(job->name())) {
    std::printf("warm start: %zu admitted feedback sample(s) for %s\n",
                snapshot->job(job->name())->feedback.size(),
                job->name().c_str());
  }
  auto outcome = tuner->Tune(engine);
  if (!outcome.ok()) {
    std::fprintf(stderr, "tuning failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("%s tuned %s at %.1fx W_u on %s\n", tuner->name().c_str(),
              job->name().c_str(), rate, timely ? "Timely" : "Flink");
  TablePrinter table("recommendation", {"operator", "parallelism"});
  for (int v = 0; v < job->num_operators(); ++v) {
    table.AddRow({job->op(v).name,
                  std::to_string(outcome->final_parallelism[v])});
  }
  table.Print();
  // model_fits counts the M_f fits the process ran; model_fallbacks the
  // iterations where M_f could not be fitted and the step ran as DS2.
  std::printf(
      "total=%d reconfigurations=%d tuning_minutes=%.0f model_fits=%d "
      "model_fallbacks=%d clean=%s\n",
      outcome->total_parallelism, outcome->reconfigurations,
      outcome->tuning_minutes, outcome->model_fits, outcome->model_fallbacks,
      outcome->ended_with_backpressure ? "NO (backpressure!)" : "yes");
  if (chaos) {
    const sim::ChaosStats& cs = chaos->stats();
    std::printf(
        "chaos: injected=%d (deploy_failures=%d dropouts=%d corrupted=%d "
        "frozen=%d stragglers=%d spikes=%d)\n",
        cs.total(), cs.deploy_failures, cs.measure_dropouts,
        cs.corrupted_samples, cs.frozen_replays, cs.stragglers,
        cs.rate_spikes);
    std::printf("survived: faults=%d retries=%d rollbacks=%d\n",
                outcome->faults_survived, outcome->retries,
                outcome->rollbacks);
  }

  if (flags.count("admit")) {
    kb::AdmissionRecord rec;
    rec.record.graph = *job;
    rec.record.parallelism = engine->parallelism();
    rec.record.source_rates = engine->current_source_rates();
    auto metrics = engine->Measure();
    if (!metrics.ok()) {
      std::fprintf(stderr, "final measurement failed: %s\n",
                   metrics.status().ToString().c_str());
      return 1;
    }
    rec.record.labels = core::LabelBottlenecks(*job, *metrics);
    rec.record.job_cost = core::JobCost(*metrics);
    rec.record.backpressure = metrics->job_backpressure;
    rec.feedback = tuner->FeedbackFor(job->name());
    auto admitted = service->Admit(rec);
    if (!admitted.ok()) {
      std::fprintf(stderr, "admission failed: %s\n",
                   admitted.status().ToString().c_str());
      return 1;
    }
    Status st = service->Save(flags.at("kb-path"));
    if (!st.ok()) {
      std::fprintf(stderr, "kb save failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf(
        "admitted into cluster %d (distance %.1f%s%s), kb v%lld -> %s\n",
        admitted->cluster, admitted->distance,
        admitted->drifted ? ", drifted" : "",
        admitted->repretrained ? ", re-pretrained" : "", service->version(),
        flags.at("kb-path").c_str());
  }
  return 0;
}

int CmdAdmit(const Flags& flags) {
  if (!flags.count("kb-path") || !flags.count("history")) return Usage();
  auto service = kb::KbService::Open(flags.at("kb-path"));
  if (!service.ok()) {
    std::fprintf(stderr, "kb load failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  auto records = core::LoadHistory(flags.at("history"));
  if (!records.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 records.status().ToString().c_str());
    return 1;
  }
  int repretrains = 0;
  for (auto& r : *records) {
    kb::AdmissionRecord rec;
    rec.record = std::move(r);
    auto outcome = (*service)->Admit(rec);
    if (!outcome.ok()) {
      std::fprintf(stderr, "admission failed: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    if (outcome->repretrained) ++repretrains;
  }
  Status st = (*service)->Save(flags.at("kb-path"));
  if (!st.ok()) {
    std::fprintf(stderr, "kb save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("admitted %zu record(s), %d re-pretrain(s), kb v%lld -> %s\n",
              records->size(), repretrains, (*service)->version(),
              flags.at("kb-path").c_str());
  return 0;
}

int CmdSimulate(const Flags& flags) {
  if (!flags.count("job")) return Usage();
  auto job = ParseJobSpec(flags.at("job"), false);
  if (!job.ok()) {
    std::fprintf(stderr, "%s\n", job.status().ToString().c_str());
    return 2;
  }
  double rate = 1.0;
  if (!NumericFlag(flags, "rate", kMinRate, kMaxRate, &rate)) return Usage();
  std::vector<int> parallelism(job->num_operators(), 1);
  if (flags.count("parallelism")) {
    const std::string& list = flags.at("parallelism");
    size_t pos = 0;
    for (int v = 0; v < job->num_operators() && pos <= list.size(); ++v) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      if (!ParseNumber(list.substr(pos, comma - pos), 1, kMaxParallelism,
                       &parallelism[v])) {
        std::fprintf(stderr, "bad value '%s' for --parallelism\n",
                     list.c_str());
        return Usage();
      }
      pos = comma + 1;
    }
  }
  sim::PerfModel model(*job, workloads::CostConfigFor(*job));
  std::vector<double> rates(job->num_operators(), 0.0);
  for (int v = 0; v < job->num_operators(); ++v) {
    if (job->op(v).is_source()) rates[v] = job->op(v).source_rate * rate;
  }
  auto r = sim::RunEventSimulation(*job, model, parallelism, rates);
  if (!r.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 r.status().ToString().c_str());
    return 1;
  }
  TablePrinter table("discrete-event simulation of " + job->name(),
                     {"operator", "p", "busy", "blocked", "queue",
                      "in rec/s"});
  for (int v = 0; v < job->num_operators(); ++v) {
    table.AddRow({job->op(v).name, std::to_string(parallelism[v]),
                  TablePrinter::Fmt(r->busy_frac[v], 2),
                  TablePrinter::Fmt(r->blocked_frac[v], 2),
                  TablePrinter::Fmt(r->avg_queue_length[v], 1),
                  TablePrinter::Fmt(r->input_rate[v], 0)});
  }
  table.Print();
  std::printf("source throughput ratio: %.3f (%zu events, rescale %.1fx)\n",
              r->source_throughput_ratio, r->events_processed,
              r->time_rescale);
  return 0;
}

int CmdInspect(const Flags& flags) {
  if (flags.count("history")) {
    auto records = core::LoadHistory(flags.at("history"));
    if (!records.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   records.status().ToString().c_str());
      return 1;
    }
    std::map<std::string, int> per_job;
    int pos = 0, neg = 0, unl = 0, bp = 0;
    for (const auto& rec : *records) {
      ++per_job[rec.graph.name()];
      if (rec.backpressure) ++bp;
      for (int l : rec.labels) {
        if (l == 1) ++pos;
        else if (l == 0) ++neg;
        else ++unl;
      }
    }
    std::printf("%zu records over %zu jobs, %d with backpressure\n",
                records->size(), per_job.size(), bp);
    std::printf("operator labels: %d bottleneck / %d clear / %d unlabeled\n",
                pos, neg, unl);
    return 0;
  }
  if (flags.count("kb")) {
    auto loaded = kb::LoadKb(flags.at("kb"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "kb: %d cluster(s), %zu corpus records (%lld at last pre-train), "
        "%lld admission(s), %lld drifted\n",
        loaded->bundle->num_clusters(), loaded->bundle->records().size(),
        loaded->pretrain_corpus_size, loaded->admissions_total,
        loaded->drifted_since_pretrain);
    for (int c = 0; c < loaded->bundle->num_clusters(); ++c) {
      const core::ClusterModel& cm = loaded->bundle->cluster(c);
      const ml::GnnConfig& enc = cm.encoder.config();
      std::printf(
          "  cluster %d: center=%s (%d ops), %zu records, encoder %dx%d "
          "layers=%d, appearance=%lld\n",
          c, cm.center.name().c_str(), cm.center.num_operators(),
          cm.record_indices.size(), enc.feature_dim, enc.hidden_dim,
          enc.num_layers, loaded->appearance[c]);
    }
    for (const auto& [name, job] : loaded->jobs) {
      std::printf("  job %s: %lld admission(s), %zu feedback sample(s)\n",
                  name.c_str(), job.admissions, job.feedback.size());
    }
    return 0;
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  auto flags = ParseFlags(argc, argv, 2);
  if (cmd == "collect") return CmdCollect(flags);
  if (cmd == "pretrain") return CmdPretrain(flags);
  if (cmd == "tune") return CmdTune(flags);
  if (cmd == "admit") return CmdAdmit(flags);
  if (cmd == "simulate") return CmdSimulate(flags);
  if (cmd == "inspect") return CmdInspect(flags);
  return Usage();
}
