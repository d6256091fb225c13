// Concurrency, snapshot-isolation and drift-trigger tests for KbService.
//
// The concurrent test is the TSan target: N reader threads run inference
// against live snapshots while a writer admits sessions and re-pretrains.
// Build with -DSTREAMTUNE_SANITIZE=thread to check it race-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/ged.h"
#include "graph/ged_kmeans.h"
#include "kb/kb_service.h"
#include "sim/engine.h"
#include "workloads/cost_config.h"
#include "workloads/nexmark.h"
#include "workloads/pqp.h"

namespace streamtune::kb {
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

KbUpdateOptions SmallOptions() {
  KbUpdateOptions o;
  o.pretrain.k = 2;
  o.pretrain.epochs = 2;
  o.pretrain.hidden_dim = 16;
  o.min_new_records = 1000;
  return o;
}

AdmissionRecord MakeAdmission(const JobGraph& job, uint64_t seed) {
  std::vector<JobGraph> jobs{job};
  core::HistoryOptions opts;
  opts.samples_per_job = 1;
  opts.seed = seed;
  AdmissionRecord rec;
  rec.record = core::CollectHistory(jobs, opts).front();
  return rec;
}

std::unique_ptr<sim::StreamEngine> MakeEngine(const JobGraph& job,
                                              uint64_t seed) {
  sim::PerfModel model(job, workloads::CostConfigFor(job));
  sim::SimConfig cfg;
  cfg.noise_seed = seed;
  return std::make_unique<sim::FlinkEngine>(job, model, cfg);
}

TEST(KbServiceTest, SnapshotIsolation) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto before = (*service)->Snapshot();
  const size_t corpus_before = before->bundle()->records().size();
  EXPECT_EQ(before->version(), 0);

  JobGraph q8 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ8,
                                           workloads::Engine::kFlink);
  auto outcome = (*service)->Admit(MakeAdmission(q8, 41));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  // The old snapshot is untouched; the new one sees the admission.
  EXPECT_EQ(before->version(), 0);
  EXPECT_EQ(before->bundle()->records().size(), corpus_before);
  EXPECT_EQ(before->job(q8.name()), nullptr);
  auto after = (*service)->Snapshot();
  EXPECT_EQ(after->version(), 1);
  EXPECT_EQ(after->bundle()->records().size(), corpus_before + 1);
  ASSERT_NE(after->job(q8.name()), nullptr);
  EXPECT_EQ(after->job(q8.name())->admissions, 1);
}

TEST(KbServiceTest, DriftTriggerRepretrains) {
  KbUpdateOptions o = SmallOptions();
  o.min_new_records = 2;
  o.drifted_trigger = 2;
  o.drift_distance = 0.0;     // every admission counts as drifted
  o.growth_fraction = 1e9;    // growth alone never triggers
  auto service = KbService::Build(SampleCorpus(), o);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  JobGraph q8 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ8,
                                           workloads::Engine::kFlink);
  auto first = (*service)->Admit(MakeAdmission(q8, 51));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->drifted);
  EXPECT_FALSE(first->repretrained);

  auto second = (*service)->Admit(MakeAdmission(q8, 52));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->repretrained);

  const KnowledgeBase& kb = (*service)->Snapshot()->kb();
  EXPECT_EQ(kb.drifted_since_pretrain, 0);
  EXPECT_EQ(kb.pretrain_corpus_size,
            static_cast<long long>(kb.bundle->records().size()));
  long long total = 0;
  for (long long a : kb.appearance) total += a;
  EXPECT_EQ(total, static_cast<long long>(kb.bundle->records().size()));
}

// Re-admitting a structure the pre-training clustered never counts as
// drift, however far it sits from its center: re-clustering would give the
// same clusters and the same distance.
TEST(KbServiceTest, ClusteredStructuresNeverDrift) {
  KbUpdateOptions o = SmallOptions();
  o.min_new_records = 2;
  o.drifted_trigger = 2;
  o.drift_distance = 0.0;   // any distance above 0 is far
  o.growth_fraction = 1e9;  // growth alone never triggers
  const std::vector<core::HistoryRecord> corpus = SampleCorpus();
  auto service = KbService::Build(corpus, o);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::vector<JobGraph> structures;
  for (const core::HistoryRecord& rec : corpus) {
    const bool listed = std::any_of(
        structures.begin(), structures.end(),
        [&](const JobGraph& g) { return g.name() == rec.graph.name(); });
    if (!listed) structures.push_back(rec.graph);
  }
  ASSERT_EQ(structures.size(), 3u);

  double farthest = 0;
  uint64_t seed = 1000;
  for (int round = 0; round < 3; ++round) {
    for (const JobGraph& job : structures) {
      auto outcome = (*service)->Admit(MakeAdmission(job, seed++));
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_FALSE(outcome->drifted) << job.name();
      EXPECT_FALSE(outcome->repretrained) << job.name();
      farthest = std::max(farthest, outcome->distance);
    }
  }
  // With three structures in two clusters, one sits off its center: by
  // distance alone its admissions would have drifted.
  EXPECT_GT(farthest, o.drift_distance);
  EXPECT_EQ((*service)->Snapshot()->kb().drifted_since_pretrain, 0);
  EXPECT_EQ((*service)->Stats().repretrains, 0);
}

// A structure the last clustering did not see drifts on every admission,
// also once an admission has put it in the corpus, until a re-pre-train
// clusters it.
TEST(KbServiceTest, UnclusteredStructureDriftsUntilRepretrained) {
  KbUpdateOptions o = SmallOptions();
  o.min_new_records = 2;
  o.drifted_trigger = 3;
  o.drift_distance = 0.0;
  o.growth_fraction = 1e9;
  auto service = KbService::Build(SampleCorpus(), o);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  JobGraph q8 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ8,
                                           workloads::Engine::kFlink);
  for (long long i = 1; i <= 2; ++i) {
    auto outcome = (*service)->Admit(MakeAdmission(q8, 1100 + i));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->drifted) << "admission " << i;
    EXPECT_FALSE(outcome->repretrained) << "admission " << i;
    EXPECT_EQ((*service)->Snapshot()->kb().drifted_since_pretrain, i);
  }

  auto third = (*service)->Admit(MakeAdmission(q8, 1103));
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_TRUE(third->drifted);
  EXPECT_TRUE(third->repretrained);

  for (uint64_t seed = 1104; seed < 1107; ++seed) {
    auto outcome = (*service)->Admit(MakeAdmission(q8, seed));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_FALSE(outcome->drifted);
    EXPECT_FALSE(outcome->repretrained);
  }
  EXPECT_EQ((*service)->Snapshot()->kb().drifted_since_pretrain, 0);
  EXPECT_EQ((*service)->Stats().repretrains, 1);
}

// Bundle versions share their records: an admission adds one record object
// and points at the others, which stay valid for as long as any snapshot
// holds them.
TEST(KbServiceTest, AdmitSharesRecordsAcrossSnapshots) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::shared_ptr<const KbSnapshot> before = (*service)->Snapshot();
  const core::Corpus& old_records = before->kb().bundle->records();
  const size_t n = old_records.size();
  std::vector<std::string> names;
  for (const core::HistoryRecord& rec : old_records) {
    names.push_back(rec.graph.name());
  }

  JobGraph q8 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ8,
                                           workloads::Engine::kFlink);
  AdmissionRecord rec = MakeAdmission(q8, 1201);
  rec.record.graph = q8;  // a graph fresh from its builder is cold
  ASSERT_FALSE(rec.record.graph.adjacency_warm());
  ASSERT_TRUE((*service)->Admit(rec).ok());

  std::shared_ptr<const KbSnapshot> after = (*service)->Snapshot();
  const core::Corpus& new_records = after->kb().bundle->records();
  ASSERT_EQ(new_records.size(), n + 1);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(&new_records[i], &old_records[i]) << "record " << i;
  }
  EXPECT_EQ(new_records[n].graph.name(), q8.name());
  EXPECT_TRUE(new_records[n].graph.adjacency_warm());

  // Dropping every holder of the new snapshot leaves the old one whole.
  after.reset();
  service->reset();
  ASSERT_EQ(old_records.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(old_records[i].graph.name(), names[i]);
    EXPECT_TRUE(core::ValidateHistoryRecord(old_records[i]).ok());
  }
}

TEST(KbServiceTest, GrowthTriggerRepretrains) {
  KbUpdateOptions o = SmallOptions();
  o.min_new_records = 2;
  o.drift_distance = 1e9;     // nothing counts as drifted
  o.growth_fraction = 0.1;    // two admissions into a 15-record corpus
  auto service = KbService::Build(SampleCorpus(), o);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  JobGraph q8 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ8,
                                           workloads::Engine::kFlink);
  ASSERT_TRUE((*service)->Admit(MakeAdmission(q8, 61)).ok());
  auto second = (*service)->Admit(MakeAdmission(q8, 62));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->drifted);
  EXPECT_TRUE(second->repretrained);
}

TEST(KbServiceTest, NewTunerSeedsAdmittedFeedback) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  AdmissionRecord rec = MakeAdmission(q5, 71);
  auto snapshot = (*service)->Snapshot();
  int c = snapshot->bundle()->AssignCluster(q5);
  rec.feedback = snapshot->bundle()->WarmUpDataset(c, 5, 71);
  ASSERT_FALSE(rec.feedback.empty());
  ASSERT_TRUE((*service)->Admit(rec).ok());

  auto tuner = (*service)->Snapshot()->NewTuner(q5.name());
  EXPECT_EQ(tuner->FeedbackFor(q5.name()).size(), rec.feedback.size());
  // A job the KB has never seen starts cold.
  auto cold = (*service)->Snapshot()->NewTuner("never-admitted");
  EXPECT_TRUE(cold->FeedbackFor("never-admitted").empty());
}

TEST(KbServiceTest, RejectsMalformedAdmission) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  AdmissionRecord rec = MakeAdmission(q5, 81);
  rec.record.parallelism.pop_back();  // wrong operator count
  EXPECT_FALSE((*service)->Admit(rec).ok());
  AdmissionRecord bad_label = MakeAdmission(q5, 82);
  bad_label.record.labels[0] = 7;
  EXPECT_FALSE((*service)->Admit(bad_label).ok());
  // Nothing was published.
  EXPECT_EQ((*service)->Snapshot()->version(), 0);
}

TEST(KbServiceTest, AdmitRejectsNonFiniteRecord) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  AdmissionRecord nan_rate = MakeAdmission(q5, 83);
  nan_rate.record.source_rates[0] = std::nan("");
  EXPECT_FALSE((*service)->Admit(nan_rate).ok());
  AdmissionRecord inf_cost = MakeAdmission(q5, 84);
  inf_cost.record.job_cost = std::numeric_limits<double>::infinity();
  EXPECT_FALSE((*service)->Admit(inf_cost).ok());
  EXPECT_EQ((*service)->Snapshot()->version(), 0);
  // The KB stays savable.
  const std::string path = ::testing::TempDir() + "kb_nonfinite.stkb";
  EXPECT_TRUE((*service)->Save(path).ok());
  std::remove(path.c_str());
}

TEST(KbServiceTest, AdmitRejectsUnfittableFeedback) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  AdmissionRecord rec = MakeAdmission(q5, 91);
  auto snapshot = (*service)->Snapshot();
  rec.feedback = snapshot->bundle()->WarmUpDataset(
      snapshot->bundle()->AssignCluster(q5), 5, 91);
  ASSERT_FALSE(rec.feedback.empty());

  // One sample no M_f fit accepts turns the whole admission away.
  AdmissionRecord nan_entry = rec;
  nan_entry.feedback[0].embedding[0] = std::nan("");
  EXPECT_FALSE((*service)->Admit(nan_entry).ok());
  AdmissionRecord zero_degree = rec;
  zero_degree.feedback.back().parallelism = 0;
  EXPECT_FALSE((*service)->Admit(zero_degree).ok());
  AdmissionRecord wrong_width = rec;
  wrong_width.feedback[0].embedding.pop_back();
  EXPECT_FALSE((*service)->Admit(wrong_width).ok());
  EXPECT_EQ((*service)->Snapshot()->version(), 0);

  ASSERT_TRUE((*service)->Admit(rec).ok());
  EXPECT_EQ((*service)->Snapshot()->job(q5.name())->feedback.size(),
            rec.feedback.size());
}

TEST(KbServiceTest, AdmissionOutcomeIsExactNearestCenter) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const std::vector<JobGraph> jobs = {
      workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ8,
                                 workloads::Engine::kFlink),
      workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                 workloads::Engine::kFlink),
      workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, 2),
      workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 3),
      workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ8,
                                 workloads::Engine::kFlink),
  };
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto bundle = (*service)->Snapshot()->bundle();
    std::vector<JobGraph> centers;
    for (int c = 0; c < bundle->num_clusters(); ++c) {
      centers.push_back(bundle->cluster(c).center);
    }
    auto outcome = (*service)->Admit(MakeAdmission(jobs[i], 300 + i));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_EQ(outcome->cluster, graph::NearestCenter(jobs[i], centers))
        << jobs[i].name();
    EXPECT_EQ(outcome->distance,
              graph::ComputeGed(jobs[i], centers[outcome->cluster]).distance)
        << jobs[i].name();
  }
}

// The TSan target: concurrent readers run GNN inference against whatever
// snapshot is current while one writer admits sessions, repeatedly swapping
// the published state and re-pretraining mid-stream. Any unsynchronized
// mutation of shared graphs/models/state is a data race here.
TEST(KbServiceTest, ConcurrentReadersSeeConsistentSnapshots) {
  KbUpdateOptions o = SmallOptions();
  o.min_new_records = 3;
  o.drifted_trigger = 3;
  o.drift_distance = 0.0;  // admissions drift -> re-pretrain mid-test
  auto service_res = KbService::Build(SampleCorpus(3), o);
  ASSERT_TRUE(service_res.ok()) << service_res.status().ToString();
  KbService* service = service_res->get();

  JobGraph probe = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                              workloads::Engine::kFlink);
  // The readers share this query graph; like every graph shared across
  // threads it must be adjacency-warmed first (the KB warms its own).
  probe.WarmAdjacency();
  std::vector<double> rates(probe.num_operators(), 0.0);
  for (int v = 0; v < probe.num_operators(); ++v) {
    if (probe.op(v).is_source()) rates[v] = 1e6;
  }

  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 12;
  constexpr int kAdmissions = 6;
  std::atomic<int> failures{0};
  std::atomic<bool> writer_done{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        auto snapshot = service->Snapshot();
        // Internal consistency of whatever state is published.
        if (!ValidateKb(snapshot->kb()).ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto bundle = snapshot->bundle();
        for (int c = 0; c < bundle->num_clusters(); ++c) {
          ml::Matrix emb = bundle->AgnosticEmbeddings(c, probe, rates);
          if (emb.rows() != probe.num_operators()) failures.fetch_add(1);
          auto warmup =
              bundle->WarmUpDataset(c, 4, static_cast<uint64_t>(t * 100 + i));
          for (const ml::LabeledSample& s : warmup) {
            if (s.embedding.size() != static_cast<size_t>(emb.cols())) {
              failures.fetch_add(1);
            }
          }
        }
      }
    });
  }
  std::thread writer([&] {
    JobGraph q8 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ8,
                                             workloads::Engine::kFlink);
    for (int i = 0; i < kAdmissions; ++i) {
      auto outcome =
          service->Admit(MakeAdmission(q8, 900 + static_cast<uint64_t>(i)));
      if (!outcome.ok()) failures.fetch_add(1);
    }
    writer_done.store(true);
  });
  for (auto& t : threads) t.join();
  writer.join();

  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service->version(), kAdmissions);
  // The drift trigger fired at least once mid-test.
  const KnowledgeBase& kb = service->Snapshot()->kb();
  EXPECT_LT(kb.drifted_since_pretrain, kAdmissions);
}

// True when no counter of `now` is below its value in `earlier`.
bool NonDecreasing(const KbServiceStats& earlier, const KbServiceStats& now) {
  return now.snapshot_version >= earlier.snapshot_version &&
         now.repretrains >= earlier.repretrains &&
         now.ged_hits_exact >= earlier.ged_hits_exact &&
         now.ged_hits_certified >= earlier.ged_hits_certified &&
         now.ged_misses >= earlier.ged_misses &&
         now.ged_entries >= earlier.ged_entries &&
         now.ged_budget_exhausted >= earlier.ged_budget_exhausted;
}

TEST(KbServiceTest, StatsMonotoneAndConsistentAcrossAdmissions) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  KbServiceStats prev = (*service)->Stats();
  EXPECT_EQ(prev.snapshot_version, 0);
  EXPECT_EQ(prev.snapshot_version, (*service)->version());
  EXPECT_EQ(prev.repretrains, 0);

  JobGraph q8 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ8,
                                           workloads::Engine::kFlink);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE((*service)->Admit(MakeAdmission(q8, 700 + i)).ok());
    KbServiceStats now = (*service)->Stats();
    EXPECT_EQ(now.snapshot_version, (*service)->version());
    EXPECT_LE(now.repretrains, now.snapshot_version);
    EXPECT_TRUE(NonDecreasing(prev, now));
    prev = now;
  }
  EXPECT_EQ(prev.snapshot_version, 3);

  // A rejected admission publishes nothing.
  AdmissionRecord bad;
  EXPECT_FALSE((*service)->Admit(bad).ok());
  KbServiceStats after_reject = (*service)->Stats();
  EXPECT_EQ(after_reject.snapshot_version, 3);
  EXPECT_EQ(after_reject.snapshot_version, (*service)->version());
  EXPECT_EQ(after_reject.repretrains, prev.repretrains);
  EXPECT_TRUE(NonDecreasing(prev, after_reject));
}

TEST(KbServiceTest, StatsExposeGedCacheCountersFromAdmissions) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  KbServiceStats before = (*service)->Stats();
  EXPECT_EQ(before.ged_hits(), 0);
  EXPECT_EQ(before.ged_misses, 0);
  EXPECT_EQ(before.ged_entries, 0);

  // Each admission scans the cluster centers by GED through the service's
  // shared GedCache, so the GED counters must move.
  JobGraph q8 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ8,
                                           workloads::Engine::kFlink);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE((*service)->Admit(MakeAdmission(q8, 900 + i)).ok());
  }
  KbServiceStats after = (*service)->Stats();
  EXPECT_EQ(after.snapshot_version, (*service)->version());
  EXPECT_LE(after.repretrains, after.snapshot_version);
  EXPECT_TRUE(NonDecreasing(before, after));
  EXPECT_GT(after.ged_misses + after.ged_hits(), 0);
  EXPECT_GT(after.ged_entries, 0);
  // Admissions 2 and 3 repeat admission 1's query structure, so the cache
  // must have served at least one of them.
  EXPECT_GT(after.ged_hits(), 0);
  EXPECT_GT(after.ged_hit_rate(), 0.0);
  EXPECT_LE(after.ged_hit_rate(), 1.0);
  // Only a cache miss runs a search that can exhaust its budget.
  EXPECT_LE(after.ged_budget_exhausted, after.ged_misses);
}

TEST(KbServiceTest, StatsConsistentUnderConcurrentWriters) {
  KbUpdateOptions o = SmallOptions();
  auto service_res = KbService::Build(SampleCorpus(3), o);
  ASSERT_TRUE(service_res.ok()) << service_res.status().ToString();
  KbService* service = service_res->get();

  constexpr int kWriters = 3;
  constexpr int kAdmissionsPerWriter = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  std::thread sampler([&] {
    KbServiceStats prev = service->Stats();
    for (int i = 0; i < 200; ++i) {
      KbServiceStats now = service->Stats();
      if (!NonDecreasing(prev, now)) failures.fetch_add(1);
      if (now.repretrains > now.snapshot_version) failures.fetch_add(1);
      if (now.snapshot_version > kWriters * kAdmissionsPerWriter) {
        failures.fetch_add(1);
      }
      prev = now;
    }
  });
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      JobGraph q8 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ8,
                                               workloads::Engine::kFlink);
      for (int i = 0; i < kAdmissionsPerWriter; ++i) {
        uint64_t seed = 800 + static_cast<uint64_t>(t * 100 + i);
        if (!service->Admit(MakeAdmission(q8, seed)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  sampler.join();

  EXPECT_EQ(failures.load(), 0);
  KbServiceStats final = service->Stats();
  EXPECT_EQ(final.snapshot_version, kWriters * kAdmissionsPerWriter);
  EXPECT_EQ(final.snapshot_version, service->version());
  EXPECT_LE(final.repretrains, final.snapshot_version);
}

TEST(KbServiceTest, WarmStartTunesNoWorseThanCold) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q3 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                           workloads::Engine::kFlink);
  std::vector<int> ones(q3.num_operators(), 1);

  // Cold session.
  auto cold_engine = MakeEngine(q3, 7);
  ASSERT_TRUE(cold_engine->Deploy(ones).ok());
  cold_engine->ScaleAllSources(6.0);
  auto cold_tuner = (*service)->Snapshot()->NewTuner(q3.name());
  auto cold = cold_tuner->Tune(cold_engine.get());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Admit the converged session's artifacts.
  AdmissionRecord rec;
  rec.record.graph = q3;
  rec.record.parallelism = cold_engine->parallelism();
  rec.record.source_rates = cold_engine->current_source_rates();
  auto metrics = cold_engine->Measure();
  ASSERT_TRUE(metrics.ok());
  rec.record.labels = core::LabelBottlenecks(q3, *metrics);
  rec.record.backpressure = metrics->job_backpressure;
  rec.feedback = cold_tuner->FeedbackFor(q3.name());
  ASSERT_TRUE((*service)->Admit(rec).ok());

  // Warm session on a fresh engine: the seeded feedback must not hurt.
  auto warm_engine = MakeEngine(q3, 7);
  ASSERT_TRUE(warm_engine->Deploy(ones).ok());
  warm_engine->ScaleAllSources(6.0);
  auto warm_tuner = (*service)->Snapshot()->NewTuner(q3.name());
  EXPECT_FALSE(warm_tuner->FeedbackFor(q3.name()).empty());
  auto warm = warm_tuner->Tune(warm_engine.get());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_FALSE(warm->ended_with_backpressure);
  EXPECT_LE(warm->reconfigurations, cold->reconfigurations + 3);
}

}  // namespace
}  // namespace streamtune::kb
