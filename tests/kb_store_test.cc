// Round-trip, corruption and durability tests for the knowledge-base store.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

#include "common/crc32.h"
#include "kb/kb_service.h"
#include "kb/kb_store.h"
#include "kb/kb_updater.h"
#include "sim/engine.h"
#include "workloads/cost_config.h"
#include "workloads/nexmark.h"
#include "workloads/pqp.h"

namespace streamtune::kb {
namespace {

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/streamtune_kb_" + tag + "_" +
         std::to_string(::getpid()) + ".txt";
}

std::vector<core::HistoryRecord> SampleCorpus() {
  std::vector<JobGraph> jobs;
  jobs.push_back(workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                            workloads::Engine::kFlink));
  jobs.push_back(workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 1));
  core::HistoryOptions opts;
  opts.samples_per_job = 5;
  return core::CollectHistory(jobs, opts);
}

KbUpdateOptions SmallOptions() {
  KbUpdateOptions o;
  o.pretrain.k = 2;
  o.pretrain.epochs = 3;
  o.pretrain.hidden_dim = 16;
  // Keep drift-triggered re-pre-training out of these persistence tests.
  o.min_new_records = 1000;
  return o;
}

/// One converged-session admission for `job`, with feedback drawn from the
/// service's own warm-up corpus (realistic embedding widths).
AdmissionRecord MakeAdmission(const KbService& service, const JobGraph& job,
                              uint64_t seed) {
  std::vector<JobGraph> jobs{job};
  core::HistoryOptions opts;
  opts.samples_per_job = 1;
  opts.seed = seed;
  AdmissionRecord rec;
  rec.record = core::CollectHistory(jobs, opts).front();
  auto snapshot = service.Snapshot();
  int c = snapshot->bundle()->AssignCluster(job);
  rec.feedback = snapshot->bundle()->WarmUpDataset(c, 6, seed);
  return rec;
}

std::unique_ptr<sim::StreamEngine> MakeEngine(const JobGraph& job,
                                              uint64_t seed) {
  sim::PerfModel model(job, workloads::CostConfigFor(job));
  sim::SimConfig cfg;
  cfg.noise_seed = seed;
  return std::make_unique<sim::FlinkEngine>(job, model, cfg);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
}

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Offset of the "section <name> <bytes> <crc>" header line in `content`.
size_t SectionHeader(const std::string& content, const std::string& name) {
  return content.find("\nsection " + name + " ") + 1;
}

/// The body of section `name` of a saved KB, split out by its header's byte
/// count.
std::string SectionBody(const std::string& content, const std::string& name) {
  const size_t header = SectionHeader(content, name);
  EXPECT_GT(header, 0u) << "no section " << name;
  const size_t bytes = std::stoul(
      content.substr(header + std::string("section " + name + " ").size()));
  return content.substr(content.find('\n', header) + 1, bytes);
}

/// `content` with section `name`'s body replaced by `body`, under a header
/// whose byte count and CRC match it.
std::string WithSection(const std::string& content, const std::string& name,
                        const std::string& body) {
  const size_t header = SectionHeader(content, name);
  const size_t body_start = content.find('\n', header) + 1;
  const size_t body_end = body_start + SectionBody(content, name).size();
  std::ostringstream out;
  out << content.substr(0, header) << "section " << name << ' '
      << body.size() << ' ' << Crc32(body) << '\n'
      << body << content.substr(body_end);
  return out.str();
}

TEST(KbStoreTest, RoundTripPreservesState) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  JobGraph pqp = workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, 2);
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q5, 11)).ok());
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, pqp, 12)).ok());

  std::string path = TempPath("roundtrip");
  ASSERT_TRUE((*service)->Save(path).ok());
  auto back = LoadKb(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  const KnowledgeBase& orig = (*service)->Snapshot()->kb();
  EXPECT_EQ(back->bundle->num_clusters(), orig.bundle->num_clusters());
  EXPECT_EQ(back->bundle->records().size(), orig.bundle->records().size());
  EXPECT_EQ(back->appearance, orig.appearance);
  EXPECT_EQ(back->pretrain_corpus_size, orig.pretrain_corpus_size);
  EXPECT_EQ(back->drifted_since_pretrain, orig.drifted_since_pretrain);
  EXPECT_EQ(back->admissions_total, 2);
  ASSERT_EQ(back->jobs.size(), 2u);
  for (const auto& [name, job] : orig.jobs) {
    auto it = back->jobs.find(name);
    ASSERT_NE(it, back->jobs.end()) << name;
    EXPECT_EQ(it->second.admissions, job.admissions);
    ASSERT_EQ(it->second.feedback.size(), job.feedback.size());
    for (size_t i = 0; i < job.feedback.size(); ++i) {
      EXPECT_EQ(it->second.feedback[i].parallelism,
                job.feedback[i].parallelism);
      EXPECT_EQ(it->second.feedback[i].label, job.feedback[i].label);
      ASSERT_EQ(it->second.feedback[i].embedding.size(),
                job.feedback[i].embedding.size());
      for (size_t d = 0; d < job.feedback[i].embedding.size(); ++d) {
        EXPECT_DOUBLE_EQ(it->second.feedback[i].embedding[d],
                         job.feedback[i].embedding[d]);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(KbStoreTest, LegacyGpObservationsAreSkipped) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q5, 51)).ok());
  std::string path = TempPath("legacygp");
  ASSERT_TRUE((*service)->Save(path).ok());
  const std::string content = ReadAll(path);

  // Lay the jobs section out the way older writers did: a "gp <n>" field on
  // the job line and n "o" lines after the feedback lines. Jobs is the last
  // section, so the one admitted job's lines run to the end of the file.
  const size_t header = content.find("\nsection jobs ") + 1;
  ASSERT_GT(header, 0u);
  const size_t body_start = content.find('\n', header) + 1;
  const size_t next = content.size();
  ASSERT_GT(next, 0u);
  std::string body = content.substr(body_start, next - body_start);
  body.insert(body.find('\n', body.find("\njob ") + 1), " gp 2");
  body += "o 0 2 5.5\no 1 3 7.25\n";
  std::ostringstream out;
  out << content.substr(0, header) << "section jobs " << body.size() << ' '
      << Crc32(body) << '\n'
      << body << content.substr(next);
  WriteAll(path, out.str());

  auto back = LoadKb(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const KnowledgeBase& orig = (*service)->Snapshot()->kb();
  ASSERT_EQ(back->jobs.size(), 1u);
  EXPECT_EQ(back->jobs.begin()->second.admissions, 1);
  EXPECT_EQ(back->jobs.begin()->second.feedback.size(),
            orig.jobs.begin()->second.feedback.size());
  std::remove(path.c_str());
}

TEST(KbStoreTest, ReloadedKbReproducesRecommendationsAllModels) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q3 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                           workloads::Engine::kFlink);
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q3, 21)).ok());
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q5, 22)).ok());

  std::string path = TempPath("rec");
  ASSERT_TRUE((*service)->Save(path).ok());
  auto fresh = KbService::Open(path, SmallOptions());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  // Every fine-tune family must recommend bit-identically from the
  // reloaded KB: same warm-start feedback, same weights, same seeds.
  for (core::FineTuneModel model :
       {core::FineTuneModel::kXgboost, core::FineTuneModel::kSvm,
        core::FineTuneModel::kNn}) {
    core::StreamTuneOptions opts;
    opts.model = model;
    std::vector<int> a, b;
    for (KbService* svc : {service->get(), fresh->get()}) {
      auto engine = MakeEngine(q3, 7);
      std::vector<int> ones(q3.num_operators(), 1);
      ASSERT_TRUE(engine->Deploy(ones).ok());
      engine->ScaleAllSources(6.0);
      auto tuner = svc->Snapshot()->NewTuner(q3.name(), opts);
      auto outcome = tuner->Tune(engine.get());
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      (svc == service->get() ? a : b) = outcome->final_parallelism;
    }
    EXPECT_EQ(a, b) << "model " << core::FineTuneModelName(model);
  }
  std::remove(path.c_str());
}

TEST(KbStoreTest, EveryBitFlipIsRejected) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q5, 31)).ok());

  std::string path = TempPath("flip");
  ASSERT_TRUE((*service)->Save(path).ok());
  std::string content = ReadAll(path);
  ASSERT_FALSE(content.empty());

  // Sweep single-bit flips across the file (stride keeps runtime sane).
  // The length-prefixed, CRC-checksummed section format must reject every
  // one of them with an error Status — never crash, never load silently.
  int flips = 0;
  for (size_t pos = 0; pos < content.size(); pos += 53) {
    std::string corrupted = content;
    corrupted[pos] = static_cast<char>(
        corrupted[pos] ^ (1 << (pos % 8)));
    WriteAll(path, corrupted);
    auto loaded = LoadKb(path);
    EXPECT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " loaded";
    ++flips;
  }
  EXPECT_GT(flips, 10);
  std::remove(path.c_str());
}

TEST(KbStoreTest, TruncationIsRejected) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::string path = TempPath("trunc");
  ASSERT_TRUE((*service)->Save(path).ok());
  std::string content = ReadAll(path);
  for (size_t keep : {content.size() / 4, content.size() / 2,
                      3 * content.size() / 4, content.size() - 1}) {
    WriteAll(path, content.substr(0, keep));
    EXPECT_FALSE(LoadKb(path).ok()) << "truncated to " << keep << " bytes";
  }
  std::remove(path.c_str());
}

TEST(KbStoreTest, SaveIsAtomicAndLeavesNoTempFile) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::string path = TempPath("atomic");
  ASSERT_TRUE((*service)->Save(path).ok());
  EXPECT_TRUE(Exists(path));
  EXPECT_FALSE(Exists(path + ".tmp"));

  // A failed save (invalid state) must not clobber the existing file.
  KnowledgeBase broken = (*service)->Snapshot()->kb();
  broken.appearance.push_back(0);  // size no longer matches cluster count
  EXPECT_FALSE(SaveKb(broken, path).ok());
  EXPECT_FALSE(Exists(path + ".tmp"));
  EXPECT_TRUE(LoadKb(path).ok());
  std::remove(path.c_str());
}

TEST(KbStoreTest, SaveToUnwritablePathFails) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  Status st = (*service)->Save("/nonexistent/dir/kb.txt");
  EXPECT_FALSE(st.ok());
}

TEST(KbStoreTest, LoadRejectsUnfittableFeedback) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q5, 61)).ok());
  std::string path = TempPath("unfittable");
  ASSERT_TRUE((*service)->Save(path).ok());
  const std::string content = ReadAll(path);
  const std::string body = SectionBody(content, "jobs");
  auto write_jobs = [&](const std::string& jobs) {
    WriteAll(path, WithSection(content, "jobs", jobs));
  };
  write_jobs(body);
  ASSERT_TRUE(LoadKb(path).ok());

  // On the first "f <parallelism> <label> <width> <entries...>" line, put a
  // value no M_f fit accepts into one token, with a CRC that matches.
  const size_t line = body.find("\nf ") + 1;
  ASSERT_GT(line, 0u);
  for (const auto& [token, value] :
       {std::pair<int, std::string>{4, "nan"}, {1, "0"}}) {
    size_t begin = line;
    for (int t = 0; t < token; ++t) begin = body.find(' ', begin) + 1;
    const size_t end = body.find_first_of(" \n", begin);
    write_jobs(body.substr(0, begin) + value + body.substr(end));
    auto loaded = LoadKb(path);
    ASSERT_FALSE(loaded.ok()) << "'" << value << "' as token " << token;
    EXPECT_NE(loaded.status().ToString().find("feedback"), std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(KbStoreTest, LoadRejectsImplausibleEncoderShape) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::string path = TempPath("encoder_shape");
  ASSERT_TRUE((*service)->Save(path).ok());
  const std::string content = ReadAll(path);
  const std::string body = SectionBody(content, "bundle");
  auto write_bundle = [&](const std::string& bundle) {
    WriteAll(path, WithSection(content, "bundle", bundle));
  };
  write_bundle(body);
  ASSERT_TRUE(LoadKb(path).ok());

  // On the first "encoder <feature_dim> <hidden_dim> <num_layers> <seed>"
  // line, replace hidden_dim and num_layers. Each shape would throw or
  // allocate without bound if the encoder were built from it.
  const size_t line = body.find("\nencoder ") + 1;
  ASSERT_GT(line, 0u);
  const size_t hidden = body.find(' ', body.find(' ', line) + 1) + 1;
  const size_t seed = body.find(' ', body.find(' ', hidden) + 1) + 1;
  for (const char* shape : {"-4 3", "100000 3", "32 100000000"}) {
    write_bundle(body.substr(0, hidden) + shape + " " + body.substr(seed));
    EXPECT_FALSE(LoadKb(path).ok()) << "encoder shape " << shape;
  }
  std::remove(path.c_str());
}

TEST(KbStoreTest, LoadRangeChecksIntegersBeforeNarrowing) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q5, 61)).ok());
  ASSERT_GT((*service)->Snapshot()->bundle()->records().size(), 5u);
  std::string path = TempPath("narrowing");
  ASSERT_TRUE((*service)->Save(path).ok());
  const std::string content = ReadAll(path);
  const std::string jobs = SectionBody(content, "jobs");
  const std::string bundle = SectionBody(content, "bundle");

  // Each value is checked as 64-bit before it narrows to int: as an int,
  // 2^32 + 1 reads as parallelism 1 and 2^32 + 5 as record 5, and a member
  // count of -3 as an empty cluster.
  const size_t p = jobs.find("\nf ") + 3;  // first feedback parallelism
  ASSERT_GT(p, 3u);
  const size_t count = bundle.find("\nmembers ") + 9;  // first member count
  ASSERT_GT(count, 9u);
  const size_t index = bundle.find(' ', count) + 1;  // its first index
  const size_t line_end = bundle.find('\n', count);
  ASSERT_LT(index, line_end) << "the first cluster has no members";
  const struct {
    const char* what;
    const char* section;
    std::string body;
  } cases[] = {
      {"feedback parallelism 2^32 + 1", "jobs",
       jobs.substr(0, p) + "4294967297" + jobs.substr(jobs.find(' ', p))},
      {"member index 2^32 + 5", "bundle",
       bundle.substr(0, index) + "4294967301" +
           bundle.substr(bundle.find_first_of(" \n", index))},
      {"member count -3", "bundle",
       bundle.substr(0, count) + "-3" + bundle.substr(line_end)},
  };
  for (const auto& c : cases) {
    WriteAll(path, WithSection(content, c.section, c.body));
    EXPECT_FALSE(LoadKb(path).ok()) << c.what;
  }
  std::remove(path.c_str());
}

/// Writes to `path` what a version-2 writer produced for a fresh KB: the same
/// three sections under a "STKB 2" / "sections 4" header, then a trailing
/// "index" section with one line of corpus signature data per record and a
/// valid CRC. Asserts that the file loads to the saved state (saving it again
/// writes the saved bytes), then returns its bytes in `content` and the offset
/// of the index section header in `index_start`.
void WriteVersion2File(const std::string& path, std::string* content,
                       size_t* index_start) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q5, 41)).ok());
  ASSERT_TRUE((*service)->Save(path).ok());
  const std::string saved = ReadAll(path);

  const std::string v1_header = "STKB 1\nsections 3\n";
  ASSERT_EQ(saved.compare(0, v1_header.size(), v1_header), 0);
  const size_t records = (*service)->Snapshot()->bundle()->records().size();
  std::string index = "index " + std::to_string(records) + "\n";
  for (size_t i = 0; i < records; ++i) {
    index += "g 5 4 1 2 1 1 0 0 0 0 9e3779b97f4a7c15 0 7f4a 1\n";
  }
  std::ostringstream v2;
  v2 << "STKB 2\nsections 4\n" << saved.substr(v1_header.size())
     << "section index " << index.size() << ' ' << Crc32(index) << '\n'
     << index;
  *content = v2.str();
  *index_start = content->find("\nsection index ") + 1;
  ASSERT_GT(*index_start, 0u);

  WriteAll(path, *content);
  auto back = LoadKb(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const std::string resaved = TempPath("v2resaved");
  ASSERT_TRUE(SaveKb(*back, resaved).ok());
  EXPECT_EQ(ReadAll(resaved), saved);
  std::remove(resaved.c_str());
}

TEST(KbStoreTest, IndexSectionBitFlipIsRejected) {
  std::string path = TempPath("v2flip");
  std::string content;
  size_t index_start = 0;
  ASSERT_NO_FATAL_FAILURE(WriteVersion2File(path, &content, &index_start));

  // A version-2 file's index section is checked, then dropped: every bit
  // flip inside it (header and body) is still rejected.
  int flips = 0;
  for (size_t pos = index_start; pos < content.size(); pos += 3) {
    std::string corrupted = content;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ (1 << (pos % 8)));
    WriteAll(path, corrupted);
    EXPECT_FALSE(LoadKb(path).ok())
        << "index-section bit flip at byte " << pos << " loaded";
    ++flips;
  }
  EXPECT_GT(flips, 10);
  std::remove(path.c_str());
}

TEST(KbStoreTest, IndexSectionTruncationIsRejected) {
  std::string path = TempPath("v2trunc");
  std::string content;
  size_t index_start = 0;
  ASSERT_NO_FATAL_FAILURE(WriteVersion2File(path, &content, &index_start));

  // Every truncation inside a version-2 file's index section is rejected.
  for (size_t keep = index_start; keep < content.size(); keep += 5) {
    WriteAll(path, content.substr(0, keep));
    EXPECT_FALSE(LoadKb(path).ok())
        << "file truncated inside the index section at " << keep << " loaded";
  }
  WriteAll(path, content.substr(0, content.size() - 1));
  EXPECT_FALSE(LoadKb(path).ok());
  std::remove(path.c_str());
}

TEST(KbStoreTest, LoadRejectsMissingAndForeignFiles) {
  EXPECT_FALSE(LoadKb("/nonexistent/dir/kb.txt").ok());
  std::string path = TempPath("foreign");
  WriteAll(path, "STHISTORY 1\ncount 0\n");
  EXPECT_FALSE(LoadKb(path).ok());
  WriteAll(path, "STKB 99\nsections 3\n");
  EXPECT_FALSE(LoadKb(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace streamtune::kb
