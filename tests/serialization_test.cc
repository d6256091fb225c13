// Round-trip and malformed-input tests for history/bundle persistence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

#include "core/serialization.h"
#include "workloads/nexmark.h"
#include "workloads/pqp.h"

namespace streamtune::core {
namespace {

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/streamtune_" + tag + "_" +
         std::to_string(::getpid()) + ".txt";
}

std::vector<HistoryRecord> SampleCorpus() {
  std::vector<JobGraph> jobs;
  jobs.push_back(workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                            workloads::Engine::kFlink));
  jobs.push_back(workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 1));
  HistoryOptions opts;
  opts.samples_per_job = 5;
  return CollectHistory(jobs, opts);
}

// A one-cluster bundle pre-trained on SampleCorpus().
PretrainedBundle SmallBundle() {
  PretrainOptions pre;
  pre.use_clustering = false;
  pre.epochs = 2;
  pre.hidden_dim = 16;
  auto bundle = Pretrainer(pre).Run(SampleCorpus());
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  return std::move(bundle).value();
}

// The bundle body WriteBundleBody emits for `bundle`.
std::string BundleBody(const PretrainedBundle& bundle) {
  std::ostringstream os;
  EXPECT_TRUE(WriteBundleBody(os, bundle).ok());
  return os.str();
}

Result<PretrainedBundle> ReadBody(const std::string& body) {
  std::istringstream is(body);
  return ReadBundleBody(is);
}

TEST(SerializationTest, JobGraphRoundTrip) {
  JobGraph g = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                          workloads::Engine::kFlink);
  std::stringstream ss;
  WriteJobGraph(ss, g);
  auto back = ReadJobGraph(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->name(), g.name());
  ASSERT_EQ(back->num_operators(), g.num_operators());
  EXPECT_EQ(back->edges(), g.edges());
  for (int v = 0; v < g.num_operators(); ++v) {
    const OperatorSpec& a = g.op(v);
    const OperatorSpec& b = back->op(v);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.window_type, b.window_type);
    EXPECT_DOUBLE_EQ(a.window_length, b.window_length);
    EXPECT_DOUBLE_EQ(a.sliding_length, b.sliding_length);
    EXPECT_EQ(a.aggregate_function, b.aggregate_function);
    EXPECT_DOUBLE_EQ(a.tuple_width_in, b.tuple_width_in);
    EXPECT_DOUBLE_EQ(a.source_rate, b.source_rate);
  }
}

TEST(SerializationTest, ReadRejectsMalformedGraph) {
  std::stringstream empty("");
  EXPECT_FALSE(ReadJobGraph(empty).ok());
  std::stringstream wrong_magic("grph foo\nops 1\n");
  EXPECT_FALSE(ReadJobGraph(wrong_magic).ok());
  std::stringstream bad_enum("graph g\nops 1\nop s 99 0 0 0 0 0 0 0 0 0 0 0 "
                             "0\nedges 0\n");
  EXPECT_FALSE(ReadJobGraph(bad_enum).ok());
  std::stringstream bad_edge(
      "graph g\nops 1\nop s 0 0 0 0 0 0 0 0 0 0 0 0 5\nedges 1\ne 0 7\n");
  EXPECT_FALSE(ReadJobGraph(bad_edge).ok());
}

TEST(SerializationTest, HistoryRoundTrip) {
  auto corpus = SampleCorpus();
  std::string path = TempPath("hist");
  ASSERT_TRUE(SaveHistory(corpus, path).ok());
  auto back = LoadHistory(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ((*back)[i].parallelism, corpus[i].parallelism);
    EXPECT_EQ((*back)[i].labels, corpus[i].labels);
    EXPECT_EQ((*back)[i].backpressure, corpus[i].backpressure);
    EXPECT_DOUBLE_EQ((*back)[i].job_cost, corpus[i].job_cost);
    ASSERT_EQ((*back)[i].source_rates.size(), corpus[i].source_rates.size());
    for (size_t v = 0; v < corpus[i].source_rates.size(); ++v) {
      EXPECT_DOUBLE_EQ((*back)[i].source_rates[v],
                       corpus[i].source_rates[v]);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadHistoryRejectsMissingFile) {
  EXPECT_FALSE(LoadHistory("/nonexistent/dir/nope.txt").ok());
}

TEST(SerializationTest, LoadHistoryRejectsWrongMagic) {
  std::string path = TempPath("badmagic");
  {
    std::ofstream os(path);
    os << "NOTAHISTORY 1\ncount 0\n";
  }
  EXPECT_FALSE(LoadHistory(path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, BundleRoundTripPreservesModelOutputs) {
  auto corpus = SampleCorpus();
  PretrainOptions pre;
  pre.use_clustering = true;
  pre.k = 2;
  pre.epochs = 5;
  pre.hidden_dim = 16;
  auto bundle = Pretrainer(pre).Run(corpus);
  ASSERT_TRUE(bundle.ok());

  auto back = ReadBody(BundleBody(*bundle));
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  EXPECT_EQ(back->num_clusters(), bundle->num_clusters());
  EXPECT_EQ(back->records().size(), bundle->records().size());

  // The loaded bundle must reproduce embeddings and head outputs exactly.
  JobGraph probe = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                              workloads::Engine::kFlink);
  std::vector<double> rates(probe.num_operators(), 0.0);
  std::vector<int> parallelism(probe.num_operators(), 4);
  for (int v = 0; v < probe.num_operators(); ++v) {
    if (probe.op(v).is_source()) rates[v] = 1e6;
  }
  for (int c = 0; c < bundle->num_clusters(); ++c) {
    ml::Matrix a = bundle->AgnosticEmbeddings(c, probe, rates);
    ml::Matrix b = back->AgnosticEmbeddings(c, probe, rates);
    ASSERT_TRUE(a.same_shape(b));
    EXPECT_DOUBLE_EQ(a.Sub(b).SquaredNorm(), 0.0) << "cluster " << c;
    auto pa = bundle->PretrainHeadProbabilities(c, probe, rates, parallelism);
    auto pb = back->PretrainHeadProbabilities(c, probe, rates, parallelism);
    for (size_t v = 0; v < pa.size(); ++v) EXPECT_DOUBLE_EQ(pa[v], pb[v]);
    // Warm-up datasets built from the loaded corpus match too.
    auto wa = bundle->WarmUpDataset(c, 8, 3);
    auto wb = back->WarmUpDataset(c, 8, 3);
    ASSERT_EQ(wa.size(), wb.size());
    for (size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wa[i].parallelism, wb[i].parallelism);
      EXPECT_EQ(wa[i].label, wb[i].label);
    }
  }
  // Cluster assignment is preserved (same centers).
  EXPECT_EQ(back->AssignCluster(probe), bundle->AssignCluster(probe));
}

TEST(SerializationTest, SaveFailsCleanlyWhenUnwritable) {
  auto corpus = SampleCorpus();
  // Unwritable temp path: the checked writer reports the open failure.
  EXPECT_FALSE(SaveHistory(corpus, "/nonexistent/dir/x.txt").ok());
  // A collision at <path>.tmp (here: a directory) must fail the save
  // without ever creating the destination file.
  std::string path = TempPath("collide");
  ASSERT_EQ(::mkdir((path + ".tmp").c_str(), 0755), 0);
  EXPECT_FALSE(SaveHistory(corpus, path).ok());
  struct stat st;
  EXPECT_NE(::stat(path.c_str(), &st), 0);
  std::remove((path + ".tmp").c_str());
}

TEST(SerializationTest, SaveLeavesNoTempFileBehind) {
  auto corpus = SampleCorpus();
  std::string path = TempPath("notmp");
  ASSERT_TRUE(SaveHistory(corpus, path).ok());
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0);
  std::remove(path.c_str());
}

TEST(SerializationTest, BundleBitFlipsNeverCrashTheLoader) {
  const std::string body = BundleBody(SmallBundle());

  // A knowledge-base file's CRC rejects every flip before this reader runs,
  // so the reader itself is tested on raw bodies. A flip inside a numeric
  // literal may still parse, but every flip must come back as either ok()
  // or an error Status, never a crash or an uncaught exception.
  int rejected = 0;
  for (size_t pos = 0; pos < body.size(); pos += 101) {
    std::string corrupted = body;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ (1 << (pos % 8)));
    auto loaded = ReadBody(corrupted);
    if (!loaded.ok()) {
      ++rejected;
    } else {
      EXPECT_GE(loaded->num_clusters(), 1);
    }
  }
  EXPECT_GT(rejected, 0);
}

// Weights that parse but are not finite must not load: a NaN or Inf weight
// would silently poison every embedding and prediction of the bundle.
TEST(SerializationTest, ReadBundleBodyRejectsNonFiniteWeights) {
  const std::string body = BundleBody(SmallBundle());
  // The first token of the first matrix row: every "mat" block is a weight.
  const size_t mat = body.find("\nmat ");
  ASSERT_NE(mat, std::string::npos);
  const size_t token = body.find('\n', mat + 1) + 1;
  const size_t token_end = body.find_first_of(" \n", token);
  for (const char* bad : {"nan", "inf"}) {
    std::string tampered = body;
    tampered.replace(token, token_end - token, bad);
    EXPECT_FALSE(ReadBody(tampered).ok()) << bad;
  }
}

TEST(SerializationTest, ReadBundleBodyRejectsTruncatedBody) {
  const std::string body = BundleBody(SmallBundle());
  EXPECT_FALSE(ReadBody(body.substr(0, body.size() / 2)).ok());
}

// ---- Semantic validation of history records -------------------------------
//
// ReadHistoryRecord is the one reader behind LoadHistory and the bundle
// body, so one bad value must fail the whole load, and SaveHistory must
// refuse to write what the reader would reject.

// A one-record history file whose `key` line (parallelism, rates or cost)
// has its first value replaced by `token`.
std::string HistoryWithToken(const HistoryRecord& rec, const std::string& key,
                             const std::string& token) {
  std::stringstream ss;
  WriteHistoryRecord(ss, rec);
  std::string text = ss.str();
  const size_t line = text.find("\n" + key + " ");
  EXPECT_NE(line, std::string::npos) << key;
  const size_t value = line + key.size() + 2;
  const size_t value_end = text.find_first_of(" \n", value);
  text.replace(value, value_end - value, token);
  std::string path = TempPath(("tok_" + key).c_str());
  std::ofstream os(path);
  os << "STHISTORY 1\ncount 1\n" << text;
  return path;
}

// SaveHistory fails on `rec` and leaves no file behind.
void ExpectSaveRefused(const HistoryRecord& rec, const char* tag) {
  std::string path = TempPath(tag);
  EXPECT_FALSE(SaveHistory({rec}, path).ok()) << tag;
  struct stat st;
  EXPECT_NE(::stat(path.c_str(), &st), 0) << tag;
  std::remove(path.c_str());
}

TEST(SerializationTest, HistoryRejectsParallelismOutOfRange) {
  const HistoryRecord rec = SampleCorpus()[0];
  for (const char* bad : {"0", "-3", "2147483648"}) {
    std::string path = HistoryWithToken(rec, "parallelism", bad);
    EXPECT_FALSE(LoadHistory(path).ok()) << "parallelism " << bad;
    std::remove(path.c_str());
  }
  std::string path = HistoryWithToken(rec, "parallelism", "2147483647");
  EXPECT_TRUE(LoadHistory(path).ok());
  std::remove(path.c_str());

  HistoryRecord bad = rec;
  bad.parallelism[0] = 0;
  ExpectSaveRefused(bad, "save_parallelism");
}

TEST(SerializationTest, HistoryRejectsNonFiniteOrNegativeRates) {
  const HistoryRecord rec = SampleCorpus()[0];
  for (const char* bad : {"nan", "inf", "-1"}) {
    std::string path = HistoryWithToken(rec, "rates", bad);
    EXPECT_FALSE(LoadHistory(path).ok()) << "rate " << bad;
    std::remove(path.c_str());
  }
  std::string path = HistoryWithToken(rec, "rates", "0");
  EXPECT_TRUE(LoadHistory(path).ok());
  std::remove(path.c_str());

  HistoryRecord bad = rec;
  bad.source_rates[0] = std::nan("");
  ExpectSaveRefused(bad, "save_rates");
}

TEST(SerializationTest, WritersRefuseMalformedHistoryRecord) {
  const HistoryRecord rec = SampleCorpus()[0];
  HistoryRecord short_rates = rec;
  short_rates.source_rates.pop_back();  // wrong operator count
  ExpectSaveRefused(short_rates, "save_short_rates");
  HistoryRecord bad_label = rec;
  bad_label.labels[0] = 2;
  ExpectSaveRefused(bad_label, "save_label");

  // The bundle writer checks its corpus records the same way.
  const PretrainedBundle bundle = SmallBundle();
  std::vector<ClusterModel> clusters;
  for (int c = 0; c < bundle.num_clusters(); ++c) {
    clusters.push_back(bundle.cluster(c));
  }
  std::vector<HistoryRecord> records(bundle.records().begin(),
                                     bundle.records().end());
  records[0].labels[0] = 2;
  const PretrainedBundle bad(std::move(clusters), std::move(records),
                             bundle.feature_encoder());
  std::ostringstream os;
  EXPECT_FALSE(WriteBundleBody(os, bad).ok());
}

TEST(SerializationTest, HistoryRejectsNonFiniteCost) {
  const HistoryRecord rec = SampleCorpus()[0];
  for (const char* bad : {"nan", "inf", "-inf"}) {
    std::string path = HistoryWithToken(rec, "cost", bad);
    EXPECT_FALSE(LoadHistory(path).ok()) << "cost " << bad;
    std::remove(path.c_str());
  }

  HistoryRecord bad = rec;
  bad.job_cost = -std::numeric_limits<double>::infinity();
  ExpectSaveRefused(bad, "save_cost");
}

}  // namespace
}  // namespace streamtune::core
