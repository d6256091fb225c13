// Offline pre-training clustering: the uncached pipeline versus the
// GED-memo pipeline, both serial.
//
// Measures the GED-dominated offline phase the paper benchmarks in Fig. 9b:
// SelectKByElbow over [2, 6] followed by the final ClusterDags at the chosen
// k, on a >= 60-graph corpus (all 56 PQP variants + random DAGs). Verifies
// the cached run is identical to the uncached one (same assignments,
// centers and selected k; exit 1 otherwise) and emits BENCH_pretrain.json
// so the perf trajectory is tracked across PRs.
//
// Environment knobs:
//   ST_BENCH_GRAPHS   corpus size (default 64, minimum 60 enforced).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "graph/ged_cache.h"
#include "graph/ged_kmeans.h"
#include "workloads/pqp.h"
#include "workloads/random_dag.h"

using namespace streamtune;

namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : fallback;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunOutcome {
  double elbow_ms = 0;
  double cluster_ms = 0;
  int k = 0;
  graph::KMeansResult clustering;
  graph::GedCache::Stats elbow_stats;
};

RunOutcome RunPipeline(const std::vector<JobGraph>& corpus, bool use_cache) {
  RunOutcome out;
  graph::GedCache cache;
  graph::KMeansOptions opts;
  if (use_cache) opts.cache = &cache;

  double t0 = NowMs();
  auto k = graph::SelectKByElbow(corpus, 2, 6, opts);
  out.elbow_ms = NowMs() - t0;
  if (!k.ok()) {
    std::fprintf(stderr, "SelectKByElbow failed: %s\n",
                 k.status().ToString().c_str());
    std::exit(1);
  }
  out.k = *k;
  out.elbow_stats = cache.stats();

  opts.k = *k;
  t0 = NowMs();
  auto clustering = graph::ClusterDags(corpus, opts);
  out.cluster_ms = NowMs() - t0;
  if (!clustering.ok()) {
    std::fprintf(stderr, "ClusterDags failed: %s\n",
                 clustering.status().ToString().c_str());
    std::exit(1);
  }
  out.clustering = *clustering;
  return out;
}

}  // namespace

int main() {
  const int target = std::max(60, EnvInt("ST_BENCH_GRAPHS", 64));

  // Corpus: every PQP variant (8 + 16 + 32 = 56) topped up with random
  // DAGs to the target size — the structural mixture of Fig. 5.
  std::vector<JobGraph> corpus = workloads::AllPqpJobs();
  workloads::RandomDagConfig rcfg;
  rcfg.max_sources = 2;
  rcfg.max_chain_length = 2;
  Rng rng(2024);
  int extra = 0;
  while (static_cast<int>(corpus.size()) < target) {
    corpus.push_back(workloads::GenerateRandomDag(&rng, rcfg));
    corpus.back().set_name("random-" + std::to_string(extra++));
  }
  std::printf("corpus: %zu graphs\n", corpus.size());

  std::printf("[1/2] uncached baseline...\n");
  RunOutcome uncached = RunPipeline(corpus, /*use_cache=*/false);
  std::printf("      elbow %.0f ms + final clustering %.0f ms (k = %d)\n",
              uncached.elbow_ms, uncached.cluster_ms, uncached.k);

  std::printf("[2/2] GED memo cache...\n");
  RunOutcome cached = RunPipeline(corpus, /*use_cache=*/true);
  std::printf("      elbow %.0f ms + final clustering %.0f ms (k = %d)\n",
              cached.elbow_ms, cached.cluster_ms, cached.k);

  const bool identical =
      uncached.k == cached.k &&
      uncached.clustering.assignment == cached.clustering.assignment &&
      uncached.clustering.center_indices == cached.clustering.center_indices;

  const double uncached_ms = uncached.elbow_ms + uncached.cluster_ms;
  const double cached_ms = cached.elbow_ms + cached.cluster_ms;
  const double speedup = cached_ms > 0 ? uncached_ms / cached_ms : 0;
  const graph::GedCache::Stats& st = cached.elbow_stats;

  std::printf(
      "\nspeedup: %.2fx (%.0f ms -> %.0f ms), elbow cache hit rate %.1f%% "
      "(%llu hits / %llu misses), results identical: %s\n",
      speedup, uncached_ms, cached_ms, 100.0 * st.HitRate(),
      static_cast<unsigned long long>(st.hits),
      static_cast<unsigned long long>(st.misses),
      identical ? "yes" : "NO (BUG)");

  FILE* f = std::fopen("BENCH_pretrain.json", "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\n"
        "  \"host\": %s,\n"
        "  \"corpus_graphs\": %zu,\n"
        "  \"selected_k\": %d,\n"
        "  \"uncached_elbow_ms\": %.1f,\n"
        "  \"uncached_cluster_ms\": %.1f,\n"
        "  \"cached_elbow_ms\": %.1f,\n"
        "  \"cached_cluster_ms\": %.1f,\n"
        "  \"uncached_total_ms\": %.1f,\n"
        "  \"cached_total_ms\": %.1f,\n"
        "  \"speedup\": %.3f,\n"
        "  \"elbow_cache_hits\": %llu,\n"
        "  \"elbow_cache_misses\": %llu,\n"
        "  \"elbow_cache_hit_rate\": %.4f,\n"
        "  \"identical_results\": %s\n"
        "}\n",
        bench::HostInfoJson().c_str(), corpus.size(), cached.k,
        uncached.elbow_ms, uncached.cluster_ms, cached.elbow_ms,
        cached.cluster_ms, uncached_ms, cached_ms, speedup,
        static_cast<unsigned long long>(st.hits),
        static_cast<unsigned long long>(st.misses), st.HitRate(),
        identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_pretrain.json\n");
  }
  return identical ? 0 : 1;
}
