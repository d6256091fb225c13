#include "graph/similarity.h"

#include <algorithm>

#include "graph/ged_cache.h"

namespace streamtune::graph {

namespace {

constexpr double kEps = 1e-9;

bool Within(const JobGraph& a, const JobGraph& b, double tau,
            SearchMethod method, GedCache* cache) {
  GedOptions opts;
  if (method == SearchMethod::kDirectGed) {
    // Direct: pay for the full exact computation, then compare. This is the
    // Fig. 11b ablation baseline — deliberately not threshold-pruned.
    opts.use_lower_bound = false;
    return QueryGed(a, b, opts, cache).distance <= tau + kEps;
  }
  opts.threshold = tau;
  const GedResult r = QueryGed(a, b, opts, cache);
  return r.exact && r.distance <= tau + kEps;
}

}  // namespace

std::vector<int> SimilaritySearch(const std::vector<JobGraph>& dataset,
                                  const JobGraph& query, double tau,
                                  SearchMethod method, GedCache* cache) {
  std::vector<int> hits;
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (Within(dataset[i], query, tau, method, cache)) {
      hits.push_back(static_cast<int>(i));
    }
  }
  return hits;
}

std::vector<int> AppearanceCounts(const std::vector<JobGraph>& cluster,
                                  double tau, SearchMethod method,
                                  GedCache* cache) {
  const size_t m = cluster.size();
  std::vector<int> counts(m, 0);
  for (size_t g = 0; g < m; ++g) {
    for (size_t q = 0; q < m; ++q) {
      // GED is symmetric, but we follow Def. 2 literally: g appears in the
      // search result of query q (including q itself, ged = 0 <= tau).
      if (g == q || Within(cluster[g], cluster[q], tau, method, cache)) {
        ++counts[g];
      }
    }
  }
  return counts;
}

int SimilarityCenter(const std::vector<JobGraph>& cluster, double tau,
                     SearchMethod method, GedCache* cache) {
  if (cluster.empty()) return -1;
  std::vector<int> counts = AppearanceCounts(cluster, tau, method, cache);
  return static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

}  // namespace streamtune::graph
