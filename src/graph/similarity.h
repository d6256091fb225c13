// Graph similarity search and similarity centers (Sec. IV-C, Defs. 1-2).
//
// Sim(q, tau) = all DAGs of a collection whose GED to the query is <= tau.
// The similarity center of a cluster is the DAG appearing most often across
// the similarity-search results of every member — the paper's cheap
// approximation of the median graph, used as the k-means centroid.

#pragma once

#include <vector>

#include "dataflow/job_graph.h"
#include "graph/ged.h"

namespace streamtune::graph {

class GedCache;

/// How pairwise similarity checks are executed.
enum class SearchMethod {
  /// Compute the full exact GED with a zero heuristic, then compare to tau
  /// (the "direct GED computation" baseline of Fig. 11b).
  kDirectGed,
  /// Threshold-pruned best-first search with the label-set lower bound
  /// (the AStar+-LSa-style index-free approach).
  kAStarLsa,
};

/// Returns the indices of all graphs in `dataset` whose GED to `query` is at
/// most `tau` (Def. 1). `cache` optionally memoizes the pairwise checks
/// without changing the result.
std::vector<int> SimilaritySearch(
    const std::vector<JobGraph>& dataset, const JobGraph& query, double tau,
    SearchMethod method = SearchMethod::kAStarLsa, GedCache* cache = nullptr);

/// Appearance counts C_g for every graph of the cluster: how many members'
/// similarity searches include it (Def. 2). counts[i] corresponds to
/// cluster[i].
std::vector<int> AppearanceCounts(const std::vector<JobGraph>& cluster,
                                  double tau, SearchMethod method,
                                  GedCache* cache = nullptr);

/// Index of the similarity center (Eq. 7): argmax appearance count, ties
/// broken by the lowest index. Returns -1 for an empty cluster.
int SimilarityCenter(const std::vector<JobGraph>& cluster, double tau,
                     SearchMethod method = SearchMethod::kAStarLsa,
                     GedCache* cache = nullptr);

}  // namespace streamtune::graph
