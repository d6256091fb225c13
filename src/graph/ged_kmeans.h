// K-means clustering of dataflow DAGs under Graph Edit Distance (Sec. IV-C).
//
// Standard k-means structure — init / assign / update — with two
// graph-specific twists from the paper:
//   - centroids are member graphs (there is no "average" graph); the update
//     step picks each cluster's similarity center (Def. 2);
//   - assignment distances are GEDs, computed with the bounded best-first
//     search and pruned against the best center found so far.
// The elbow method selects k.
//
// Every step runs serially. Pairwise distances are optionally memoized in a
// GedCache (the Pretrainer shares one across every elbow run); results are
// identical with and without it — see DESIGN.md "Concurrency model".

#pragma once

#include <vector>

#include "common/rng.h"
#include "dataflow/job_graph.h"
#include "graph/ged_cache.h"

namespace streamtune::graph {

/// Clustering options. Similarity centers use AStar+-LSa search.
struct KMeansOptions {
  int k = 3;
  int max_iterations = 10;
  /// GED threshold tau for similarity-center computation (paper uses 5).
  double center_tau = 5.0;
  uint64_t seed = 2024;
  /// Externally owned memo table for the pairwise GEDs (repeated pairs
  /// across iterations and elbow runs are answered in O(1)); null runs
  /// uncached.
  GedCache* cache = nullptr;
};

/// Result of one clustering run.
struct KMeansResult {
  /// Cluster id per input graph.
  std::vector<int> assignment;
  /// Index (into the input dataset) of each cluster's center graph.
  std::vector<int> center_indices;
  /// Sum over graphs of GED to their assigned center (the k-means inertia).
  double within_cluster_distance = 0;
  int iterations = 0;
};

/// Runs GED k-means over `dataset`. Requires 1 <= k <= dataset.size().
Result<KMeansResult> ClusterDags(const std::vector<JobGraph>& dataset,
                                 const KMeansOptions& options);

/// Distance from `g` to each of the given center graphs; the search for
/// center i is pruned at the best distance among centers [0, i). Distances
/// above the final minimum may be upper bounds (or cached exact values);
/// the minimum itself is always exact. `cache` optionally memoizes.
std::vector<double> DistancesToCenters(const JobGraph& g,
                                       const std::vector<JobGraph>& centers,
                                       GedCache* cache = nullptr);

/// Index of the nearest center (minimum GED) for `g`.
int NearestCenter(const JobGraph& g, const std::vector<JobGraph>& centers,
                  GedCache* cache = nullptr);

/// Elbow-method selection of k: runs ClusterDags for each k in
/// [k_min, k_max] (sharing base_options.cache) and returns the k with the
/// largest curvature (second difference) of the inertia curve.
/// Returns k_min immediately when the range has fewer than 3 points, since
/// curvature is undefined there.
Result<int> SelectKByElbow(const std::vector<JobGraph>& dataset, int k_min,
                           int k_max, const KMeansOptions& base_options);

}  // namespace streamtune::graph
