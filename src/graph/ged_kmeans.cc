#include "graph/ged_kmeans.h"

#include <algorithm>
#include <limits>

#include "common/status.h"
#include "graph/similarity.h"

namespace streamtune::graph {

std::vector<double> DistancesToCenters(const JobGraph& g,
                                       const std::vector<JobGraph>& centers,
                                       GedCache* cache) {
  std::vector<double> dist(centers.size(),
                           std::numeric_limits<double>::infinity());
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < centers.size(); ++i) {
    GedOptions opts;
    // Branch-and-bound across centers: once a center at distance `best` is
    // known, a deeper search than that is pointless for the assignment.
    if (best < std::numeric_limits<double>::infinity()) {
      opts.threshold = best;
    }
    GedResult r = QueryGed(g, centers[i], opts, cache);
    dist[i] = r.distance;
    best = std::min(best, r.distance);
  }
  return dist;
}

int NearestCenter(const JobGraph& g, const std::vector<JobGraph>& centers,
                  GedCache* cache) {
  std::vector<double> dist = DistancesToCenters(g, centers, cache);
  return static_cast<int>(
      std::min_element(dist.begin(), dist.end()) - dist.begin());
}

Result<KMeansResult> ClusterDags(const std::vector<JobGraph>& dataset,
                                 const KMeansOptions& options) {
  const int n = static_cast<int>(dataset.size());
  if (n == 0) return Status::InvalidArgument("empty dataset");
  if (options.k < 1 || options.k > n) {
    return Status::InvalidArgument("k must be in [1, dataset size]");
  }

  GedCache* cache = options.cache;
  Rng rng(options.seed);
  // Init: farthest-point seeding (k-means++-style). A random first center,
  // then each next center is the graph farthest from all chosen centers —
  // structurally distinct families reliably get their own seed. Ties keep
  // the lowest index.
  std::vector<int> center_idx;
  center_idx.push_back(rng.UniformInt(0, n - 1));
  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  while (static_cast<int>(center_idx.size()) < options.k) {
    const JobGraph& last = dataset[center_idx.back()];
    double far_dist = -1.0;
    int far = 0;
    for (int i = 0; i < n; ++i) {
      GedOptions opts;
      opts.threshold = min_dist[i];  // prune beyond the current minimum
      GedResult r = QueryGed(dataset[i], last, opts, cache);
      min_dist[i] = std::min(min_dist[i], r.distance);
      if (min_dist[i] > far_dist) {
        far_dist = min_dist[i];
        far = i;
      }
    }
    center_idx.push_back(far);
  }

  KMeansResult result;
  result.assignment.assign(n, 0);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    std::vector<JobGraph> centers;
    centers.reserve(options.k);
    for (int c : center_idx) centers.push_back(dataset[c]);
    // Assignment step: each graph to its nearest center; the inertia sums
    // in index order.
    double inertia = 0.0;
    bool changed = false;
    for (int i = 0; i < n; ++i) {
      std::vector<double> dist = DistancesToCenters(dataset[i], centers, cache);
      int best = static_cast<int>(
          std::min_element(dist.begin(), dist.end()) - dist.begin());
      inertia += dist[best];
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
    }
    result.within_cluster_distance = inertia;
    if (!changed && iter > 0) break;

    // Update step: similarity center per cluster.
    std::vector<int> new_centers = center_idx;
    for (int c = 0; c < options.k; ++c) {
      std::vector<JobGraph> members;
      std::vector<int> member_ids;
      for (int i = 0; i < n; ++i) {
        if (result.assignment[i] == c) {
          members.push_back(dataset[i]);
          member_ids.push_back(i);
        }
      }
      if (members.empty()) continue;  // keep the old center for empty cells
      int sc = SimilarityCenter(members, options.center_tau,
                                SearchMethod::kAStarLsa, cache);
      new_centers[c] = member_ids[sc];
    }
    if (new_centers == center_idx) break;
    center_idx = new_centers;
  }

  result.center_indices = center_idx;
  return result;
}

Result<int> SelectKByElbow(const std::vector<JobGraph>& dataset, int k_min,
                           int k_max, const KMeansOptions& base_options) {
  if (k_min < 1 || k_max < k_min ||
      k_max > static_cast<int>(dataset.size())) {
    return Status::InvalidArgument("invalid k range");
  }
  // Curvature needs >= 3 inertia points; with fewer the answer is k_min
  // regardless, so skip the clusterings entirely.
  if (k_max - k_min < 2) return k_min;

  const int count = k_max - k_min + 1;
  std::vector<double> inertia(count, 0.0);
  for (int i = 0; i < count; ++i) {
    KMeansOptions opts = base_options;
    opts.k = k_min + i;
    ST_ASSIGN_OR_RETURN(KMeansResult res, ClusterDags(dataset, opts));
    inertia[i] = res.within_cluster_distance;
  }

  // Elbow = maximum positive curvature of the inertia curve.
  int best_k = k_min + 1;
  double best_curv = -std::numeric_limits<double>::infinity();
  for (size_t i = 1; i + 1 < inertia.size(); ++i) {
    double curv = inertia[i - 1] - 2 * inertia[i] + inertia[i + 1];
    if (curv > best_curv) {
      best_curv = curv;
      best_k = k_min + static_cast<int>(i);
    }
  }
  return best_k;
}

}  // namespace streamtune::graph
