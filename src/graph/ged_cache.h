// The one GED query (QueryGed) and its thread-safe memo table, GedCache
// (the offline-phase hot path).
//
// A thresholded AStar+-LSa query first meets the label-set screen: when
// LabelSetLowerBound(a, b) > tau, lb <= ged proves ged > tau, so the query
// returns StructuralGedUpperBound as a non-exact kPruned result without a
// search: the certificate a completed pruned search would give. Every other
// query runs ComputeGed. The screen answers most graph-to-center
// comparisons of clustering, which are far apart.
//
// The GED k-means of Sec. IV-C re-asks the same pairwise distances many
// times: every assignment iteration re-measures distances to recurring
// centers, SimilarityCenter is an all-pairs sweep per cluster per iteration,
// and SelectKByElbow re-runs the whole clustering for each candidate k.
// Entries are keyed by the symmetric pair of JobGraph::CanonicalHash()
// values (GED is a metric: ged(a, b) == ged(b, a)), so structurally
// identical graphs share entries regardless of construction order.
//
// Caching policy — chosen so that a served answer is what a fresh search
// would report, which is what makes cached clustering identical to the
// uncached one:
//   - Exact distances are cached and served for any later query; the
//     `exact` flag of a served result is re-derived against the query's own
//     threshold, mirroring what a fresh search would report.
//   - Threshold-pruned searches are only an upper bound (the incumbent) —
//     they are never promoted to exact entries. What IS remembered is the
//     certificate "ged > tau" (when the search completed without exhausting
//     its expansion budget), which answers any later query with a
//     threshold <= tau, plus the incumbent as a reusable upper bound.
//   - Budget-exhausted searches contribute their upper bound only.
//
// Clustering queries the cache from one thread. It stays thread-safe (one
// mutex) because KbService samples stats() while an admission writes.

#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "graph/ged.h"

namespace streamtune::graph {

/// Memo table for the one GED query.
class GedCache {
 public:
  GedCache() = default;

  GedCache(const GedCache&) = delete;
  GedCache& operator=(const GedCache&) = delete;

  /// Cached QueryGed. On a hit the result carries the true
  /// distance (or a certified bound, see above) with `expansions == 0` and
  /// an empty `mapping` — callers that need the edit path should use
  /// ComputeGed directly. A threshold query (`options.threshold` set) finds
  /// the pair within the threshold iff the result is exact and at most it.
  GedResult Compute(const JobGraph& a, const JobGraph& b,
                    const GedOptions& options = {});

  /// Hit/miss counters (a hit = answered without running a search), split
  /// by what kind of remembered answer served the hit. All fields are one
  /// consistent sample.
  struct Stats {
    /// Total hits (== hits_exact + hits_certified; kept as a field so
    /// long-standing callers keep reading `stats().hits`).
    uint64_t hits = 0;
    /// Hits served from a cached exact distance.
    uint64_t hits_exact = 0;
    /// Hits served from a "ged > tau" certificate (threshold queries).
    uint64_t hits_certified = 0;
    uint64_t misses = 0;
    /// Distinct graph pairs with a cached entry at sample time.
    uint64_t entries = 0;
    /// Miss-path searches that exhausted their expansion budget (these
    /// never mint certificates; see GedTermination::kBudget).
    uint64_t budget_exhausted = 0;
    double HitRate() const {
      uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };
  Stats stats() const;

  /// Number of distinct graph pairs with a cached entry.
  size_t size() const;

  /// Drops all entries and resets the counters.
  void Clear();

 private:
  struct Key {
    uint64_t lo = 0, hi = 0;
    bool operator==(const Key& o) const { return lo == o.lo && hi == o.hi; }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t z = k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<size_t>(z ^ (z >> 31));
    }
  };
  struct Entry {
    bool has_exact = false;
    double exact_distance = 0;
    /// Proven strict lower bound: ged > certified_gt (-inf when unknown).
    double certified_gt;
    /// Best known upper bound (+inf when unknown).
    double upper;
    Entry();
  };
  static Key MakeKey(const JobGraph& a, const JobGraph& b);
  // Folds a miss-path result into the entry for `key` and counts a
  // budget-exhausted search. Certificates are keyed off
  // GedTermination::kPruned — the only outcome that proves "ged > threshold"
  // (budget-exhausted and greedy-fallback results prove nothing beyond their
  // upper bound).
  void Record(const Key& key, const GedResult& result,
              const GedOptions& options);

  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> map_ STREAMTUNE_GUARDED_BY(mu_);
  uint64_t hits_exact_ STREAMTUNE_GUARDED_BY(mu_) = 0;
  uint64_t hits_certified_ STREAMTUNE_GUARDED_BY(mu_) = 0;
  uint64_t misses_ STREAMTUNE_GUARDED_BY(mu_) = 0;
  uint64_t budget_exhausted_ STREAMTUNE_GUARDED_BY(mu_) = 0;
};

/// The one GED query of the clustering code: the label-set screen, then
/// ComputeGed, served by `cache` when given. Cached and uncached queries give
/// the same exact distances and the same within-threshold answers, and so
/// does a bare ComputeGed: the screen only answers pairs a search would
/// prune. A threshold query (`options.threshold` set) finds the pair within
/// the threshold iff the result is exact and at most it.
GedResult QueryGed(const JobGraph& a, const JobGraph& b,
                   const GedOptions& options, GedCache* cache);

}  // namespace streamtune::graph
