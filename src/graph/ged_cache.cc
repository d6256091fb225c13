#include "graph/ged_cache.h"

#include <algorithm>
#include <limits>

namespace streamtune::graph {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;

// The uncached query: the label-set screen of a thresholded AStar+-LSa
// query, else the search. lb <= ged and lb > tau prove ged > tau: exactly
// the certificate a completed pruned search would give, for O(n + e).
GedResult ScreenOrSearch(const JobGraph& a, const JobGraph& b,
                         const GedOptions& options) {
  if (options.use_lower_bound && options.threshold >= 0 &&
      LabelSetLowerBound(a, b) > options.threshold + kEps) {
    GedResult r;
    r.distance = StructuralGedUpperBound(a, b);
    r.exact = false;
    r.termination = GedTermination::kPruned;
    return r;
  }
  return ComputeGed(a, b, options);
}
}  // namespace

GedCache::Entry::Entry() : certified_gt(-kInf), upper(kInf) {}

GedCache::Key GedCache::MakeKey(const JobGraph& a, const JobGraph& b) {
  uint64_t ha = a.CanonicalHash();
  uint64_t hb = b.CanonicalHash();
  return Key{std::min(ha, hb), std::max(ha, hb)};
}

void GedCache::Record(const Key& key, const GedResult& result,
                      const GedOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (result.termination == GedTermination::kBudget) ++budget_exhausted_;
  Entry& e = map_[key];
  if (result.exact) {
    e.has_exact = true;
    e.exact_distance = result.distance;
    e.upper = std::min(e.upper, result.distance);
    return;
  }
  // Inexact outcomes: the reported distance is always a valid upper bound
  // (the MappingCost of a concrete mapping, or the structural bound of the
  // label-set screen), never an exact distance. Only a kPruned
  // termination proves "ged > threshold" — kBudget (ran out of expansions)
  // and kGreedy (n2 > 63 fallback) must never mint a certificate.
  e.upper = std::min(e.upper, result.distance);
  if (options.threshold >= 0 &&
      result.termination == GedTermination::kPruned) {
    e.certified_gt = std::max(e.certified_gt, options.threshold);
  }
}

GedResult GedCache::Compute(const JobGraph& a, const JobGraph& b,
                            const GedOptions& options) {
  const Key key = MakeKey(a, b);
  const bool thresholded = options.threshold >= 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      const Entry& e = it->second;
      if (e.has_exact) {
        ++hits_exact_;
        GedResult r;
        r.distance = e.exact_distance;
        // Mirror a fresh search: in threshold mode a distance beyond tau is
        // reported as a non-exact bound.
        r.exact = !thresholded || e.exact_distance <= options.threshold + kEps;
        return r;
      }
      if (thresholded && options.threshold <= e.certified_gt + kEps) {
        // ged > certified_gt >= tau: a fresh search would prune; serve the
        // remembered upper bound (> tau by construction).
        ++hits_certified_;
        GedResult r;
        r.distance = e.upper;
        r.exact = false;
        return r;
      }
    }
    ++misses_;
  }
  GedResult result = ScreenOrSearch(a, b, options);
  Record(key, result, options);
  return result;
}

GedCache::Stats GedCache::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.hits_exact = hits_exact_;
    s.hits_certified = hits_certified_;
    s.misses = misses_;
    s.entries = static_cast<uint64_t>(map_.size());
    s.budget_exhausted = budget_exhausted_;
  }
  s.hits = s.hits_exact + s.hits_certified;
  return s;
}

size_t GedCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void GedCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  hits_exact_ = 0;
  hits_certified_ = 0;
  misses_ = 0;
  budget_exhausted_ = 0;
}

GedResult QueryGed(const JobGraph& a, const JobGraph& b,
                   const GedOptions& options, GedCache* cache) {
  return cache != nullptr ? cache->Compute(a, b, options)
                          : ScreenOrSearch(a, b, options);
}

}  // namespace streamtune::graph
