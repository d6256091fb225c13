#include "graph/ged_policy.h"

#include <cstdlib>
#include <cstring>

namespace streamtune::graph {

namespace {

constexpr double kEps = 1e-9;
// Both graphs at or under this node count: run plain A* (h = 0). The
// label-set heuristic costs O(n2^2 + kNumOperatorTypes * n2) per expansion,
// which tiny state spaces never pay back.
constexpr int kTinyExactNodes = 5;

}  // namespace

const char* ToString(GedPolicy p) {
  switch (p) {
    case GedPolicy::kExactAStar:
      return "exact-astar";
    case GedPolicy::kBoundedLsa:
      return "bounded-lsa";
    case GedPolicy::kUpperBoundOnly:
      return "upper-bound-only";
  }
  return "?";
}

const char* ToString(GedPolicyMode m) {
  switch (m) {
    case GedPolicyMode::kAuto:
      return "auto";
    case GedPolicyMode::kBounded:
      return "bounded";
    case GedPolicyMode::kExact:
      return "exact";
  }
  return "?";
}

GedPolicyMode GedPolicyModeFromEnv() {
  const char* v = std::getenv("STREAMTUNE_GED_POLICY");
  if (v == nullptr) return GedPolicyMode::kAuto;
  if (std::strcmp(v, "bounded") == 0) return GedPolicyMode::kBounded;
  if (std::strcmp(v, "exact") == 0) return GedPolicyMode::kExact;
  return GedPolicyMode::kAuto;
}

void GedPolicyCounters::CountChoice(GedPolicy p) {
  switch (p) {
    case GedPolicy::kExactAStar:
      exact.fetch_add(1, std::memory_order_relaxed);
      break;
    case GedPolicy::kBoundedLsa:
      bounded.fetch_add(1, std::memory_order_relaxed);
      break;
    case GedPolicy::kUpperBoundOnly:
      upper.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void GedPolicyCounters::CountResult(const GedResult& r) {
  if (r.termination == GedTermination::kBudget) {
    budget_exhausted.fetch_add(1, std::memory_order_relaxed);
  }
}

void GedPolicyCounters::Reset() {
  exact.store(0, std::memory_order_relaxed);
  bounded.store(0, std::memory_order_relaxed);
  upper.store(0, std::memory_order_relaxed);
  budget_exhausted.store(0, std::memory_order_relaxed);
}

GedPolicy ChooseGedPolicy(const JobGraph& a, const JobGraph& b,
                          const GedOptions& options, GedPolicyMode mode) {
  if (mode == GedPolicyMode::kBounded) return GedPolicy::kBoundedLsa;
  if (mode == GedPolicyMode::kExact) return GedPolicy::kExactAStar;
  // Threshold query already dead on the admissible screen: lb <= ged and
  // lb > tau prove ged > tau — exactly the certificate a completed pruned
  // search would produce, for O(n + e) instead of a search.
  if (options.threshold >= 0 &&
      LabelSetLowerBound(a, b) > options.threshold + kEps) {
    return GedPolicy::kUpperBoundOnly;
  }
  if (a.num_operators() <= kTinyExactNodes &&
      b.num_operators() <= kTinyExactNodes) {
    return GedPolicy::kExactAStar;
  }
  return GedPolicy::kBoundedLsa;
}

GedResult PolicyComputeGed(const JobGraph& a, const JobGraph& b,
                           const GedOptions& options,
                           GedPolicyCounters* counters) {
  if (!options.use_lower_bound) return ComputeGed(a, b, options);
  const GedPolicy policy = ChooseGedPolicy(a, b, options);
  if (counters != nullptr) counters->CountChoice(policy);
  GedResult r;
  switch (policy) {
    case GedPolicy::kUpperBoundOnly:
      r.distance = StructuralGedUpperBound(a, b);
      r.exact = false;
      r.termination = GedTermination::kPruned;
      break;
    case GedPolicy::kExactAStar: {
      GedOptions direct = options;
      direct.use_lower_bound = false;
      r = ComputeGed(a, b, direct);
      break;
    }
    case GedPolicy::kBoundedLsa:
      r = ComputeGed(a, b, options);
      break;
  }
  if (counters != nullptr) counters->CountResult(r);
  return r;
}

}  // namespace streamtune::graph
