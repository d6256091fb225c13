// Graph Edit Distance between dataflow DAGs (Sec. IV-C).
//
// Node labels are operator types. Unit-cost edit operations:
//   node insertion / node deletion,
//   edge insertion / edge deletion,
//   operator type modification (node relabel),
//   edge direction modification (reversal counts 1, not delete+insert).
// All costs are symmetric and uniform, so the distance is a metric (the
// triangle inequality is property-tested).
//
// Two search modes mirror the paper's Fig. 11b ablation:
//   - "direct" exact GED: A* with a zero heuristic;
//   - AStar+-LSa-style search: best-first A* with a label-set-based
//     admissible lower bound, incumbent pruning, and (for similarity search)
//     threshold pruning that abandons branches whose bound exceeds tau.

#pragma once

#include <cstdint>
#include <vector>

#include "dataflow/job_graph.h"

namespace streamtune::graph {

/// Why a GED search stopped. Distinguishes "provably dissimilar" from "ran
/// out of budget": a threshold search that *completed* certifies
/// ged > threshold, while a budget-exhausted one proves nothing beyond its
/// upper bound — the cache must never turn the latter into a certificate,
/// and threshold callers can observe exhaustion instead of silently reading
/// it as "dissimilar".
enum class GedTermination {
  /// Search completed and `distance` is the true GED.
  kExact = 0,
  /// Threshold search completed without finding a mapping <= threshold:
  /// ged > threshold is proven; `distance` is only an upper bound.
  kPruned,
  /// Expansion budget exhausted: `distance` is an upper bound, nothing is
  /// proven about the threshold.
  kBudget,
  /// Graphs too large for A* (> 63 nodes): greedy upper bound only.
  kGreedy,
};

const char* ToString(GedTermination t);

/// Outcome of one GED computation.
struct GedResult {
  /// The edit distance (or, if !exact, an upper bound from the best mapping
  /// found before the search stopped).
  double distance = 0;
  /// True when `distance` is provably minimal.
  bool exact = true;
  /// Number of A* state expansions performed.
  size_t expansions = 0;
  /// The node mapping realizing `distance`: mapping[u] = matched g2 node,
  /// or -1 when g1 node u is deleted. Unmapped g2 nodes are insertions.
  /// Empty only when the search found no complete mapping (should not
  /// happen for valid inputs).
  std::vector<int> mapping;
  /// How the search ended (exact <=> termination == kExact).
  GedTermination termination = GedTermination::kExact;
};

/// One edit operation of a concrete edit script.
struct EditOp {
  enum class Kind {
    kNodeDeletion,
    kNodeInsertion,
    kTypeModification,
    kEdgeDeletion,
    kEdgeInsertion,
    kDirectionModification,
  };
  Kind kind;
  /// Human-readable description (operator names involved).
  std::string description;
};

const char* EditOpKindName(EditOp::Kind kind);

/// Expands a complete node mapping into the explicit edit script whose
/// length equals MappingCost(g1, g2, mapping). Useful for explaining why
/// two dataflow DAGs were (or were not) clustered together.
std::vector<EditOp> ExplainEdits(const JobGraph& g1, const JobGraph& g2,
                                 const std::vector<int>& mapping);

/// Search options.
struct GedOptions {
  /// Use the label-set lower bound (AStar+-LSa mode). False = "direct" GED
  /// with h = 0.
  bool use_lower_bound = true;
  /// Similarity-search threshold: branches whose cost bound exceeds this are
  /// pruned and the search reports "distance > threshold" early. < 0 = none.
  double threshold = -1.0;
  /// Max A* expansions before falling back to the best known upper bound.
  size_t expansion_budget = 500000;
};

/// Computes (or bounds) the GED between two valid DAGs.
GedResult ComputeGed(const JobGraph& g1, const JobGraph& g2,
                     const GedOptions& options = {});

/// Cost of a specific complete node mapping (mapping[i] = g2 node for g1
/// node i, or -1 for deletion); unmapped g2 nodes are insertions. Used for
/// upper bounds and for verifying the search in tests.
double MappingCost(const JobGraph& g1, const JobGraph& g2,
                   const std::vector<int>& mapping);

/// Fast greedy upper bound on the GED (label/degree-guided assignment).
double GreedyGedUpperBound(const JobGraph& g1, const JobGraph& g2);

/// O(1) structural upper bound: the cost of the delete-everything /
/// insert-everything edit path (n1 + e1 + n2 + e2). Loose but free — the
/// value QueryGed reports for pairs its label-set screen already proved
/// beyond the threshold.
double StructuralGedUpperBound(const JobGraph& g1, const JobGraph& g2);

/// The label-set lower bound on ged(g1, g2) for the full graphs (no partial
/// mapping): label-multiset mismatch plus edge-count mismatch. Admissible.
double LabelSetLowerBound(const JobGraph& g1, const JobGraph& g2);

}  // namespace streamtune::graph
