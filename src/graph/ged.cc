#include "graph/ged.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <numeric>
#include <queue>
#include <string>

namespace streamtune::graph {

namespace {

// Edge relation between an ordered node pair: none / forward / backward.
enum Rel : int8_t { kNone = 0, kFwd = 1, kBwd = 2 };

struct Prepared {
  int n1 = 0, n2 = 0;
  std::vector<int> order;  // g1 processing order (high degree first)
  std::vector<int> label1, label2;
  std::vector<std::vector<int8_t>> rel1, rel2;  // rel[u][v]
  int edges2 = 0;
  // suffix_edges1[d] = #edges of g1 with >= 1 endpoint in order[d..].
  std::vector<int> suffix_edges1;
  // suffix_labels1[d][t] = count of label t among order[d..].
  std::vector<std::array<int, kNumOperatorTypes>> suffix_labels1;
};

std::vector<std::vector<int8_t>> BuildRel(const JobGraph& g) {
  int n = g.num_operators();
  std::vector<std::vector<int8_t>> rel(n, std::vector<int8_t>(n, kNone));
  for (const auto& [from, to] : g.edges()) {
    rel[from][to] = kFwd;
    rel[to][from] = kBwd;
  }
  return rel;
}

Prepared Prepare(const JobGraph& g1, const JobGraph& g2) {
  Prepared p;
  p.n1 = g1.num_operators();
  p.n2 = g2.num_operators();
  p.label1.resize(p.n1);
  p.label2.resize(p.n2);
  for (int i = 0; i < p.n1; ++i) p.label1[i] = static_cast<int>(g1.op(i).type);
  for (int i = 0; i < p.n2; ++i) p.label2[i] = static_cast<int>(g2.op(i).type);
  p.rel1 = BuildRel(g1);
  p.rel2 = BuildRel(g2);
  p.edges2 = g2.num_edges();

  // Process high-degree nodes first: they constrain the mapping most.
  p.order.resize(p.n1);
  std::iota(p.order.begin(), p.order.end(), 0);
  std::vector<int> deg(p.n1, 0);
  for (const auto& [from, to] : g1.edges()) {
    ++deg[from];
    ++deg[to];
  }
  std::stable_sort(p.order.begin(), p.order.end(),
                   [&](int a, int b) { return deg[a] > deg[b]; });

  // Suffix structures for the lower bound.
  p.suffix_edges1.assign(p.n1 + 1, 0);
  p.suffix_labels1.assign(p.n1 + 1, {});
  std::vector<bool> in_suffix(p.n1, false);
  for (int d = p.n1 - 1; d >= 0; --d) {
    in_suffix[p.order[d]] = true;
    int cnt = 0;
    for (const auto& [from, to] : g1.edges()) {
      if (in_suffix[from] || in_suffix[to]) ++cnt;
    }
    p.suffix_edges1[d] = cnt;
    p.suffix_labels1[d] = p.suffix_labels1[d + 1];
    ++p.suffix_labels1[d][p.label1[p.order[d]]];
  }
  return p;
}

struct State {
  double g = 0;
  double f = 0;
  int depth = 0;
  uint64_t used = 0;          // bitmask of assigned g2 nodes
  std::vector<int> mapping;   // g1 id -> g2 id, or -2 deleted, -1 unassigned
};

struct StateCmp {
  bool operator()(const State& a, const State& b) const { return a.f > b.f; }
};

// Label-set + edge-count admissible lower bound for the remaining problem.
double LowerBound(const Prepared& p, int depth, uint64_t used) {
  const auto& rem1 = p.suffix_labels1[depth];
  std::array<int, kNumOperatorTypes> rem2{};
  int r2 = 0;
  for (int v = 0; v < p.n2; ++v) {
    if (!(used >> v & 1)) {
      ++rem2[p.label2[v]];
      ++r2;
    }
  }
  int r1 = p.n1 - depth;
  int common = 0;
  for (int t = 0; t < kNumOperatorTypes; ++t) {
    common += std::min(rem1[t], rem2[t]);
  }
  double node_lb = std::max(r1, r2) - common;

  // Edges of g2 with >= 1 unassigned endpoint.
  int e2_rem = 0;
  for (int a = 0; a < p.n2; ++a) {
    for (int b = a + 1; b < p.n2; ++b) {
      if (p.rel2[a][b] != kNone && (!(used >> a & 1) || !(used >> b & 1))) {
        ++e2_rem;
      }
    }
  }
  double edge_lb = std::abs(p.suffix_edges1[depth] - e2_rem);
  return node_lb + edge_lb;
}

// Incremental edge cost of assigning g1 node u (at `depth` in the order) to
// g2 node v (or deleting it when v < 0), against all previously processed
// g1 nodes.
double EdgeCostAgainstProcessed(const Prepared& p, const State& s, int u,
                                int v) {
  double cost = 0;
  for (int d = 0; d < s.depth; ++d) {
    int u_prev = p.order[d];
    int8_t e1 = p.rel1[u_prev][u];
    int v_prev = s.mapping[u_prev];
    if (v < 0 || v_prev < 0) {
      // Deleted endpoint: every incident g1 edge must be deleted.
      if (e1 != kNone) cost += 1;
      continue;
    }
    int8_t e2 = p.rel2[v_prev][v];
    // Same relation: free. Opposite direction: one direction-modification.
    // Present vs absent: one insertion/deletion. All unit cost.
    if (e1 != e2) cost += 1;
  }
  return cost;
}

// Cost of inserting all g2 nodes/edges not covered by the mapping once every
// g1 node has been processed.
double CompletionCost(const Prepared& p, uint64_t used) {
  double cost = 0;
  for (int v = 0; v < p.n2; ++v) {
    if (!(used >> v & 1)) cost += 1;
  }
  for (int a = 0; a < p.n2; ++a) {
    for (int b = a + 1; b < p.n2; ++b) {
      if (p.rel2[a][b] != kNone && (!(used >> a & 1) || !(used >> b & 1))) {
        cost += 1;
      }
    }
  }
  return cost;
}

// MappingCost on an already-Prepared pair (avoids re-running Prepare on the
// A* hot path, where the greedy incumbent is costed before the search).
double MappingCostPrepared(const Prepared& p, const std::vector<int>& mapping) {
  assert(static_cast<int>(mapping.size()) == p.n1);
  double cost = 0;
  std::vector<bool> used(p.n2, false);
  for (int u = 0; u < p.n1; ++u) {
    int v = mapping[u];
    if (v < 0) {
      cost += 1;  // node deletion
    } else {
      assert(v < p.n2 && !used[v] && "invalid mapping");
      used[v] = true;
      if (p.label1[u] != p.label2[v]) cost += 1;  // type modification
    }
  }
  // g1 edge alignment (each unordered pair once).
  for (int u = 0; u < p.n1; ++u) {
    for (int w = u + 1; w < p.n1; ++w) {
      int8_t e1 = p.rel1[u][w];
      int vu = mapping[u], vw = mapping[w];
      if (vu < 0 || vw < 0) {
        if (e1 != kNone) cost += 1;  // edge deletion
      } else if (e1 != p.rel2[vu][vw]) {
        cost += 1;  // insertion, deletion, or direction modification
      }
    }
  }
  // Node insertions + edges touching inserted g2 nodes.
  for (int v = 0; v < p.n2; ++v) {
    if (!used[v]) cost += 1;
  }
  for (int a = 0; a < p.n2; ++a) {
    for (int b = a + 1; b < p.n2; ++b) {
      if (p.rel2[a][b] != kNone && (!used[a] || !used[b])) cost += 1;
    }
  }
  return cost;
}

// Greedy label/degree-guided assignment; the returned mapping uses -1 for
// deletions.
std::vector<int> GreedyMapping(const Prepared& p) {
  State s;
  s.mapping.assign(p.n1, -1);
  for (int d = 0; d < p.n1; ++d) {
    int u = p.order[d];
    int best_v = -2;
    double best_cost = 1 + EdgeCostAgainstProcessed(p, s, u, -2);  // delete
    for (int v = 0; v < p.n2; ++v) {
      if (s.used >> v & 1) continue;
      double c = (p.label1[u] != p.label2[v] ? 1 : 0) +
                 EdgeCostAgainstProcessed(p, s, u, v);
      // Bias toward consuming g2 nodes (each unmatched one costs 1 later).
      if (c - 0.5 < best_cost) {
        best_cost = c - 0.5;
        best_v = v;
      }
    }
    s.mapping[u] = best_v;
    if (best_v >= 0) s.used |= uint64_t{1} << best_v;
    s.depth = d + 1;
  }
  // Normalize deletion marker for MappingCost.
  for (int& m : s.mapping) {
    if (m == -2) m = -1;
  }
  return s.mapping;
}

}  // namespace

double MappingCost(const JobGraph& g1, const JobGraph& g2,
                   const std::vector<int>& mapping) {
  return MappingCostPrepared(Prepare(g1, g2), mapping);
}

double GreedyGedUpperBound(const JobGraph& g1, const JobGraph& g2) {
  Prepared p = Prepare(g1, g2);
  return MappingCostPrepared(p, GreedyMapping(p));
}

double LabelSetLowerBound(const JobGraph& g1, const JobGraph& g2) {
  // Closed form of LowerBound(Prepare(g1, g2), 0, 0): with no partial
  // mapping the remaining-label multisets are the full histograms and the
  // remaining-edge counts are the full edge counts, so the bound collapses
  // to max(n1, n2) - sum_t min(h1[t], h2[t]) + |e1 - e2|. Computing it
  // directly is O(n + e) instead of Prepare's O(n^2) relation matrices —
  // this is QueryGed's screen, so it must stay cheap (and it returns
  // bit-identical values to the Prepared form: all terms are small
  // integers).
  std::array<int, kNumOperatorTypes> h1{}, h2{};
  const int n1 = g1.num_operators(), n2 = g2.num_operators();
  for (int i = 0; i < n1; ++i) ++h1[static_cast<int>(g1.op(i).type)];
  for (int i = 0; i < n2; ++i) ++h2[static_cast<int>(g2.op(i).type)];
  int common = 0;
  for (int t = 0; t < kNumOperatorTypes; ++t) {
    common += std::min(h1[t], h2[t]);
  }
  const double node_lb = std::max(n1, n2) - common;
  const double edge_lb = std::abs(g1.num_edges() - g2.num_edges());
  return node_lb + edge_lb;
}

double StructuralGedUpperBound(const JobGraph& g1, const JobGraph& g2) {
  // The delete-everything/insert-everything edit path is always valid.
  return static_cast<double>(g1.num_operators() + g1.num_edges() +
                             g2.num_operators() + g2.num_edges());
}

GedResult ComputeGed(const JobGraph& g1, const JobGraph& g2,
                     const GedOptions& options) {
  GedResult result;
  Prepared p = Prepare(g1, g2);
  if (p.n2 > 63) {
    result.mapping = GreedyMapping(p);
    result.distance = MappingCostPrepared(p, result.mapping);
    result.exact = false;
    result.termination = GedTermination::kGreedy;
    return result;
  }

  // Seed the incumbent with the greedy upper bound so pruning is active
  // from the first expansion.
  std::vector<int> incumbent_mapping = GreedyMapping(p);
  double incumbent = MappingCostPrepared(p, incumbent_mapping);
  const bool thresholded = options.threshold >= 0;

  std::priority_queue<State, std::vector<State>, StateCmp> open;
  State root;
  root.mapping.assign(p.n1, -1);
  root.f = options.use_lower_bound ? LowerBound(p, 0, 0) : 0.0;
  if (p.n1 == 0) {
    root.g = CompletionCost(p, 0);
    root.f = root.g;
    root.depth = 0;
    result.distance = root.g;
    return result;
  }
  open.push(root);

  auto prune_limit = [&]() {
    // Anything >= incumbent cannot improve; in threshold mode anything
    // > threshold is irrelevant as well.
    double limit = incumbent;
    if (thresholded) limit = std::min(limit, options.threshold + 1e-9);
    return limit;
  };

  while (!open.empty()) {
    State s = open.top();
    open.pop();
    if (s.f > prune_limit() + 1e-12) break;  // best-first: all worse now
    if (s.depth == p.n1) {
      result.distance = s.g;
      result.exact = true;
      result.mapping = s.mapping;
      for (int& m : result.mapping) {
        if (m == -2) m = -1;
      }
      return result;
    }
    if (++result.expansions > options.expansion_budget) {
      result.distance = incumbent;
      result.exact = false;
      result.mapping = incumbent_mapping;
      result.termination = GedTermination::kBudget;
      return result;
    }

    int u = p.order[s.depth];
    // Substitutions.
    for (int v = -1; v < p.n2; ++v) {
      double node_cost, edge_cost;
      uint64_t used = s.used;
      if (v < 0) {
        node_cost = 1;  // deletion
        edge_cost = EdgeCostAgainstProcessed(p, s, u, -2);
      } else {
        if (s.used >> v & 1) continue;
        node_cost = p.label1[u] != p.label2[v] ? 1 : 0;
        edge_cost = EdgeCostAgainstProcessed(p, s, u, v);
        used |= uint64_t{1} << v;
      }
      State next;
      next.g = s.g + node_cost + edge_cost;
      next.depth = s.depth + 1;
      next.used = used;
      next.mapping = s.mapping;
      next.mapping[u] = v < 0 ? -2 : v;
      if (next.depth == p.n1) {
        next.g += CompletionCost(p, used);
        next.f = next.g;
      } else {
        double h = options.use_lower_bound
                       ? LowerBound(p, next.depth, next.used)
                       : 0.0;
        next.f = next.g + h;
      }
      if (next.f > prune_limit() + 1e-12) continue;
      if (next.depth == p.n1 && next.g < incumbent) {
        incumbent = next.g;
        incumbent_mapping = next.mapping;
        for (int& m : incumbent_mapping) {
          if (m == -2) m = -1;
        }
      }
      open.push(std::move(next));
    }
  }

  // Queue exhausted (or only worse states left): the incumbent is optimal
  // unless we are in threshold mode and it exceeds the threshold.
  result.distance = incumbent;
  result.exact = !thresholded || incumbent <= options.threshold + 1e-9;
  result.mapping = incumbent_mapping;
  result.termination =
      result.exact ? GedTermination::kExact : GedTermination::kPruned;
  return result;
}

const char* ToString(GedTermination t) {
  switch (t) {
    case GedTermination::kExact:
      return "exact";
    case GedTermination::kPruned:
      return "pruned";
    case GedTermination::kBudget:
      return "budget";
    case GedTermination::kGreedy:
      return "greedy";
  }
  return "?";
}

const char* EditOpKindName(EditOp::Kind kind) {
  switch (kind) {
    case EditOp::Kind::kNodeDeletion:
      return "node-deletion";
    case EditOp::Kind::kNodeInsertion:
      return "node-insertion";
    case EditOp::Kind::kTypeModification:
      return "type-modification";
    case EditOp::Kind::kEdgeDeletion:
      return "edge-deletion";
    case EditOp::Kind::kEdgeInsertion:
      return "edge-insertion";
    case EditOp::Kind::kDirectionModification:
      return "direction-modification";
  }
  return "?";
}

std::vector<EditOp> ExplainEdits(const JobGraph& g1, const JobGraph& g2,
                                 const std::vector<int>& mapping) {
  Prepared p = Prepare(g1, g2);
  assert(static_cast<int>(mapping.size()) == p.n1);
  std::vector<EditOp> edits;
  std::vector<bool> used(p.n2, false);

  for (int u = 0; u < p.n1; ++u) {
    int v = mapping[u];
    if (v < 0) {
      edits.push_back({EditOp::Kind::kNodeDeletion,
                       "delete " + g1.op(u).name});
    } else {
      used[v] = true;
      if (p.label1[u] != p.label2[v]) {
        edits.push_back({EditOp::Kind::kTypeModification,
                         g1.op(u).name + ": " +
                             std::string(OperatorTypeName(g1.op(u).type)) +
                             " -> " + OperatorTypeName(g2.op(v).type)});
      }
    }
  }
  for (int u = 0; u < p.n1; ++u) {
    for (int w = u + 1; w < p.n1; ++w) {
      int8_t e1 = p.rel1[u][w];
      int vu = mapping[u], vw = mapping[w];
      if (vu < 0 || vw < 0) {
        if (e1 != kNone) {
          edits.push_back({EditOp::Kind::kEdgeDeletion,
                           "delete edge at " + g1.op(u).name + "/" +
                               g1.op(w).name});
        }
        continue;
      }
      int8_t e2 = p.rel2[vu][vw];
      if (e1 == e2) continue;
      if (e1 != kNone && e2 != kNone) {
        edits.push_back({EditOp::Kind::kDirectionModification,
                         "reverse edge " + g1.op(u).name + " <-> " +
                             g1.op(w).name});
      } else if (e1 != kNone) {
        edits.push_back({EditOp::Kind::kEdgeDeletion,
                         "delete edge " + g1.op(u).name + " -> " +
                             g1.op(w).name});
      } else {
        edits.push_back({EditOp::Kind::kEdgeInsertion,
                         "insert edge " + g2.op(vu).name + " -> " +
                             g2.op(vw).name});
      }
    }
  }
  for (int v = 0; v < p.n2; ++v) {
    if (!used[v]) {
      edits.push_back({EditOp::Kind::kNodeInsertion,
                       "insert " + g2.op(v).name});
    }
  }
  for (int a = 0; a < p.n2; ++a) {
    for (int b = a + 1; b < p.n2; ++b) {
      if (p.rel2[a][b] != kNone && (!used[a] || !used[b])) {
        edits.push_back({EditOp::Kind::kEdgeInsertion,
                         "insert edge at " + g2.op(a).name + "/" +
                             g2.op(b).name});
      }
    }
  }
  return edits;
}

}  // namespace streamtune::graph
