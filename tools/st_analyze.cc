// st_analyze — the self-hosted invariant checker (DESIGN.md §10, §15).
//
// Usage:
//   st_analyze [--root=DIR] [--baseline=FILE] [--write-baseline=FILE]
//              [--rule=st-name ...] [--threads=N] [--stats]
//              [--list-rules] [--unreferenced] PATH...
//
// PATHs are files or directories relative to --root (default: cwd).
// Directories are walked recursively for *.h / *.cc, skipping
// analysis_fixtures/ and build*/ trees. --unreferenced lists the src/
// functions no analyzed non-test code calls instead of the findings (pass
// every tree that may call into src/) and exits 0.
// Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/graph_rules.h"
#include "analysis/rules.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: st_analyze [--root=DIR] [--baseline=FILE]\n"
      "                  [--write-baseline=FILE] [--rule=st-name ...]\n"
      "                  [--threads=N] [--stats] [--list-rules]\n"
      "                  [--unreferenced] PATH...\n");
  return 2;
}

void PrintStats(const streamtune::analysis::AnalysisReport& r) {
  const streamtune::analysis::GraphAnalysisStats& g = r.graph;
  std::printf("-- st_analyze stats --\n");
  std::printf("files: %d analyzed\n", r.files_analyzed);
  std::printf(
      "call graph: %d functions, %d nodes (%d ambiguous), edges: %d "
      "resolved / %d ambiguous / %d external\n",
      g.call_graph.functions, g.call_graph.nodes, g.call_graph.ambiguous_nodes,
      g.call_graph.resolved_edges, g.call_graph.ambiguous_edges,
      g.call_graph.external_edges);
  std::printf("sccs: %d (%d nontrivial)\n", g.call_graph.scc_count,
              g.call_graph.nontrivial_sccs);
  std::printf(
      "interprocedural: %d tainted function(s), %d lock-order edge(s), "
      "%d cycle(s)\n",
      g.tainted_functions, g.lock_order_edges, g.lock_order_cycles);
  std::printf("phases: scan %.1fms, rules %.1fms, graph %.1fms\n", r.scan_ms,
              r.rules_ms, r.graph_ms);
  std::map<std::string, int> per_rule;
  for (const streamtune::analysis::Finding& f : r.findings) {
    ++per_rule[f.rule];
  }
  for (const auto& [rule, count] : per_rule) {
    std::printf("findings[%s]: %d\n", rule.c_str(), count);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using streamtune::analysis::AnalyzerOptions;
  using streamtune::analysis::Finding;

  AnalyzerOptions options;
  std::string baseline_path;
  std::string write_baseline_path;
  bool stats = false;
  bool unreferenced = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> const char* {
      size_t len = std::strlen(flag);
      if (arg.compare(0, len, flag) == 0 && arg.size() > len &&
          arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    if (arg == "--list-rules") {
      for (const auto& rule : streamtune::analysis::BuildAllRules()) {
        std::printf("%s\n", rule->name());
      }
      for (const std::string& name : streamtune::analysis::GraphRuleNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--unreferenced") {
      unreferenced = true;
    } else if (const char* v = value_of("--root")) {
      options.root = v;
    } else if (const char* v = value_of("--baseline")) {
      baseline_path = v;
    } else if (const char* v = value_of("--write-baseline")) {
      write_baseline_path = v;
    } else if (const char* v = value_of("--rule")) {
      options.enabled_rules.insert(v);
    } else if (const char* v = value_of("--threads")) {
      options.threads = std::atoi(v);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else {
      options.paths.push_back(arg);
    }
  }
  if (options.paths.empty()) return Usage();

  if (!baseline_path.empty()) {
    auto loaded = streamtune::analysis::LoadBaseline(baseline_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "st_analyze: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    options.baseline = std::move(loaded).value();
  }

  auto report = streamtune::analysis::RunAnalyzer(options);
  if (!report.ok()) {
    std::fprintf(stderr, "st_analyze: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }

  if (unreferenced) {
    for (const auto& u : report->unreferenced) {
      std::printf("%s:%d: %s\n", u.file.c_str(), u.line, u.name.c_str());
    }
    std::printf("st_analyze: %zu unreferenced src/ function(s)\n",
                report->unreferenced.size());
    return 0;
  }

  if (!write_baseline_path.empty()) {
    auto st = streamtune::analysis::WriteBaseline(write_baseline_path,
                                                 report->findings);
    if (!st.ok()) {
      std::fprintf(stderr, "st_analyze: %s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("wrote %zu finding(s) to %s\n", report->findings.size(),
                write_baseline_path.c_str());
    return 0;
  }

  for (const Finding& f : report->findings) {
    std::printf("%s\n", f.ToString().c_str());
  }
  std::printf(
      "st_analyze: %d file(s), %zu finding(s), %d nolint-suppressed, "
      "%d baselined\n",
      report->files_analyzed, report->findings.size(),
      report->suppressed_nolint, report->suppressed_baseline);
  if (stats) PrintStats(*report);
  return report->findings.empty() ? 0 : 1;
}
