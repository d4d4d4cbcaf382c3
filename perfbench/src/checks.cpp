#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "core/parsh.hpp"

namespace perfbench {

using parsh::Edge;
using parsh::Graph;
using parsh::vid;
using parsh::weight_t;

std::string check_answer(double estimate, double exact, bool ok, bool partial,
                         bool degraded) {
  if (!ok) return "answer not OK";
  if (partial) return "answer flagged partial";
  if (degraded) return "answer flagged degraded";
  char buf[160];
  if (std::isinf(exact)) {
    if (std::isinf(estimate)) return {};
    std::snprintf(buf, sizeof(buf), "estimate %.17g for an unreachable pair", estimate);
    return buf;
  }
  // Exact integer-weight distances are compared with a relative slack of
  // 1e-9 so that a differently ordered sum of the same weights passes.
  if (!(estimate >= exact * (1 - 1e-9))) {
    std::snprintf(buf, sizeof(buf), "estimate %.17g below exact %.17g", estimate, exact);
    return buf;
  }
  if (!(estimate <= exact * kEnvelope * (1 + 1e-9))) {
    std::snprintf(buf, sizeof(buf), "estimate %.17g beyond %.2f x exact %.17g", estimate,
                  kEnvelope, exact);
    return buf;
  }
  return {};
}

EdgeMap::EdgeMap(const Graph& g) {
  for (const Edge& e : g.undirected_edges()) {
    map_[{std::min(e.u, e.v), std::max(e.u, e.v)}] = e.w;
  }
}

void EdgeMap::apply(const parsh::GraphDelta& d) {
  for (const Edge& e : d.remove) {
    if (e.u != e.v) map_.erase({std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  std::map<Key, weight_t> inserts;
  for (const Edge& e : d.insert) {
    if (e.u == e.v) continue;
    const Key k{std::min(e.u, e.v), std::max(e.u, e.v)};
    const auto it = inserts.find(k);
    if (it == inserts.end()) {
      inserts.emplace(k, e.w);
    } else {
      it->second = std::min(it->second, e.w);
    }
  }
  for (const auto& [k, w] : inserts) map_[k] = w;
}

Graph EdgeMap::to_graph(vid n) const {
  std::vector<Edge> edges;
  edges.reserve(map_.size());
  for (const auto& [k, w] : map_) edges.push_back({k.first, k.second, w});
  return Graph::from_edges(n, std::move(edges));
}

std::string check_edge_set(const EdgeMap& want, const std::vector<Edge>& got) {
  std::map<EdgeMap::Key, weight_t> seen;
  char buf[160];
  for (const Edge& e : got) {
    const EdgeMap::Key k{std::min(e.u, e.v), std::max(e.u, e.v)};
    if (!seen.emplace(k, e.w).second) {
      std::snprintf(buf, sizeof(buf), "edge {%u,%u} listed twice", k.first, k.second);
      return buf;
    }
  }
  for (const auto& [k, w] : want.edges()) {
    const auto it = seen.find(k);
    if (it == seen.end()) {
      std::snprintf(buf, sizeof(buf), "edge {%u,%u} missing", k.first, k.second);
      return buf;
    }
    if (it->second != w) {
      std::snprintf(buf, sizeof(buf), "edge {%u,%u} has weight %.17g, want %.17g",
                    k.first, k.second, it->second, w);
      return buf;
    }
  }
  if (seen.size() != want.edges().size()) {
    for (const auto& [k, w] : seen) {
      if (want.edges().count(k) == 0) {
        std::snprintf(buf, sizeof(buf), "edge {%u,%u} should not be there", k.first,
                      k.second);
        return buf;
      }
    }
  }
  return {};
}

std::string check_spanner(const Graph& g, const std::vector<Edge>& h, double bound,
                          int sources, std::uint64_t seed) {
  const vid n = g.num_vertices();
  std::unordered_map<std::uint64_t, weight_t> in_g;
  in_g.reserve(static_cast<std::size_t>(g.num_edges()) * 2);
  for (const Edge& e : g.undirected_edges()) {
    in_g[static_cast<std::uint64_t>(std::min(e.u, e.v)) * n + std::max(e.u, e.v)] = e.w;
  }
  char buf[200];
  for (const Edge& e : h) {
    const auto it =
        in_g.find(static_cast<std::uint64_t>(std::min(e.u, e.v)) * n + std::max(e.u, e.v));
    if (it == in_g.end() || it->second != e.w) {
      std::snprintf(buf, sizeof(buf), "spanner edge {%u,%u,%.17g} is not an edge of g", e.u,
                    e.v, e.w);
      return buf;
    }
  }
  const Graph hg = Graph::from_edges(n, h);
  const parsh::Rng rng(seed);
  for (int i = 0; i < sources; ++i) {
    const auto s = static_cast<vid>(rng.uniform_int(static_cast<std::uint64_t>(i), n));
    const auto dg = parsh::dijkstra(g, s).dist;
    const auto dh = parsh::dijkstra(hg, s).dist;
    for (vid t = 0; t < n; ++t) {
      if (t == s || std::isinf(dg[t])) continue;
      const double stretch = dh[t] / dg[t];
      if (!(stretch <= bound)) {
        std::snprintf(buf, sizeof(buf), "pair (%u,%u) stretch %.4g above %.4g", s, t,
                      stretch, bound);
        return buf;
      }
    }
  }
  return {};
}

int selftest() {
  int wrong = 0;
  auto expect = [&](bool want_pass, const std::string& verdict, const char* what) {
    const bool passed = verdict.empty();
    std::printf("selftest %-52s %s%s%s\n", what, passed == want_pass ? "ok" : "WRONG",
                verdict.empty() ? "" : "  -- ", verdict.c_str());
    if (passed != want_pass) ++wrong;
  };

  // Answers: Dijkstra's own distances pass; every kind of wrong answer fails.
  const Graph road = parsh::with_uniform_weights(parsh::make_grid(20, 20), 1, 8, 3);
  parsh::ApproxShortestPaths::Params p;
  p.hopset.hopset.seed = 5;
  const parsh::ApproxShortestPaths engine(road, p);
  bool exact_ok = true, engine_ok = true;
  for (vid s = 0; s < 400; s += 37) {
    const auto dist = parsh::dijkstra(road, s).dist;
    for (vid t = 0; t < 400; t += 53) {
      exact_ok &= check_answer(dist[t], dist[t], true, false, false).empty();
      engine_ok &=
          check_answer(engine.query(s, t).estimate, dist[t], true, false, false).empty();
    }
  }
  expect(true, exact_ok ? "" : "exact answer rejected", "Dijkstra's answers pass");
  expect(true, engine_ok ? "" : "engine answer rejected", "engine answers pass");
  const double d = parsh::st_distance(road, 0, 399);
  expect(false, check_answer(d - 1, d, true, false, false), "undercut distance fails");
  expect(false, check_answer(d * 1.76, d, true, false, false), "estimate beyond envelope fails");
  expect(true, check_answer(d * 1.74, d, true, false, false), "estimate inside envelope passes");
  expect(false, check_answer(d, d, true, true, false), "partial answer fails");
  expect(false, check_answer(d, d, true, false, true), "degraded answer fails");
  expect(false, check_answer(d, d, false, false, false), "failed answer fails");
  expect(false, check_answer(d, parsh::kInfWeight, true, false, false),
         "finite answer for unreachable pair fails");

  // Edge sets: the longhand map must follow apply_delta's rules exactly.
  EdgeMap map(road);
  parsh::GraphDelta delta;
  delta.remove = {{0, 1, 0}, {5, 6, 0}, {7, 7, 0}};
  delta.insert = {{5, 6, 9}, {2, 300, 4}, {300, 2, 3}, {9, 9, 1}, {20, 21, 7}};
  map.apply(delta);
  const Graph applied = road.apply_delta(delta).graph;
  expect(true, check_edge_set(map, applied.undirected_edges()),
         "longhand map equals apply_delta");
  std::vector<Edge> missing = applied.undirected_edges();
  missing.erase(missing.begin() + 17);
  expect(false, check_edge_set(map, missing), "edge missing from recovered graph fails");
  std::vector<Edge> reweighted = applied.undirected_edges();
  reweighted[3].w += 1;
  expect(false, check_edge_set(map, reweighted), "reweighted edge in recovered graph fails");
  std::vector<Edge> extra = applied.undirected_edges();
  extra.push_back({0, 399, 1});
  expect(false, check_edge_set(map, extra), "extra edge in recovered graph fails");

  // Spanners: a real spanner passes; an edge not in g, or a spanner that
  // leaves pairs far apart, fails.
  const auto sp = parsh::weighted_spanner(road, 2, 11);
  expect(true, check_spanner(road, sp.edges, 12.0 * 2, 6, 1), "weighted spanner passes");
  std::vector<Edge> foreign = sp.edges;
  foreign.push_back({0, 399, 1});
  expect(false, check_spanner(road, foreign, 12.0 * 2, 6, 1), "spanner edge not in g fails");
  // A shortest-path tree from one corner is a subgraph of g whose pair
  // stretch between far-apart siblings is well above 1.5.
  const auto parent = parsh::dijkstra(road, 0).parent;
  std::vector<Edge> tree;
  for (const Edge& e : road.undirected_edges()) {
    if (parent[e.u] == e.v || parent[e.v] == e.u) tree.push_back(e);
  }
  expect(true, check_spanner(road, tree, 1e9, 6, 1), "shortest-path tree is a subgraph");
  expect(false, check_spanner(road, tree, 1.5, 6, 1), "spanner beyond stretch bound fails");

  std::printf("selftest: %s (%d wrong verdicts)\n", wrong == 0 ? "PASS" : "FAIL", wrong);
  return wrong;
}

}  // namespace perfbench
