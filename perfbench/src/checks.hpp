// Output checks, computed apart from the engine: exact distances come
// from sssp/dijkstra (the reference the test suite uses), and the graph a
// server should be serving comes from a longhand edge map that replays
// the same deltas under GraphDelta's documented rules. All checks run
// outside the set-up and timed phases. Each returns an empty string when
// the output passes, otherwise what was wrong.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"

namespace perfbench {

/// The stretch envelope tests/test_approx_query.cpp asserts for the
/// engine's answers (the bare 1+eps is not guaranteed).
inline constexpr double kEnvelope = 1.75;

/// One served answer against the exact distance: it must be OK, neither
/// partial nor degraded, no shorter than the exact distance and at most
/// kEnvelope times it (unreachable pairs must be answered as unreachable).
std::string check_answer(double estimate, double exact, bool ok, bool partial,
                         bool degraded);

/// The graph a sequence of deltas should produce, kept longhand:
/// removals before inserts, the minimum weight among duplicate inserts of
/// one batch, an insert of a present edge reweights it, self loops do
/// nothing.
class EdgeMap {
 public:
  using Key = std::pair<parsh::vid, parsh::vid>;  ///< (min, max) endpoint

  EdgeMap() = default;
  explicit EdgeMap(const parsh::Graph& g);

  void apply(const parsh::GraphDelta& d);
  [[nodiscard]] parsh::Graph to_graph(parsh::vid n) const;
  [[nodiscard]] const std::map<Key, parsh::weight_t>& edges() const { return map_; }

 private:
  std::map<Key, parsh::weight_t> map_;
};

/// `got` (any orientation and order) must hold exactly the map's edges at
/// the map's weights.
std::string check_edge_set(const EdgeMap& want, const std::vector<parsh::Edge>& got);

/// A spanner `h` of `g`: every edge of h is an edge of g at the same
/// weight, and for `sources` sampled sources the distance in h to every
/// vertex is at most `bound` times the distance in g.
std::string check_spanner(const parsh::Graph& g, const std::vector<parsh::Edge>& h,
                          double bound, int sources, std::uint64_t seed);

/// Feed each check known-wrong outputs (an undercut distance, an estimate
/// beyond the envelope, partial / degraded / failed answers, an edge
/// missing from or reweighted in a recovered graph, a spanner edge not in
/// g) and Dijkstra's own answers. Returns the number of verdicts that came
/// out wrong (0 = the checks work).
int selftest();

}  // namespace perfbench
