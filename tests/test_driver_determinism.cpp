// Thread-count determinism for every est_cluster driver. PR 1 pinned the
// guarantee for est_cluster itself: the CRCW priority write resolves by
// (key, via) minimum, so the clustering is schedule-independent. The
// drivers — spanners, hopsets, connectivity, low-stretch trees — are
// deterministic compositions of that primitive, so each must produce
// bit-identical output at 1 worker and at many. These tests pin that down
// for the whole surface, on unweighted and integer-weighted random graphs.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster_connectivity.hpp"
#include "cluster/est_cluster.hpp"
#include "graph/generators.hpp"
#include "hopset/hopset.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/team.hpp"
#include "spanner/distributed_spanner.hpp"
#include "sssp/bfs.hpp"
#include "spanner/low_stretch_tree.hpp"
#include "spanner/spanner.hpp"
#include "graph/delta.hpp"
#include "sssp/approx_query.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dynamic_approx.hpp"
#include "sssp/hop_limited.hpp"
#include "sssp/weighted_bfs.hpp"

namespace parsh {
namespace {

/// Run `f` with the OpenMP worker count forced to `threads` (no-op in the
/// sequential build, where both runs are trivially identical).
template <typename F>
auto at_threads(int threads, F f) {
#ifdef PARSH_HAVE_OPENMP
  const int before = omp_get_max_threads();
  omp_set_num_threads(threads);
  auto result = f();
  omp_set_num_threads(before);
  return result;
#else
  (void)threads;
  return f();
#endif
}

/// The 1-vs-4-thread comparison every test below runs.
template <typename F>
auto one_and_many(F f) {
  auto one = at_threads(1, f);
  auto many = at_threads(4, f);
  return std::pair(std::move(one), std::move(many));
}

class DriverDeterminism : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  [[nodiscard]] Graph unweighted() const {
    return ensure_connected(make_random_graph(400, 1400, GetParam()));
  }
  [[nodiscard]] Graph weighted() const {
    return with_uniform_weights(unweighted(), 1, 9, GetParam() + 17);
  }
};

TEST_P(DriverDeterminism, UnweightedSpanner) {
  const Graph g = unweighted();
  const auto [one, many] =
      one_and_many([&] { return unweighted_spanner(g, 3.0, GetParam()); });
  EXPECT_EQ(one.edges, many.edges);
  EXPECT_EQ(one.rounds, many.rounds);
  EXPECT_EQ(one.levels, many.levels);
}

TEST_P(DriverDeterminism, WeightedSpanner) {
  const Graph g = weighted();
  const auto [one, many] =
      one_and_many([&] { return weighted_spanner(g, 3.0, GetParam()); });
  EXPECT_EQ(one.edges, many.edges);
  EXPECT_EQ(one.rounds, many.rounds);
}

TEST_P(DriverDeterminism, DistributedSpanner) {
  const Graph g = unweighted();
  const auto [one, many] = one_and_many(
      [&] { return distributed_unweighted_spanner(g, 3.0, GetParam()); });
  EXPECT_EQ(one.edges, many.edges);
  EXPECT_EQ(one.rounds, many.rounds);
  EXPECT_EQ(one.messages, many.messages);
}

TEST_P(DriverDeterminism, ClusterConnectivity) {
  // Includes a disconnected instance: determinism must not depend on the
  // quotient loop contracting everything to one vertex.
  for (const Graph& g :
       {unweighted(), make_random_graph(500, 300, GetParam() + 5)}) {
    const auto [one, many] =
        one_and_many([&] { return cluster_connectivity(g, GetParam()); });
    EXPECT_EQ(one.component, many.component);
    EXPECT_EQ(one.num_components, many.num_components);
    EXPECT_EQ(one.rounds, many.rounds);
  }
}

TEST_P(DriverDeterminism, AkpwLowStretchTree) {
  const Graph g = weighted();
  const auto [one, many] =
      one_and_many([&] { return akpw_low_stretch_tree(g, 2.0, GetParam()); });
  EXPECT_EQ(one.edges, many.edges);
  EXPECT_EQ(one.iterations, many.iterations);
}

TEST_P(DriverDeterminism, Hopset) {
  const Graph g = weighted();
  HopsetParams p;
  p.seed = GetParam();
  const auto [one, many] = one_and_many([&] { return build_hopset(g, p); });
  EXPECT_EQ(one.edges, many.edges);
  EXPECT_EQ(one.star_edges, many.star_edges);
  EXPECT_EQ(one.clique_edges, many.clique_edges);
  EXPECT_EQ(one.levels, many.levels);
  EXPECT_EQ(one.clusterings, many.clusterings);
}

// --- the SSSP family (every traversal driver runs on the shared
// --- SsspWorkspace; distances, parents and counters must be bit-identical
// --- across thread counts and across the packed/three-phase seam).

TEST_P(DriverDeterminism, DeltaStepping) {
  // Large weights at delta = 1 push bucket indices past the 2^12 packed
  // boundary, so this exercises the packed (dist, parent) rounds at both
  // thread counts; the small-weight run stays on the three-phase path.
  const Graph small = weighted();
  const Graph large =
      with_uniform_weights(unweighted(), 4096, 8192, GetParam() + 23);
  for (const auto& [g, delta] :
       {std::pair(&small, 0.0), std::pair(&small, 4.0), std::pair(&large, 1.0)}) {
    const auto [one, many] =
        one_and_many([&, g = g, delta = delta] { return delta_stepping(*g, 0, delta); });
    EXPECT_EQ(one.dist, many.dist);
    EXPECT_EQ(one.parent, many.parent);
    EXPECT_EQ(one.phases, many.phases);
    EXPECT_EQ(one.relaxations, many.relaxations);
  }
}

TEST_P(DriverDeterminism, DeltaSteppingPackedVsThreePhaseAcrossThreads) {
  const Graph g = with_uniform_weights(unweighted(), 4096, 8192, GetParam() + 29);
  SsspWorkspace forced;
  forced.policy().three_phase = true;
  const auto baseline = delta_stepping(g, 0, 1.0, forced);
  EXPECT_GT(forced.stats().fallback_rounds, 0u);
  for (int threads : {1, 4}) {
    SsspWorkspace ws;
    const auto packed =
        at_threads(threads, [&] { return delta_stepping(g, 0, 1.0, ws); });
    EXPECT_GT(ws.stats().packed_rounds, 0u);
    EXPECT_EQ(packed.dist, baseline.dist);
    EXPECT_EQ(packed.parent, baseline.parent);
    EXPECT_EQ(packed.phases, baseline.phases);
    EXPECT_EQ(packed.relaxations, baseline.relaxations);
  }
}

TEST_P(DriverDeterminism, SkewedFrontierDrivers) {
  // Hub-heavy inputs route every expansion through the degree-aware
  // stolen edge ranges (PR 4): the drivers that compose est_cluster and
  // delta-stepping must stay bit-identical across thread counts when
  // their rounds are dominated by a few huge-degree vertices.
  const Graph hub = make_hubs(6000, 4, GetParam());
  const auto [sp1, sp4] =
      one_and_many([&] { return unweighted_spanner(hub, 3.0, GetParam()); });
  EXPECT_EQ(sp1.edges, sp4.edges);
  EXPECT_EQ(sp1.rounds, sp4.rounds);
  const Graph heavy = with_uniform_weights(
      ensure_connected(make_rmat_heavy(3000, 18000, GetParam() + 41)), 1, 9,
      GetParam() + 43);
  const auto [ds1, ds4] =
      one_and_many([&] { return delta_stepping(heavy, 0, 0.0); });
  EXPECT_EQ(ds1.dist, ds4.dist);
  EXPECT_EQ(ds1.parent, ds4.parent);
  EXPECT_EQ(ds1.phases, ds4.phases);
  EXPECT_EQ(ds1.relaxations, ds4.relaxations);
}

TEST_P(DriverDeterminism, WeightedBfs) {
  const Graph g = weighted();
  const auto [one, many] = one_and_many([&] { return weighted_bfs(g, 0); });
  EXPECT_EQ(one.dist, many.dist);
  EXPECT_EQ(one.parent, many.parent);
  EXPECT_EQ(one.rounds, many.rounds);
  const auto [m1, m4] =
      one_and_many([&] { return multi_weighted_bfs(g, {0, 5, 9}); });
  EXPECT_EQ(m1.dist, m4.dist);
  EXPECT_EQ(m1.owner, m4.owner);
  EXPECT_EQ(m1.rounds, m4.rounds);
}

TEST_P(DriverDeterminism, HopLimited) {
  const Graph g = weighted();
  const auto [one, many] =
      one_and_many([&] { return hop_limited_sssp(g, 0, 24, /*stop_early=*/true); });
  EXPECT_EQ(one.dist, many.dist);
  EXPECT_EQ(one.rounds, many.rounds);
  EXPECT_EQ(one.relaxations, many.relaxations);
}

TEST_P(DriverDeterminism, ApproxQueryAll) {
  const Graph g = weighted();
  ApproxShortestPaths::Params p;
  p.hopset.hopset.seed = GetParam();
  const auto [one, many] = one_and_many([&] {
    const ApproxShortestPaths engine(g, p);
    return engine.query_all(0);
  });
  EXPECT_EQ(one.estimate, many.estimate);
  EXPECT_EQ(one.rounds, many.rounds);
  EXPECT_EQ(one.relaxations, many.relaxations);
}

// --- dynamic incremental rebuild: an epoch produced by the incremental
// --- dirty-scale path must be bit-identical to a forced full rebuild and
// --- to itself across thread counts, round seams (every rebuild round
// --- through the team stages via the engine's warm workspace), and graph
// --- backings (flat vs compressed). The push/pull seam rides the
// --- PARSH_FORCE_PULL CI lane, which runs this whole suite.

TEST_P(DriverDeterminism, DynamicRebuildAcrossThreadCountsAndSeams) {
  const Graph flat = weighted();
  const Graph compressed = flat.compress_adjacency();
  DynamicApproxShortestPaths::Params p;
  p.hopset.hopset.seed = GetParam();
  GraphDelta d;
  d.insert.push_back({0, 200, 3.0});
  d.insert.push_back({5, 300, 1.0});
  d.insert.push_back({17, 17, 2.0});  // self loop no-op rides along
  d.remove.push_back({0, 1, 1.0});

  auto run = [&](const Graph& g, bool parallel_rounds, bool force_full) {
    DynamicApproxShortestPaths dyn(g, p);
    dyn.cluster_workspace().policy().parallel_rounds = parallel_rounds;
    dyn.set_force_full_rebuild(force_full);
    const auto res = dyn.apply(d);
    EXPECT_EQ(res.hopset.full_rebuild, force_full);
    return dyn.snapshot()->engine.query_all(0);
  };
  // Baseline: the 1-thread run, where every Team runs inline.
  const auto baseline =
      at_threads(1, [&] { return run(flat, /*parallel_rounds=*/false, /*full=*/false); });
  const auto check = [&](const ApproxShortestPaths::AllResult& r, const char* what) {
    EXPECT_EQ(r.estimate, baseline.estimate) << what;
    EXPECT_EQ(r.rounds, baseline.rounds) << what;
    EXPECT_EQ(r.relaxations, baseline.relaxations) << what;
  };
  check(at_threads(4, [&] { return run(flat, false, false); }), "4t organic");
  check(at_threads(4, [&] { return run(flat, true, false); }), "4t parallel rounds");
  check(at_threads(4, [&] { return run(flat, false, true); }), "4t forced-full");
  check(at_threads(1, [&] { return run(compressed, false, false); }),
        "1t compressed");
  check(at_threads(4, [&] { return run(compressed, true, true); }),
        "4t compressed parallel-rounds forced-full");
}

// --- persistent-team round execution: every driver's drain loop runs
// --- inside one parallel region with an adaptive sequential round fast
// --- path. Output AND the whole RoundStats must be bit-identical across
// --- (a) the persistent team (4 threads) vs the inline Team (1 thread),
// --- (b) adaptive sequential rounds vs every round through the team
// --- stages (RoundPolicy::parallel_rounds), and (c) a forced 4-wide team.

void expect_same_clustering(const Clustering& a, const Clustering& b) {
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.center, b.center);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.dist_to_center, b.dist_to_center);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.rounds, b.rounds);
}

void expect_same_stats(const RoundStats& a, const RoundStats& b) {
  EXPECT_EQ(a.packed_rounds, b.packed_rounds);
  EXPECT_EQ(a.fallback_rounds, b.fallback_rounds);
  EXPECT_EQ(a.sequential_rounds, b.sequential_rounds);
  EXPECT_EQ(a.team_rounds, b.team_rounds);
  EXPECT_EQ(a.compressed_rounds, b.compressed_rounds);
  EXPECT_EQ(a.edge_grain_rounds, b.edge_grain_rounds);
  EXPECT_EQ(a.pull_rounds, b.pull_rounds);
  EXPECT_EQ(a.pull_edges_scanned, b.pull_edges_scanned);
}

class TeamRounds : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Big enough that mid-run frontiers exceed the adaptive threshold
  // (kSequentialRoundEdges = 2048 edges) while head/tail rounds stay
  // below it — the straddling case both mechanisms must agree on.
  [[nodiscard]] Graph straddling() const {
    return ensure_connected(make_random_graph(6000, 36000, GetParam()));
  }
  [[nodiscard]] Graph straddling_weighted() const {
    return with_uniform_weights(straddling(), 1, 9, GetParam() + 17);
  }
};

TEST_P(TeamRounds, EstClusterTeamVsInline) {
  const Graph g = straddling_weighted();
  EstClusterWorkspace inline_ws;
  const Clustering baseline =
      at_threads(1, [&] { return est_cluster(g, 0.5, GetParam(), inline_ws); });
  EstClusterWorkspace team_ws;
  // Any parallel_for reached from inside the persistent region would
  // silently serialize; the drain loops must route every phase through
  // Team::loop, so arm the abort hook for the duration.
  assert_on_nested_sequential(true);
  const Clustering team =
      at_threads(4, [&] { return est_cluster(g, 0.5, GetParam(), team_ws); });
  assert_on_nested_sequential(false);
  expect_same_clustering(team, baseline);
  // The straddle actually happened: both round classes occurred, and
  // identically at both thread counts.
  EXPECT_GT(team_ws.sequential_rounds(), 0u);
  EXPECT_GT(team_ws.team_rounds(), 0u);
  expect_same_stats(team_ws.stats(), inline_ws.stats());
}

TEST_P(TeamRounds, EstClusterSequentialVsParallelRounds) {
  const Graph g = straddling_weighted();
  EstClusterWorkspace forced;
  forced.policy().parallel_rounds = true;
  const Clustering baseline =
      at_threads(1, [&] { return est_cluster(g, 0.5, GetParam(), forced); });
  EXPECT_EQ(forced.sequential_rounds(), 0u);
  EXPECT_GT(forced.team_rounds(), 0u);
  EstClusterWorkspace forced4;
  forced4.policy().parallel_rounds = true;
  expect_same_clustering(
      at_threads(4, [&] { return est_cluster(g, 0.5, GetParam(), forced4); }),
      baseline);
  expect_same_stats(forced4.stats(), forced.stats());
  for (int threads : {1, 4}) {
    EstClusterWorkspace adaptive;
    const Clustering out =
        at_threads(threads, [&] { return est_cluster(g, 0.5, GetParam(), adaptive); });
    EXPECT_GT(adaptive.sequential_rounds(), 0u);
    expect_same_clustering(out, baseline);
  }
}

TEST_P(TeamRounds, DeltaSteppingAcrossAllSchedulingModes) {
  const Graph g = straddling_weighted();
  SsspWorkspace inline_ws;
  const auto baseline =
      at_threads(1, [&] { return delta_stepping(g, 0, 4.0, inline_ws); });
  EXPECT_GT(inline_ws.sequential_rounds(), 0u);
  EXPECT_GT(inline_ws.team_rounds(), 0u);
  const auto expect_same = [&](const DeltaSteppingResult& r) {
    EXPECT_EQ(r.dist, baseline.dist);
    EXPECT_EQ(r.parent, baseline.parent);
    EXPECT_EQ(r.phases, baseline.phases);
    EXPECT_EQ(r.relaxations, baseline.relaxations);
  };
  SsspWorkspace ws;
  assert_on_nested_sequential(true);
  expect_same(at_threads(4, [&] { return delta_stepping(g, 0, 4.0, ws); }));
  assert_on_nested_sequential(false);
  expect_same_stats(ws.stats(), inline_ws.stats());
  RoundStats forced_stats[2];
  for (int i = 0; i < 2; ++i) {
    SsspWorkspace par_ws;
    par_ws.policy().parallel_rounds = true;
    expect_same(at_threads(i == 0 ? 1 : 4,
                           [&] { return delta_stepping(g, 0, 4.0, par_ws); }));
    EXPECT_EQ(par_ws.sequential_rounds(), 0u);
    forced_stats[i] = par_ws.stats();
  }
  expect_same_stats(forced_stats[1], forced_stats[0]);
}

TEST_P(TeamRounds, BfsDistancesAcrossAllSchedulingModes) {
  // BFS distances, level counts AND parents are deterministic: parents
  // are the per-level min-via argmin (docs/ARCHITECTURE.md).
  const Graph g = straddling();
  SsspWorkspace inline_ws;
  const BfsResult baseline =
      at_threads(1, [&] { return bfs(g, 0, kNoVertex, inline_ws); });
  const auto expect_same = [&](const BfsResult& r) {
    EXPECT_EQ(r.dist, baseline.dist);
    EXPECT_EQ(r.parent, baseline.parent);
    EXPECT_EQ(r.rounds, baseline.rounds);
  };
  SsspWorkspace ws;
  assert_on_nested_sequential(true);
  expect_same(at_threads(4, [&] { return bfs(g, 0, kNoVertex, ws); }));
  assert_on_nested_sequential(false);
  expect_same_stats(ws.stats(), inline_ws.stats());
  RoundStats forced_stats[2];
  for (int i = 0; i < 2; ++i) {
    SsspWorkspace par_ws;
    par_ws.policy().parallel_rounds = true;
    expect_same(at_threads(i == 0 ? 1 : 4,
                           [&] { return bfs(g, 0, kNoVertex, par_ws); }));
    EXPECT_EQ(par_ws.sequential_rounds(), 0u);
    forced_stats[i] = par_ws.stats();
  }
  expect_same_stats(forced_stats[1], forced_stats[0]);
}

TEST_P(TeamRounds, ForcedWideTeamMatchesInline) {
  // Force a real 4-wide persistent team even on hosts with fewer
  // processors (where the automatic width collapses to sequential): the
  // staged rounds must still be bit-identical to the inline run.
  const Graph g = straddling_weighted();
  EstClusterWorkspace cluster_inline;
  const Clustering cluster_baseline =
      at_threads(1, [&] { return est_cluster(g, 0.5, GetParam(), cluster_inline); });
  SsspWorkspace delta_inline;
  const auto delta_baseline =
      at_threads(1, [&] { return delta_stepping(g, 0, 4.0, delta_inline); });
  Team::force_width(4);
  EstClusterWorkspace team_ws;
  const Clustering cluster_team =
      at_threads(4, [&] { return est_cluster(g, 0.5, GetParam(), team_ws); });
  SsspWorkspace delta_team;
  const auto delta_wide =
      at_threads(4, [&] { return delta_stepping(g, 0, 4.0, delta_team); });
  Team::force_width(0);
  expect_same_clustering(cluster_team, cluster_baseline);
  expect_same_stats(team_ws.stats(), cluster_inline.stats());
  EXPECT_EQ(delta_wide.dist, delta_baseline.dist);
  EXPECT_EQ(delta_wide.parent, delta_baseline.parent);
  EXPECT_EQ(delta_wide.phases, delta_baseline.phases);
  EXPECT_EQ(delta_wide.relaxations, delta_baseline.relaxations);
  expect_same_stats(delta_team.stats(), delta_inline.stats());
}

TEST_P(TeamRounds, HopLimitedAcrossAllSchedulingModes) {
  // Barrier-separated Bellman-Ford rounds (exact dist^h): distances,
  // round and relaxation counters identical across every scheduling mode
  // and thread count, and the RoundStats identical across thread counts.
  const Graph g = straddling_weighted();
  SsspWorkspace inline_ws;
  const auto baseline = at_threads(1, [&] {
    return hop_limited_sssp(g, 0, 24, /*stop_early=*/true, kInfWeight, inline_ws);
  });
  const auto baseline_dist = [&] {
    std::vector<weight_t> d(g.num_vertices());
    for (vid v = 0; v < g.num_vertices(); ++v) d[v] = inline_ws.dist_of(v);
    return d;
  }();
  for (const bool parallel_rounds : {false, true}) {
    RoundStats stats[2];
    for (int i = 0; i < 2; ++i) {
      SsspWorkspace ws;
      ws.policy().parallel_rounds = parallel_rounds;
      const auto r = at_threads(i == 0 ? 1 : 4, [&] {
        return hop_limited_sssp(g, 0, 24, /*stop_early=*/true, kInfWeight, ws);
      });
      EXPECT_EQ(r.rounds, baseline.rounds);
      EXPECT_EQ(r.relaxations, baseline.relaxations);
      for (vid v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(ws.dist_of(v), baseline_dist[v]) << v;
      }
      stats[i] = ws.stats();
    }
    expect_same_stats(stats[1], stats[0]);
  }
}

TEST_P(TeamRounds, RoundStatsMatchAtOneAndFourThreadsForEveryDriver) {
  // Every counter of RoundStats is deterministic in (input, policy): each
  // driver, on a flat and a compressed graph, under the policies that
  // light up each counter, must report the same RoundStats at 1 thread
  // (inline Team) and at 4 (persistent team).
  const Graph flat = straddling_weighted();
  const Graph compressed = flat.compress_adjacency();
  // Weights past the 2^12 packed boundary at delta = 1: packed rounds
  // (a smaller graph: delta = 1 over these weights pops many buckets).
  const Graph heavy = with_uniform_weights(
      ensure_connected(make_random_graph(400, 1400, GetParam())), 4096, 8192,
      GetParam() + 29);
  using Direction = RoundPolicy::Direction;
  struct Case {
    const char* name;
    const Graph* g;
    RoundPolicy policy;
    int driver;  // 0 est_cluster, 1 bfs, 2 delta, 3 hop-limited, 4 weighted bfs
  };
  const std::vector<Case> cases = {
      {"est push", &flat, {false, false, Direction::kPush}, 0},
      {"est pull compressed", &compressed, {false, false, Direction::kPull}, 0},
      {"est three-phase parallel", &flat, {true, true, Direction::kAuto}, 0},
      {"bfs push compressed", &compressed, {false, false, Direction::kPush}, 1},
      {"bfs pull", &flat, {false, false, Direction::kPull}, 1},
      {"delta packed", &heavy, {false, false, Direction::kPush}, 2},
      {"delta three-phase pull", &heavy, {true, false, Direction::kPull}, 2},
      {"delta compressed", &compressed, {false, true, Direction::kAuto}, 2},
      {"hop-limited compressed", &compressed, {false, false, Direction::kAuto}, 3},
      {"weighted bfs compressed", &compressed, {false, false, Direction::kAuto}, 4},
  };
  RoundStats seen;  // field-wise sum over all cases: coverage check below
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RoundStats stats[2];
    for (int i = 0; i < 2; ++i) {
      at_threads(i == 0 ? 1 : 4, [&] {
        if (c.driver == 0) {
          EstClusterWorkspace ws;
          ws.policy() = c.policy;
          (void)est_cluster(*c.g, 0.5, GetParam(), ws);
          stats[i] = ws.stats();
          return 0;
        }
        SsspWorkspace ws;
        ws.policy() = c.policy;
        switch (c.driver) {
          case 1: (void)bfs(*c.g, 0, kNoVertex, ws); break;
          case 2: (void)delta_stepping(*c.g, 0, c.g == &heavy ? 1.0 : 4.0, ws); break;
          case 3: (void)hop_limited_sssp(*c.g, 0, 24, true, kInfWeight, ws); break;
          default: (void)weighted_bfs(*c.g, 0, kInfWeight, ws); break;
        }
        stats[i] = ws.stats();
        return 0;
      });
    }
    expect_same_stats(stats[1], stats[0]);
    seen.packed_rounds += stats[0].packed_rounds;
    seen.fallback_rounds += stats[0].fallback_rounds;
    seen.sequential_rounds += stats[0].sequential_rounds;
    seen.team_rounds += stats[0].team_rounds;
    seen.compressed_rounds += stats[0].compressed_rounds;
    seen.edge_grain_rounds += stats[0].edge_grain_rounds;
    seen.pull_rounds += stats[0].pull_rounds;
    seen.pull_edges_scanned += stats[0].pull_edges_scanned;
  }
  EXPECT_GT(seen.packed_rounds, 0u);
  EXPECT_GT(seen.fallback_rounds, 0u);
  EXPECT_GT(seen.sequential_rounds, 0u);
  EXPECT_GT(seen.team_rounds, 0u);
  EXPECT_GT(seen.compressed_rounds, 0u);
  EXPECT_GT(seen.edge_grain_rounds, 0u);
  EXPECT_GT(seen.pull_rounds, 0u);
  EXPECT_GT(seen.pull_edges_scanned, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverDeterminism,
                         ::testing::Values<std::uint64_t>(1, 2, 3));
INSTANTIATE_TEST_SUITE_P(Seeds, TeamRounds,
                         ::testing::Values<std::uint64_t>(1, 2, 3));

}  // namespace
}  // namespace parsh
