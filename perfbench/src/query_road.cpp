// query-road: a static QueryServer over loopback TCP on a road-like grid
// (integer weights 1..8). One closed-loop client sends one s-t pair per
// request and waits for each reply. High diameter is where hopsets pay:
// a query costs hop rounds x (graph + hopset edges), so sssp and parallel
// do almost all the work and the server is microseconds against a query
// of tens of milliseconds.
//
// Every one of the kSetupReps set-ups has its own weights and hopset
// construction seed and serves an equal share of the measured phase, whose
// latencies are pooled: how fast one hopset answers depends on its random
// construction (seeds differ by up to 20% in query p50), so one run
// measures ten of them.
#include <memory>

#include "bench.hpp"
#include "checks.hpp"
#include "core/parsh.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace perfbench {

using namespace parsh;
using namespace parsh::server;

namespace {

constexpr vid kSide = 100;            // n = 10000, m = 19800
constexpr int kWarmup = 5;            // untimed requests after each set-up
constexpr std::size_t kReplay = 100;  // pairs a traced run replays

/// The seed of set-up j: its grid weights and its hopset construction.
std::uint64_t setup_seed(std::uint64_t seed, int j) {
  return seed * kSetupReps + static_cast<std::uint64_t>(j);
}

Graph make_input(std::uint64_t seed) {
  return with_uniform_weights(make_grid(kSide, kSide), 1, 8, seed);
}

/// A served engine; reset() (and destruction) stops the server before its
/// engine and graph go.
struct Served {
  std::unique_ptr<Graph> g;
  std::unique_ptr<ApproxShortestPaths> engine;
  std::unique_ptr<QueryServer> srv;

  void reset() {
    srv.reset();
    engine.reset();
    g.reset();
  }
};

struct Phase {
  std::vector<double> latency_ms;
  std::vector<Answer> answers;
  double elapsed_s = 0;
  std::uint64_t failed = 0;

  void add(const Answer& a) {
    answers.push_back(a);
    if (!a.ok) ++failed;
  }
};

/// Closed loop on the calling thread: request i carries pair `first` + i;
/// runs for `seconds` after `warmup` untimed requests.
Phase closed_loop(QueryClient& client, const Rng& pairs, std::uint64_t first, vid n,
                  double seconds, int warmup, Trace& trace) {
  Phase ph;
  auto one = [&](std::uint64_t i, bool timed) {
    const auto [s, t] = pair_at(pairs, first + i, n);
    Trace::Scope span(trace, timed ? "server.request" : "server.warmup", -1, first + i + 1);
    const double t0 = now_s();
    ph.add(ask(client, s, t));
    if (timed) ph.latency_ms.push_back((now_s() - t0) * 1e3);
  };
  std::uint64_t i = 0;
  for (; i < static_cast<std::uint64_t>(warmup); ++i) one(i, false);
  const double start = now_s();
  while (now_s() - start < seconds) one(i++, true);
  ph.elapsed_s = now_s() - start;
  return ph;
}

}  // namespace

void run_query_road(const Options& opt, Report& rep) {
  Trace trace(opt.trace);
  ApproxShortestPaths::Params params;
  params.epsilon = 0.25;
  ServerConfig cfg;
  cfg.query_workers = 1;
  cfg.admission.default_deadline_ms = kDeadlineMs;
  cfg.admission.warm_ms_per_query_hint = 30;
  cfg.admission.degrade_at_fraction = 1.0;  // no degraded tier

  // Set-up j: generation + engine build + server start, with its own seed.
  // Each replaces the one before, so the peak RSS stays that of one engine.
  std::vector<double> setup_s, build_ms;
  auto set_up = [&](Served& sv, int j) {
    sv.reset();
    const std::uint64_t seed = setup_seed(opt.seed, j);
    const double t0 = now_s();
    {
      Trace::Scope s(trace, "graph.generate");
      sv.g = std::make_unique<Graph>(make_input(seed));
    }
    {
      Trace::Scope s(trace, "hopset.build");
      params.hopset.hopset.seed = seed;
      const double tb = now_s();
      sv.engine = std::make_unique<ApproxShortestPaths>(*sv.g, params);
      build_ms.push_back((now_s() - tb) * 1e3);
    }
    {
      Trace::Scope s(trace, "server.start");
      sv.srv = std::make_unique<QueryServer>(*sv.g, *sv.engine, cfg);
      if (!sv.srv->listen_tcp(0).ok()) {
        rep.check_failed("server did not start");
        return false;
      }
    }
    setup_s.push_back(now_s() - t0);
    return true;
  };

  const Rng pairs = Rng(opt.seed).split(0x9a1d);
  std::uint64_t next_pair = 0;
  // Failures the clients saw or the servers reported, summed over set-ups.
  std::uint64_t client_failures = 0, server_cuts = 0;
  auto tally = [&](const QueryClient& client, const QueryServer& srv) {
    const ClientStats cs = client.client_stats();
    client_failures +=
        cs.retries + cs.sheds_seen + cs.reconnects + cs.deadline_seen + cs.degraded_seen;
    const StatsSnapshot st = srv.stats();
    server_cuts += st.requests_shed + st.queries_deadline_exceeded + st.queries_degraded;
    return st;
  };

  // The measured phase runs untraced, a share of it on each served set-up;
  // phases[j] holds set-up j's answers, checked against its own graph.
  Trace off(false);
  std::vector<Phase> phases;
  Served live;
  QueryClient client;
  for (int j = 0; j < kSetupReps; ++j) {
    if (!set_up(live, j)) return;
    if (!QueryClient::connect_tcp(live.srv->port(), client_config(opt.seed), &client).ok()) {
      rep.check_failed("client could not connect");
      return;
    }
    phases.push_back(closed_loop(client, pairs, next_pair, live.g->num_vertices(),
                                 opt.seconds / kSetupReps, kWarmup, off));
    next_pair += phases.back().answers.size();
    if (j + 1 < kSetupReps) {
      tally(client, *live.srv);
      client.close();
    }
  }
  const Graph& g = *live.g;
  const ApproxShortestPaths& engine = *live.engine;
  const Phase& last = phases.back();

  // A traced run repeats the last share for a quarter of the time with
  // spans on (the tracing overhead is the difference), then replays the
  // first kReplay timed pairs of that share, each asked of the server, of
  // the engine directly (on the served one-thread team), and (for the
  // first 40) of the engine on a two-thread team, back to back, so that
  // machine drift cancels out of the differences and ratios.
  Phase traced, again;
  std::vector<double> client_ms, direct_ms, two_ms;
  double rounds = 0, relax = 0;
  SsspWorkspace ws, ws2;
  if (opt.trace) {
    traced = closed_loop(client, pairs, next_pair, g.num_vertices(), opt.seconds / 4, kWarmup,
                         trace);
    const std::size_t replay = std::min(last.latency_ms.size(), kReplay);
    for (std::size_t i = 0; i < replay; ++i) {
      const Answer& a = last.answers[kWarmup + i];
      Trace::Scope root(trace, "server.replay", -1, i + 1);
      {
        Trace::Scope span(trace, "server.request", root.id(), i + 1);
        const double t0 = now_s();
        again.add(ask(client, a.s, a.t));
        client_ms.push_back((now_s() - t0) * 1e3);
      }
      {
        Trace::Scope span(trace, "sssp.query", root.id(), i + 1);
        const double t0 = now_s();
        const auto r = engine.query(a.s, a.t, ws);
        direct_ms.push_back((now_s() - t0) * 1e3);
        rounds += static_cast<double>(r.rounds);
        relax += static_cast<double>(r.relaxations);
        if (a.ok && r.estimate != a.estimate) {
          rep.check_failed("direct query differs from served answer");
        }
      }
      if (i < 40) {
        Trace::Scope span(trace, "parallel.two_thread_query", root.id(), i + 1);
        with_threads(2, [&] {
          const double t0 = now_s();
          (void)engine.query(a.s, a.t, ws2);
          two_ms.push_back((now_s() - t0) * 1e3);
        });
      }
    }
  }
  const StatsSnapshot stats = tally(client, *live.srv);
  client.close();
  live.srv->stop();

  std::vector<double> latency_ms;
  double elapsed_s = 0;
  for (const Phase& p : phases) {
    latency_ms.insert(latency_ms.end(), p.latency_ms.begin(), p.latency_ms.end());
    elapsed_s += p.elapsed_s;
    rep.attempted += p.answers.size();
    rep.failed += p.failed;
  }
  rep.attempted += traced.answers.size() + again.answers.size();
  rep.failed += traced.failed + again.failed + client_failures;
  if (server_cuts != 0) rep.check_failed("server shed, cut or degraded a request");

  rep.latency("query", latency_ms);
  rep.figure("queries_per_s", latency_ms.size() / elapsed_s, "1/s", latency_ms.size());
  rep.figure("query_p90_ms", parsh::percentile(latency_ms, 90), "ms", latency_ms.size());
  rep.figure("engine_build_ms", median(build_ms), "ms", build_ms.size());
  rep.e2e("op_p50_ms", median(latency_ms), "ms");
  rep.e2e("ops_per_s", latency_ms.size() / elapsed_s, "1/s");
  rep.e2e("side_ms", parsh::percentile(latency_ms, 90), "ms");

  if (opt.trace) {
    std::vector<double> overhead;
    for (std::size_t i = 0; i < client_ms.size(); ++i) {
      overhead.push_back(client_ms[i] - direct_ms[i]);
    }
    double one_sum = 0, two_sum = 0;
    for (std::size_t i = 0; i < two_ms.size(); ++i) {
      one_sum += direct_ms[i];
      two_sum += two_ms[i];
    }
    const double replayed = static_cast<double>(direct_ms.size());
    RoundCounts counts;
    counts.add(ws);
    counts.report(rep);
    rep.layer("hopset.build_ms", median(build_ms), "ms");
    rep.layer("hopset.edges", static_cast<double>(engine.hopset().total_hopset_edges), "count");
    rep.layer("sssp.query_ms", median(direct_ms), "ms");
    rep.layer("sssp.rounds_per_query", rounds / replayed, "count");
    rep.layer("sssp.relaxations_per_query", relax / replayed, "count");
    rep.layer("parallel.query_speedup", two_sum > 0 ? one_sum / two_sum : 0, "ratio");
    rep.layer("server.query_overhead_ms", median(overhead), "ms");
    rep.layer("server.batch_size",
              stats.batches_served > 0 ? static_cast<double>(stats.requests_admitted) /
                                             static_cast<double>(stats.batches_served)
                                       : 0,
              "count");
    rep.layer("trace.overhead_ms", median(traced.latency_ms) - median(last.latency_ms), "ms");
  }

  // Output checks against exact Dijkstra distances on the graph that
  // served each answer. A request that failed is already counted in
  // `failed`; the checks judge every answer served.
  std::size_t bad = 0, checked = 0;
  auto check_phase = [&](const Graph& served, const Phase& p) {
    for (const Answer& a : p.answers) {
      if (!a.ok) continue;
      ++checked;
      const std::string v =
          check_answer(a.estimate, st_distance(served, a.s, a.t), a.ok, a.partial, a.degraded);
      if (!v.empty() && bad++ < 5) rep.check_failed("query-road: " + v);
    }
  };
  for (int j = 0; j + 1 < kSetupReps; ++j) {
    check_phase(make_input(setup_seed(opt.seed, j)), phases[j]);
  }
  check_phase(g, last);
  check_phase(g, traced);
  check_phase(g, again);
  rep.figure("checked_answers", static_cast<double>(checked), "count", checked);

  rep.figure("setup_s", median(setup_s), "s", setup_s.size());
  rep.e2e("setup_s", median(setup_s), "s");
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  finish_trace(opt, rep, trace);
}

}  // namespace perfbench
