// mixed-rmat: a Durability-backed QueryServer (WAL fsync on every batch,
// a checkpoint every kCheckpointEvery updates) on a small-world RMAT
// graph with log-uniform weights over a wide ratio. One closed-loop
// updater sends small weight-coherent batches, each drawn from one band
// of the weight range as bench_dynamic draws them, so clean distance
// scales exist. Queries arrive beside the updates on a fixed open-loop
// schedule and are timed from when each was due. After the last update
// the engine is dropped without a checkpoint and the directory reopened:
// that is recovery, always over the same kRecoveryRecords WAL records.
// Writes sit beside reads: apply_delta, the hopset rebuild and the WAL do
// most of the work, and the queries are cheap, so the server's own
// overhead is a visible share.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include <unistd.h>

#include "bench.hpp"
#include "checks.hpp"
#include "core/parsh.hpp"
#include "server/checkpoint.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/wal.hpp"

namespace perfbench {

using namespace parsh;
using namespace parsh::server;

namespace {

constexpr vid kN = 5000;                      // m ~ 28k after ensure_connected
constexpr double kWeightRatio = 10000;        // log-uniform weights in [1, 1e4]
constexpr int kBatchEdges = 8;
constexpr std::uint64_t kCheckpointEvery = 16;  // the update stream's round length
constexpr int kRecoveryRecords = 8;           // WAL tail every recovery replays
constexpr int kReopenings = 5;                // recoveries per run (median reported)
static_assert(kRecoveryRecords < kCheckpointEvery,
              "the recovery tail must end before the next threshold checkpoint");
constexpr double kQueryIntervalS = 0.05;      // open-loop schedule: 20 queries/s

/// One batch of the update stream: kBatchEdges operations drawn from one
/// log-uniform band of the weight range; 70% inserts or reweights, the
/// rest removals of edges present in that band. Batch i takes band i % 4,
/// so every round of kCheckpointEvery batches, and the recovery tail,
/// holds the same mix of bands: a rebuild's cost depends on its band (on
/// one traced run, ~320 ms median for the two lightest bands against
/// ~265 ms for the heaviest), so a drawn mix would move the update p50.
GraphDelta draw_batch(const Rng& stream, std::uint64_t index, const EdgeMap& current) {
  const Rng r = stream.split(index);
  const int band = static_cast<int>(index % 4);
  const double lo = std::pow(kWeightRatio, band / 4.0);
  const double hi = std::pow(kWeightRatio, (band + 1) / 4.0);
  std::vector<Edge> present;
  for (const auto& [k, w] : current.edges()) {
    if (w >= lo && w <= hi) present.push_back({k.first, k.second, w});
  }
  GraphDelta d;
  for (int k = 0; k < kBatchEdges; ++k) {
    const auto kk = static_cast<std::uint64_t>(k);
    if (r.uniform_int(3 * kk, 100) < 70 || present.empty()) {
      const double x = r.uniform(3 * kk + 3);
      const weight_t w = std::max<weight_t>(1, std::floor(lo * std::pow(hi / lo, x)));
      d.insert.push_back({static_cast<vid>(r.uniform_int(3 * kk + 1, kN)),
                          static_cast<vid>(r.uniform_int(3 * kk + 2, kN)), w});
    } else {
      d.remove.push_back(present[r.uniform_int(3 * kk + 1, present.size())]);
    }
  }
  return d;
}

struct Phase {
  std::vector<double> update_ms;     // send -> ack
  std::vector<double> query_due_ms;  // due -> reply (open loop)
  std::vector<double> query_send_ms; // send -> reply
  double max_late_ms = 0;            // how late the query generator ran
  double elapsed_s = 0;
};

/// The state the stream walks through: the longhand map, every delta in
/// epoch order, and every served answer.
struct Stream {
  EdgeMap map;
  std::vector<GraphDelta> deltas;  // deltas[e - 1] published as epoch e
  std::vector<Answer> answers;
  std::uint64_t failed = 0;
  std::uint64_t next_query = 0;
  Rng updates{1};
  Rng pairs{1};
};

/// Send one update and check its verdict: OK, not a duplicate, and the
/// epoch right after the previous one.
bool send_update(QueryClient& client, Stream& st, Report& rep, double* ms) {
  GraphDelta d = draw_batch(st.updates, st.deltas.size(), st.map);
  UpdateResponse resp;
  const double t0 = now_s();
  const Status s = client.update(d.insert, d.remove, &resp);
  *ms = (now_s() - t0) * 1e3;
  const bool ok = s.ok() && resp.status == StatusCode::kOk &&
                  (resp.flags & kUpdateFlagDuplicate) == 0;
  if (!ok) {
    ++st.failed;
    return false;
  }
  if (resp.epoch != st.deltas.size() + 1) {
    rep.check_failed("update epoch " + std::to_string(resp.epoch) + " after " +
                     std::to_string(st.deltas.size()));
  }
  st.map.apply(d);
  st.deltas.push_back(std::move(d));
  return true;
}

Answer send_query(QueryClient& client, const Stream& st, std::uint64_t i) {
  const auto [s, t] = pair_at(st.pairs, i, kN);
  return ask(client, s, t);
}

/// The measured phase: the calling thread runs the closed-loop updater for
/// whole rounds of kCheckpointEvery updates until `seconds` have passed;
/// a second thread sends queries on the open-loop schedule meanwhile.
Phase run_phase(QueryClient& updater, QueryClient& querier, Stream& st, double seconds,
                Trace& trace, Report& rep) {
  Phase ph;
  std::atomic<bool> done{false};
  std::vector<Answer> answers;
  const double start = now_s();
  std::thread q([&] {
    for (std::uint64_t k = 1;; ++k) {
      const double due = start + kQueryIntervalS * static_cast<double>(k);
      while (now_s() < due && !done.load()) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(due - now_s(), 0.005)));
      }
      if (done.load()) break;
      const double sent = now_s();
      ph.max_late_ms = std::max(ph.max_late_ms, (sent - due) * 1e3);
      const std::uint64_t i = st.next_query++;
      Trace::Scope span(trace, "server.query", -1, (1ull << 32) + i);
      answers.push_back(send_query(querier, st, i));
      const double end = now_s();
      ph.query_due_ms.push_back((end - due) * 1e3);
      ph.query_send_ms.push_back((end - sent) * 1e3);
    }
  });
  while (now_s() - start < seconds || st.deltas.size() % kCheckpointEvery != 0) {
    Trace::Scope span(trace, "server.update", -1, st.deltas.size() + 1);
    double ms = 0;
    if (!send_update(updater, st, rep, &ms)) break;
    ph.update_ms.push_back(ms);
  }
  ph.elapsed_s = now_s() - start;
  done.store(true);
  q.join();
  st.answers.insert(st.answers.end(), answers.begin(), answers.end());
  return ph;
}

/// Served answers that came back OK, grouped by the epoch their response
/// carries.
std::vector<std::vector<const Answer*>> answers_by_epoch(const Stream& st, Report& rep) {
  std::vector<std::vector<const Answer*>> by_epoch(st.deltas.size() + 1);
  for (const Answer& a : st.answers) {
    if (!a.ok) continue;
    if (a.epoch < by_epoch.size()) {
      by_epoch[a.epoch].push_back(&a);
    } else {
      rep.check_failed("answer from an epoch never acked");
    }
  }
  return by_epoch;
}

/// What the traced replay measured, call by call.
struct Replay {
  std::vector<double> apply_ms, rebuild_ms, wal_ms, checkpoint_ms, query_ms;
  double build_ms = 0, changed = 0, query_rounds = 0, relaxations = 0;
  double dirty_scales = 0, total_scales = 0, dirty_clusters = 0, total_clusters = 0;
  std::uint64_t hopset_edges = 0;
  RoundCounts rounds;
};

/// Replay the served update stream and the served pairs straight through
/// the layers: Graph::apply_delta, rebuild_weighted_hopset, WalWriter::append
/// (into `rdir`, same fsync policy), write_checkpoint at the server's
/// cadence, and ApproxShortestPaths::query at each answer's epoch, which
/// must equal the served answer bit for bit.
Replay replay(const Graph& g0, const Stream& st,
              const std::vector<std::vector<const Answer*>>& by_epoch,
              const ApproxShortestPaths::Params& params, const WalOptions& wal_opt,
              const std::string& rdir, Trace& trace, Report& rep) {
  namespace fs = std::filesystem;
  Replay out;
  std::error_code ec;
  fs::remove_all(rdir, ec);
  fs::create_directories(rdir, ec);
  WalWriter wal;
  if (!wal.open(rdir, 1, wal_opt).ok()) rep.check_failed("replay WAL did not open");
  EstClusterWorkspace cws;
  SsspWorkspacePool pool;
  SsspWorkspace qws;
  Graph cur = g0;
  WeightedHopset hop;
  {
    Trace::Scope s(trace, "hopset.build");
    const double t0 = now_s();
    hop = build_weighted_hopset(cur, params.hopset, cws, pool);
    out.build_ms = (now_s() - t0) * 1e3;
  }
  out.hopset_edges = hop.total_hopset_edges;
  auto serve_queries = [&](std::uint64_t e) {
    if (by_epoch[e].empty()) return;
    Trace::Scope batch(trace, "sssp.replay_epoch", -1, e);
    const ApproxShortestPaths engine(kN, hop, params);
    for (const Answer* a : by_epoch[e]) {
      Trace::Scope s(trace, "sssp.query", batch.id(), e);
      const double t0 = now_s();
      const auto r = engine.query(a->s, a->t, qws);
      out.query_ms.push_back((now_s() - t0) * 1e3);
      out.query_rounds += static_cast<double>(r.rounds);
      out.relaxations += static_cast<double>(r.relaxations);
      if (r.estimate != a->estimate) {
        rep.check_failed("replayed query differs from the served answer");
      }
    }
  };
  serve_queries(0);
  for (std::uint64_t e = 1; e <= st.deltas.size(); ++e) {
    const GraphDelta& d = st.deltas[e - 1];
    {
      Trace::Scope root(trace, "server.replay_update", -1, e);
      DeltaResult dr;
      {
        Trace::Scope s(trace, "graph.apply_delta", root.id(), e);
        const double t0 = now_s();
        dr = cur.apply_delta(d);
        out.apply_ms.push_back((now_s() - t0) * 1e3);
      }
      out.changed += static_cast<double>(dr.changes.size());
      HopsetRebuildStats hs;
      {
        Trace::Scope s(trace, "hopset.rebuild", root.id(), e);
        const double t0 = now_s();
        hop = rebuild_weighted_hopset(dr.graph, params.hopset, hop, dr.changes, cws, pool, &hs);
        out.rebuild_ms.push_back((now_s() - t0) * 1e3);
      }
      out.dirty_scales += static_cast<double>(hs.dirty_scales);
      out.total_scales += static_cast<double>(hs.total_scales);
      out.dirty_clusters += static_cast<double>(hs.dirty_clusters);
      out.total_clusters += static_cast<double>(hs.total_clusters);
      {
        Trace::Scope s(trace, "server.wal_append", root.id(), e);
        WalRecord r;
        r.epoch = e;
        r.delta = d;
        const double t0 = now_s();
        if (!wal.append(r).ok()) rep.check_failed("replay WAL append failed");
        out.wal_ms.push_back((now_s() - t0) * 1e3);
      }
      cur = dr.graph;
      if (e % kCheckpointEvery == 0) {
        Trace::Scope s(trace, "server.checkpoint", root.id(), e);
        Manifest m;
        m.epoch = e;
        m.wal_first_epoch = 1;
        const double t0 = now_s();
        if (!write_checkpoint(rdir, cur, m).ok()) rep.check_failed("replay checkpoint failed");
        out.checkpoint_ms.push_back((now_s() - t0) * 1e3);
      }
    }
    serve_queries(e);
  }
  wal.close();
  fs::remove_all(rdir, ec);
  out.rounds.add(cws);
  out.rounds.add(qws);
  for (std::size_t i = 0; i < pool.size(); ++i) out.rounds.add(pool.at(i));
  return out;
}

}  // namespace

void run_mixed_rmat(const Options& opt, Report& rep) {
  Trace trace(opt.trace);
  namespace fs = std::filesystem;
  const std::string dir = opt.work_dir + "/mixed-rmat-" + std::to_string(::getpid());
  DynamicApproxShortestPaths::Params params;
  params.epsilon = 0.25;
  params.hopset.hopset.seed = opt.seed;
  DurabilityOptions dopt;
  dopt.dir = dir;
  dopt.wal.fsync = FsyncPolicy::kEveryBatch;
  dopt.checkpoint_every = kCheckpointEvery;
  ServerConfig cfg;
  cfg.query_workers = 1;
  cfg.admission.default_deadline_ms = kDeadlineMs;
  cfg.admission.warm_ms_per_query_hint = 2;
  cfg.admission.degrade_at_fraction = 1.0;  // no degraded tier

  // Set-up: generation + durable engine build from an empty directory +
  // server start. The last of the set-ups before the measured phase
  // serves; the ones after recovery are stopped unused.
  std::vector<double> setup_s;
  Graph g0;
  std::unique_ptr<Durability> durable;
  std::unique_ptr<QueryServer> server;
  auto set_up = [&](Graph& g, std::unique_ptr<Durability>& d,
                    std::unique_ptr<QueryServer>& srv) {
    srv.reset();
    d.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
    const double t0 = now_s();
    {
      Trace::Scope s(trace, "graph.generate");
      g = with_log_uniform_weights(
          ensure_connected(make_rmat(kN, static_cast<eid>(kN) * 6, opt.seed)), kWeightRatio,
          opt.seed + 17);
    }
    {
      Trace::Scope s(trace, "hopset.durable_open");
      if (!Durability::open(g, params, dopt, &d).ok()) {
        rep.check_failed("durable engine did not open");
        return false;
      }
    }
    {
      Trace::Scope s(trace, "server.start");
      srv = std::make_unique<QueryServer>(*d, cfg);
      if (!srv->listen_tcp(0).ok()) {
        rep.check_failed("server did not start");
        return false;
      }
    }
    setup_s.push_back(now_s() - t0);
    return true;
  };
  for (int i = 0; i < kSetupReps / 2; ++i) {
    if (!set_up(g0, durable, server)) return;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "input rmat n=%u m=%llu weights log-uniform 1..%g",
                g0.num_vertices(), static_cast<unsigned long long>(g0.num_edges()),
                kWeightRatio);
  rep.line(buf);

  ClientConfig ucfg = client_config(opt.seed);
  ucfg.client_id = 0xB0B;  // exactly-once identity of the update stream
  const ClientConfig qcfg = client_config(opt.seed + 1);
  QueryClient updater, querier;
  if (!QueryClient::connect_tcp(server->port(), ucfg, &updater).ok() ||
      !QueryClient::connect_tcp(server->port(), qcfg, &querier).ok()) {
    rep.check_failed("clients could not connect");
    return;
  }

  Stream st;
  st.map = EdgeMap(g0);
  st.updates = Rng(opt.seed).split(0xdb);
  st.pairs = Rng(opt.seed).split(0x51);
  // Warm-up: two updates and five queries, untimed but checked.
  for (int i = 0; i < 2; ++i) {
    double ms = 0;
    (void)send_update(updater, st, rep, &ms);
  }
  for (int i = 0; i < 5; ++i) st.answers.push_back(send_query(querier, st, st.next_query++));

  Trace off(false);
  const Phase ph = run_phase(updater, querier, st, opt.seconds, off, rep);
  Phase traced;
  // A traced run repeats the phase for a quarter of the time with spans on
  // (the tracing overhead is the difference); the replay below re-applies
  // every update, so a full-length repeat would double its cost.
  if (opt.trace) traced = run_phase(updater, querier, st, opt.seconds / 4, trace, rep);

  // The recovery tail: a fixed number of records past the last checkpoint.
  for (int i = 0; i < kRecoveryRecords; ++i) {
    double ms = 0;
    (void)send_update(updater, st, rep, &ms);
  }
  const StatsSnapshot stats = server->stats();
  const ClientStats ucs = updater.client_stats(), qcs = querier.client_stats();
  updater.close();
  querier.close();
  server->stop();
  server.reset();

  // What the served engine holds before the crash.
  const auto snap = durable->engine().snapshot();
  const std::uint64_t last_epoch = snap->epoch;
  if (last_epoch != st.deltas.size()) rep.check_failed("served epoch is not the last acked epoch");
  const std::string served_edges = check_edge_set(st.map, snap->graph.undirected_edges());
  if (!served_edges.empty()) rep.check_failed("served graph: " + served_edges);
  const Rng sample = Rng(opt.seed).split(0x5e);
  std::vector<double> before;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const auto [s, t] = pair_at(sample, i, kN);
    before.push_back(snap->engine.query(s, t).estimate);
  }
  durable.reset();  // dropped without a checkpoint

  // Recovery, kReopenings times over the same directory.
  std::vector<double> recovery_ms;
  for (int i = 0; i < kReopenings; ++i) {
    std::unique_ptr<Durability> rec;
    const double t0 = now_s();
    const Status s = Durability::open(g0, params, dopt, &rec);
    recovery_ms.push_back((now_s() - t0) * 1e3);
    ++rep.attempted;
    if (!s.ok()) {
      ++rep.failed;
      continue;
    }
    const auto rs = rec->engine().snapshot();
    if (rec->recovery().replayed != static_cast<std::uint64_t>(kRecoveryRecords)) {
      rep.check_failed("recovery replayed " + std::to_string(rec->recovery().replayed) +
                       " records");
    }
    if (rs->epoch != last_epoch) rep.check_failed("recovered epoch is not the last acked epoch");
    const std::string v = check_edge_set(st.map, rs->graph.undirected_edges());
    if (!v.empty()) rep.check_failed("recovered graph: " + v);
    for (std::uint64_t k = 0; k < before.size(); ++k) {
      const auto [a, b] = pair_at(sample, k, kN);
      if (rs->engine.query(a, b).estimate != before[k]) {
        rep.check_failed("recovered answer differs from the pre-crash answer");
        break;
      }
    }
  }
  {
    Graph g;
    std::unique_ptr<Durability> d;
    std::unique_ptr<QueryServer> srv;
    for (int i = kSetupReps / 2; i < kSetupReps; ++i) {
      if (!set_up(g, d, srv)) return;
    }
  }

  // A failed update or query counts once: `send_update` counts the
  // updates (transport failures included), and every answer that did not
  // come back OK is a failed query.
  const auto failed_queries = static_cast<std::uint64_t>(std::count_if(
      st.answers.begin(), st.answers.end(), [](const Answer& a) { return !a.ok; }));
  rep.attempted += st.deltas.size() + st.failed + st.answers.size();
  rep.failed += st.failed + failed_queries + ucs.retries + ucs.sheds_seen + ucs.reconnects +
                qcs.retries + qcs.sheds_seen + qcs.reconnects + qcs.deadline_seen +
                qcs.degraded_seen;
  if (stats.requests_shed + stats.queries_deadline_exceeded + stats.queries_degraded +
          stats.updates_rejected + stats.wal_failures !=
      0) {
    rep.check_failed("server shed, cut, degraded or rejected a request");
  }

  rep.figure("setup_s", median(setup_s), "s", setup_s.size());
  rep.latency("update", ph.update_ms);
  rep.figure("updates_per_s", ph.update_ms.size() / ph.elapsed_s, "1/s", ph.update_ms.size());
  rep.latency("query", ph.query_due_ms);
  rep.figure("query_generator_late_ms", ph.max_late_ms, "ms", ph.query_due_ms.size());
  rep.figure("recovery_s", median(recovery_ms) / 1e3, "s", recovery_ms.size());
  rep.e2e("setup_s", median(setup_s), "s");
  rep.e2e("op_p50_ms", median(ph.update_ms), "ms");
  rep.e2e("ops_per_s", ph.update_ms.size() / ph.elapsed_s, "1/s");
  rep.e2e("side_ms", median(recovery_ms), "ms");

  // Served answers against Dijkstra on the graph of the epoch each
  // response carries (answers that did not come back OK are counted in
  // `failed` above and skipped here).
  const auto by_epoch = answers_by_epoch(st, rep);
  {
    EdgeMap map(g0);
    std::size_t bad = 0, checked = 0;
    for (std::uint64_t e = 0; e < by_epoch.size(); ++e) {
      if (e > 0) map.apply(st.deltas[e - 1]);
      if (by_epoch[e].empty()) continue;
      const Graph ge = map.to_graph(kN);
      for (const Answer* a : by_epoch[e]) {
        ++checked;
        const std::string v = check_answer(a->estimate, st_distance(ge, a->s, a->t), a->ok,
                                           a->partial, a->degraded);
        if (!v.empty() && bad++ < 5) rep.check_failed("mixed-rmat query: " + v);
      }
    }
    rep.figure("checked_answers", static_cast<double>(checked), "count", checked);
  }

  if (opt.trace) {
    const Replay r = replay(g0, st, by_epoch, params, dopt.wal, dir + "-replay", trace, rep);
    const double nq = static_cast<double>(r.query_ms.size());
    rep.layer("graph.apply_delta_ms", median(r.apply_ms), "ms");
    rep.layer("graph.changed_edges", r.changed / static_cast<double>(st.deltas.size()), "count");
    rep.layer("hopset.build_ms", r.build_ms, "ms");
    rep.layer("hopset.edges", static_cast<double>(r.hopset_edges), "count");
    rep.layer("hopset.rebuild_ms", median(r.rebuild_ms), "ms");
    rep.layer("hopset.dirty_scale_share", r.dirty_scales / r.total_scales, "ratio");
    rep.layer("hopset.dirty_cluster_share", r.dirty_clusters / r.total_clusters, "ratio");
    r.rounds.report(rep);
    rep.layer("sssp.query_ms", median(r.query_ms), "ms");
    rep.layer("sssp.rounds_per_query", nq > 0 ? r.query_rounds / nq : 0, "count");
    rep.layer("sssp.relaxations_per_query", nq > 0 ? r.relaxations / nq : 0, "count");
    rep.layer("server.wal_append_ms", median(r.wal_ms), "ms");
    rep.layer("server.checkpoint_ms", median(r.checkpoint_ms), "ms");
    rep.layer("server.fsyncs_per_update",
              static_cast<double>(stats.wal_fsyncs) / static_cast<double>(stats.updates_applied),
              "count");
    rep.layer("server.update_overhead_ms",
              median(ph.update_ms) - median(r.apply_ms) - median(r.rebuild_ms) - median(r.wal_ms),
              "ms");
    rep.layer("server.replay_ms_per_record",
              (median(recovery_ms) - r.build_ms) / kRecoveryRecords, "ms");
    rep.layer("server.query_overhead_ms", median(ph.query_send_ms) - median(r.query_ms), "ms");
    rep.layer("server.batch_size",
              static_cast<double>(stats.requests_admitted) /
                  static_cast<double>(stats.batches_served),
              "count");
    rep.layer("trace.overhead_ms", median(traced.update_ms) - median(ph.update_ms), "ms");
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  finish_trace(opt, rep, trace);
}

}  // namespace perfbench
