// SERVER — open-loop saturation bench for the hardened query service.
//
// Preprocesses once, measures the engine's warm ms/query (the same
// figure BENCH_thm12_approx_sssp.json records, here feeding the
// admission queue's drain estimator), then sweeps offered load across
// multiples of the measured capacity. Each level runs an open-loop load
// generator: client threads issue requests on a fixed arrival schedule
// — never waiting for the previous answer to be "ready" to send the
// next — so queueing delay is charged to latency instead of silently
// throttling the generator (no coordinated omission).
//
// The shape to look for: below the knee (offered < capacity) everything
// is served at full fidelity; beyond it, admission control sheds with
// retry-after hints, execution deadlines cut batches into partial
// answers, and the degraded tier absorbs what is admitted — while p99
// stays bounded instead of tracking unbounded queue growth.
//
//   ./bench_server [--n 2000] [--workload er|grid|road|rmat|path|pathchords]
//                  [--eps 0.25] [--deadline_ms 25] [--pairs 16]
//                  [--clients 8] [--duration 1.0] [--seed 1]
//                  [--faults false] [--scale 1.0]
//
// With --faults true the deterministic FaultInjector is armed (torn and
// slow-loris writes, worker stalls, queue spikes, connection drops) and
// the clients must recover via retry/reconnect. The bench exits
// nonzero if any level leaks a connection or fails to shut down clean,
// which is what the CI smoke step asserts.
//
// After the sweep, a durable phase streams updates into a WAL-backed
// engine, kills and recovers it, then times recovery alone against WAL
// tails of 8, 64 and 256 records (recovery_ms split into fold_ms and
// build_ms; it should stay flat as the tail grows).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "bench_common.hpp"
#include "graph/digest.hpp"
#include "server/checkpoint.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/wal.hpp"

namespace {

using namespace parsh;
using namespace parsh::server;

struct LevelStats {
  std::vector<double> latency_ms;  // per request, send to final verdict
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t sheds_seen = 0;
  std::uint64_t deadline_seen = 0;
  std::uint64_t degraded_seen = 0;
  std::uint64_t reconnects = 0;
  double wall_s = 0;
  StatsSnapshot server;
};

struct LevelConfig {
  double offered_qps = 0;  // requests per second across all clients
  double duration_s = 1.0;
  int clients = 8;
  std::uint32_t deadline_ms = 25;
  int pairs_per_request = 16;
  std::uint64_t seed = 1;
};

LevelStats run_level(const Graph& g, const ApproxShortestPaths& engine,
                     double warm_ms_per_query, bool faults, const LevelConfig& lc) {
  ServerConfig cfg;
  cfg.query_workers = 1;
  cfg.admission.warm_ms_per_query_hint = std::max(warm_ms_per_query, 1e-3);
  cfg.admission.default_deadline_ms = lc.deadline_ms;
  // Degradation must engage *below* the shed point (estimated drain
  // exceeding the deadline budget), so the tier ladder under rising
  // load is: full fidelity -> degraded -> shed.
  cfg.admission.max_queue_depth = 16;
  cfg.admission.degrade_at_fraction = 0.125;
  cfg.admission.degrade_skip_scales = 1;
  if (faults) {
    cfg.enable_faults = true;
    cfg.fault_seed = lc.seed ^ 0xfa417ULL;
    cfg.faults.slow_write = 0.05;
    cfg.faults.tear_write = 0.02;
    cfg.faults.drop_connection = 0.02;
    cfg.faults.worker_stall = 0.05;
    cfg.faults.queue_spike = 0.05;
    cfg.faults.max_delay_us = 500;
    cfg.faults.max_spike = 8;
  }
  QueryServer srv(g, engine, cfg);
  Status s = srv.listen_tcp(0);
  if (!s.ok()) {
    std::fprintf(stderr, "bench_server: listen failed: %s\n", s.to_string().c_str());
    std::exit(1);
  }

  const int per_client =
      std::max(1, static_cast<int>(std::ceil(lc.offered_qps * lc.duration_s /
                                             static_cast<double>(lc.clients))));
  const double interval_s = static_cast<double>(lc.clients) / lc.offered_qps;

  LevelStats agg;
  std::mutex mu;
  Timer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < lc.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientConfig ccfg;
      ccfg.max_retries = 2;
      ccfg.backoff_base_ms = 2;
      ccfg.backoff_max_ms = 50;
      ccfg.rpc_timeout_ms = 2000;
      ccfg.seed = lc.seed + static_cast<std::uint64_t>(c) * 101;
      QueryClient client;
      if (!QueryClient::connect_tcp(srv.port(), ccfg, &client).ok()) return;

      Rng rng(Rng(lc.seed).split(0x10ad + static_cast<std::uint64_t>(c)));
      const vid n = g.num_vertices();
      std::vector<double> latencies;
      std::uint64_t ok = 0, failed = 0;
      const auto t0 = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(interval_s * c /
                                                        lc.clients));
      for (int i = 0; i < per_client; ++i) {
        // Open-loop pacing: request i is *due* at t0 + i*interval. A
        // thread that falls behind (the synchronous round trip took
        // longer than the interval) issues immediately, so realized
        // input rate — reported per level — is what the schedule could
        // actually push through blocking connections.
        const auto due = t0 + std::chrono::duration_cast<
                                  std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double>(interval_s * i));
        std::this_thread::sleep_until(due);
        std::vector<std::pair<vid, vid>> pairs;
        pairs.reserve(static_cast<std::size_t>(lc.pairs_per_request));
        for (int p = 0; p < lc.pairs_per_request; ++p) {
          const std::uint64_t k =
              static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(
                                                  lc.pairs_per_request) +
              static_cast<std::uint64_t>(p);
          pairs.emplace_back(static_cast<vid>(rng.uniform_int(2 * k, n)),
                             static_cast<vid>(rng.uniform_int(2 * k + 1, n)));
        }
        // Latency is send-to-verdict and includes retry backoff: the
        // bound the service actually offers is "every request gets a
        // typed answer within the deadline + retry envelope", which is
        // exactly what must stay flat past the knee.
        const auto sent_at = std::chrono::steady_clock::now();
        QueryResponse resp;
        const Status qs = client.query(pairs, lc.deadline_ms, &resp);
        const double lat_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - sent_at)
                .count();
        latencies.push_back(lat_ms);
        if (qs.ok()) {
          ++ok;
        } else {
          ++failed;
        }
      }
      const ClientStats cs = client.client_stats();
      client.close();
      std::lock_guard<std::mutex> lock(mu);
      agg.latency_ms.insert(agg.latency_ms.end(), latencies.begin(),
                            latencies.end());
      agg.ok += ok;
      agg.failed += failed;
      agg.retries += cs.retries;
      agg.sheds_seen += cs.sheds_seen;
      agg.deadline_seen += cs.deadline_seen;
      agg.degraded_seen += cs.degraded_seen;
      agg.reconnects += cs.reconnects;
    });
  }
  for (auto& t : threads) t.join();
  agg.wall_s = wall.seconds();
  agg.server = srv.stats();
  srv.stop();
  // The smoke contract: shutdown leaks nothing, every connection the
  // server ever opened was closed.
  if (srv.open_connections() != 0 ||
      srv.metrics().connections_opened.load() !=
          srv.metrics().connections_closed.load()) {
    std::fprintf(stderr, "bench_server: leaked connections after stop()\n");
    std::exit(1);
  }
  return agg;
}

// ---- ROADMAP item-3 headroom: durable update stream + crash recovery -------

struct UpdateStreamStats {
  std::vector<double> update_lat_ms;  // send to verdict, includes retries
  std::vector<double> query_lat_ms;   // interleaved reads during the stream
  std::uint64_t updates_ok = 0;
  std::uint64_t updates_failed = 0;
  std::uint64_t queries_ok = 0;
  std::uint64_t queries_failed = 0;
  std::uint64_t retries = 0;
  double wall_s = 0;
  StatsSnapshot server;
  std::uint64_t wal_bytes = 0;
  double recovery_ms = 0;
  double recovery_fold_ms = 0;
  double recovery_build_ms = 0;
  std::uint64_t recovered_replayed = 0;
  std::uint64_t checkpoint_loaded = 0;
  std::uint64_t digest_match = 0;
};

/// Open-loop interleaved update/query stream against the durable dynamic
/// engine, then a simulated kill: drop the server and coordinator with the
/// directory as-is, reopen it (checkpoint load + WAL replay), and check the
/// recovered snapshot digests bit-identical to the last pre-kill epoch.
/// A digest mismatch is a bench failure (exit 1), same as a leaked
/// connection — it means the write-ahead contract lied.
UpdateStreamStats run_update_stream(const Graph& g, double eps,
                                    double warm_ms_per_query, bool faults,
                                    const LevelConfig& lc, int updaters,
                                    std::uint64_t checkpoint_every,
                                    double query_rps) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir =
      std::string(tmp && *tmp ? tmp : "/tmp") + "/parsh_bench_durable";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  DynamicApproxShortestPaths::Params dp;
  dp.epsilon = eps;
  dp.hopset.hopset.seed = lc.seed;
  DurabilityOptions opt;
  opt.dir = dir;
  opt.checkpoint_every = checkpoint_every;
  opt.wal.fsync = FsyncPolicy::kEveryBatch;
  std::unique_ptr<Durability> d;
  if (Status s = Durability::open(g, dp, opt, &d); !s.ok()) {
    std::fprintf(stderr, "bench_server: durable open: %s\n",
                 s.to_string().c_str());
    std::exit(1);
  }

  ServerConfig cfg;
  cfg.query_workers = 1;
  cfg.admission.warm_ms_per_query_hint = std::max(warm_ms_per_query, 1e-3);
  cfg.admission.default_deadline_ms = lc.deadline_ms;
  if (faults) {
    cfg.enable_faults = true;
    cfg.fault_seed = lc.seed ^ 0xd04aULL;
    cfg.faults.tear_write = 0.02;
    cfg.faults.drop_connection = 0.02;
    cfg.faults.wal_append_tear = 0.05;
    cfg.faults.wal_fsync_fail = 0.05;
    cfg.faults.checkpoint_write_fail = 0.1;
    cfg.faults.checkpoint_rename_fail = 0.1;
  }
  QueryServer srv(*d, cfg);
  if (Status s = srv.listen_tcp(0); !s.ok()) {
    std::fprintf(stderr, "bench_server: listen failed: %s\n",
                 s.to_string().c_str());
    std::exit(1);
  }

  UpdateStreamStats agg;
  std::mutex mu;
  Timer wall;
  const auto t0 = std::chrono::steady_clock::now();
  const auto stop_at = t0 + std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(lc.duration_s));
  std::vector<std::thread> threads;

  // Updaters: open-loop at a fixed offered rate; an apply that outlasts
  // its interval charges the overrun to latency, not to the generator.
  const double update_interval_s = 0.01;  // 100 offered updates/s per updater
  for (int c = 0; c < updaters; ++c) {
    threads.emplace_back([&, c] {
      ClientConfig ccfg;
      ccfg.max_retries = 4;
      ccfg.backoff_base_ms = 2;
      ccfg.backoff_max_ms = 50;
      ccfg.rpc_timeout_ms = 5000;
      ccfg.seed = lc.seed + 7700 + static_cast<std::uint64_t>(c) * 13;
      QueryClient client;
      if (!QueryClient::connect_tcp(srv.port(), ccfg, &client).ok()) return;
      Rng rng(Rng(lc.seed).split(0xda7a + static_cast<std::uint64_t>(c)));
      const vid n = g.num_vertices();
      std::vector<double> lats;
      std::uint64_t ok = 0, failed = 0;
      for (int i = 0;; ++i) {
        const auto due = t0 + std::chrono::duration_cast<
                                  std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double>(
                                      update_interval_s * (i + 1)));
        std::this_thread::sleep_until(std::min(due, stop_at));
        if (std::chrono::steady_clock::now() >= stop_at) break;
        std::vector<Edge> ins, rem;
        std::uint64_t k = static_cast<std::uint64_t>(i) * 8;
        for (int e2 = 0; e2 < 3; ++e2) {
          Edge e;
          e.u = static_cast<vid>(rng.uniform_int(k++, n));
          e.v = static_cast<vid>(rng.uniform_int(k++, n));
          e.w = static_cast<weight_t>(1 + rng.uniform_int(k++, 8));
          if (e.u != e.v) ins.push_back(e);
        }
        const auto sent_at = std::chrono::steady_clock::now();
        UpdateResponse resp;
        const Status us = client.update(std::move(ins), std::move(rem), &resp);
        lats.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - sent_at)
                           .count());
        if (us.ok() && resp.status == StatusCode::kOk) {
          ++ok;
        } else {
          ++failed;
        }
      }
      const ClientStats cs = client.client_stats();
      client.close();
      std::lock_guard<std::mutex> lock(mu);
      agg.update_lat_ms.insert(agg.update_lat_ms.end(), lats.begin(),
                               lats.end());
      agg.updates_ok += ok;
      agg.updates_failed += failed;
      agg.retries += cs.retries;
    });
  }
  // Interleaved readers: the point of epoch-swapped serving is that the
  // update stream never blocks queries, so run them concurrently and
  // report their latency alongside.
  const int queriers = std::max(1, lc.clients - updaters);
  const double query_interval_s =
      static_cast<double>(queriers) / std::max(query_rps, 4.0);
  for (int c = 0; c < queriers; ++c) {
    threads.emplace_back([&, c] {
      ClientConfig ccfg;
      ccfg.max_retries = 2;
      ccfg.backoff_base_ms = 2;
      ccfg.backoff_max_ms = 50;
      ccfg.rpc_timeout_ms = 2000;
      ccfg.seed = lc.seed + 9900 + static_cast<std::uint64_t>(c) * 17;
      QueryClient client;
      if (!QueryClient::connect_tcp(srv.port(), ccfg, &client).ok()) return;
      Rng rng(Rng(lc.seed).split(0x9e4d + static_cast<std::uint64_t>(c)));
      const vid n = g.num_vertices();
      std::vector<double> lats;
      std::uint64_t ok = 0, failed = 0;
      for (int i = 0;; ++i) {
        const auto due = t0 + std::chrono::duration_cast<
                                  std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double>(
                                      query_interval_s * (i + 1)));
        std::this_thread::sleep_until(std::min(due, stop_at));
        if (std::chrono::steady_clock::now() >= stop_at) break;
        std::vector<std::pair<vid, vid>> pairs;
        for (int p = 0; p < lc.pairs_per_request; ++p) {
          const std::uint64_t k =
              static_cast<std::uint64_t>(i) *
                  static_cast<std::uint64_t>(lc.pairs_per_request) +
              static_cast<std::uint64_t>(p);
          pairs.emplace_back(static_cast<vid>(rng.uniform_int(2 * k, n)),
                             static_cast<vid>(rng.uniform_int(2 * k + 1, n)));
        }
        const auto sent_at = std::chrono::steady_clock::now();
        QueryResponse resp;
        const Status qs = client.query(pairs, lc.deadline_ms, &resp);
        lats.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - sent_at)
                           .count());
        if (qs.ok()) {
          ++ok;
        } else {
          ++failed;
        }
      }
      client.close();
      std::lock_guard<std::mutex> lock(mu);
      agg.query_lat_ms.insert(agg.query_lat_ms.end(), lats.begin(), lats.end());
      agg.queries_ok += ok;
      agg.queries_failed += failed;
    });
  }
  for (auto& t : threads) t.join();
  agg.wall_s = wall.seconds();
  agg.server = srv.stats();
  srv.stop();
  if (srv.open_connections() != 0) {
    std::fprintf(stderr, "bench_server: leaked connections after stop()\n");
    std::exit(1);
  }

  for (const std::string& seg : list_wal_segments(dir)) {
    agg.wal_bytes += std::filesystem::file_size(seg, ec);
  }

  // The simulated kill: remember what the last published epoch looked
  // like, drop everything without a checkpoint, and recover from disk.
  const std::uint64_t epoch = d->engine().epoch();
  const std::uint64_t dig = graph_digest(d->engine().snapshot()->graph);
  d.reset();
  std::unique_ptr<Durability> rec;
  if (Status s = Durability::open(g, dp, opt, &rec); !s.ok()) {
    std::fprintf(stderr, "bench_server: recovery open: %s\n",
                 s.to_string().c_str());
    std::exit(1);
  }
  agg.recovery_ms = rec->recovery().recovery_ms;
  agg.recovery_fold_ms = rec->recovery().fold_ms;
  agg.recovery_build_ms = rec->recovery().build_ms;
  agg.recovered_replayed = rec->recovery().replayed;
  agg.checkpoint_loaded = rec->recovery().checkpoint_loaded ? 1 : 0;
  agg.digest_match = (rec->engine().epoch() == epoch &&
                      graph_digest(rec->engine().snapshot()->graph) == dig)
                         ? 1
                         : 0;
  rec.reset();
  std::filesystem::remove_all(dir, ec);
  if (agg.digest_match == 0) {
    std::fprintf(stderr,
                 "bench_server: recovered state does not match the pre-kill "
                 "snapshot (epoch %llu)\n",
                 static_cast<unsigned long long>(epoch));
    std::exit(1);
  }
  return agg;
}

/// Per-reopening recovery times of one WAL tail.
struct RecoveryTailStats {
  std::vector<double> recovery_ms, fold_ms, build_ms;
};

/// Recovery time against WAL tail length, faults off, no checkpoint. The
/// tail is written straight through WalWriter — 3-edge insert batches
/// shaped like the update stream's — so the sweep times recovery alone,
/// not the update path that would have produced the log; the directory is
/// then reopened `reopenings` times. Recovery folds the tail and builds
/// the engine once, so recovery_ms should stay flat as the tail grows.
/// Every reopening must fold the whole tail into the base graph with the
/// same deltas applied in order (exit 1 otherwise).
RecoveryTailStats run_recovery_tail(const Graph& g, double eps,
                                    std::uint64_t seed, std::uint64_t tail,
                                    int reopenings) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir =
      std::string(tmp && *tmp ? tmp : "/tmp") + "/parsh_bench_recovery";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);

  DurabilityOptions opt;
  opt.dir = dir;
  opt.wal.fsync = FsyncPolicy::kOff;
  Graph expect = g;
  {
    WalWriter w;
    Status s = w.open(dir, 1, opt.wal);
    Rng rng(Rng(seed).split(0x7a11));
    std::uint64_t k = 0;
    for (std::uint64_t e = 1; s.ok() && e <= tail; ++e) {
      WalRecord rec;
      rec.epoch = e;
      rec.client_id = 1;
      rec.sequence = e;
      rec.result.epoch = e;
      for (int i = 0; i < 3; ++i) {
        Edge edge;
        edge.u = static_cast<vid>(rng.uniform_int(k++, g.num_vertices()));
        edge.v = static_cast<vid>(rng.uniform_int(k++, g.num_vertices()));
        edge.w = static_cast<weight_t>(1 + rng.uniform_int(k++, 8));
        if (edge.u != edge.v) rec.delta.insert.push_back(edge);
      }
      expect = expect.apply_delta(rec.delta).graph;
      s = w.append(rec);
    }
    if (!s.ok()) {
      std::fprintf(stderr, "bench_server: recovery tail write: %s\n",
                   s.to_string().c_str());
      std::exit(1);
    }
  }

  DynamicApproxShortestPaths::Params dp;
  dp.epsilon = eps;
  dp.hopset.hopset.seed = seed;
  const std::uint64_t want = graph_digest(expect);
  RecoveryTailStats stats;
  for (int r = 0; r < reopenings; ++r) {
    std::unique_ptr<Durability> rec;
    if (Status s = Durability::open(g, dp, opt, &rec); !s.ok()) {
      std::fprintf(stderr, "bench_server: recovery open: %s\n",
                   s.to_string().c_str());
      std::exit(1);
    }
    const RecoveryReport& report = rec->recovery();
    if (report.replayed != tail || rec->engine().epoch() != tail ||
        graph_digest(rec->engine().snapshot()->graph) != want) {
      std::fprintf(stderr,
                   "bench_server: recovering a %llu-record tail did not reach "
                   "the folded graph\n",
                   static_cast<unsigned long long>(tail));
      std::exit(1);
    }
    stats.recovery_ms.push_back(report.recovery_ms);
    stats.fold_ms.push_back(report.fold_ms);
    stats.build_ms.push_back(report.build_ms);
  }
  std::filesystem::remove_all(dir, ec);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parsh::bench;
  Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0);
  const vid n = scaled_n(static_cast<vid>(cli.get_int("n", 2000)), scale);
  const double eps = cli.get_double("eps", 0.25);
  const std::uint64_t seed = cli.get_seed("seed", 1);
  const std::string wl = cli.get("workload", "er");
  const bool faults = cli.get_bool("faults", false);
  LevelConfig lc;
  lc.duration_s = cli.get_double("duration", 1.0);
  lc.clients = static_cast<int>(cli.get_int("clients", 8));
  lc.deadline_ms = static_cast<std::uint32_t>(cli.get_int("deadline_ms", 25));
  lc.pairs_per_request = static_cast<int>(cli.get_int("pairs", 16));
  lc.seed = seed;
  const int updaters = static_cast<int>(cli.get_int("updaters", 2));
  const std::uint64_t checkpoint_every =
      static_cast<std::uint64_t>(cli.get_int("checkpoint_every", 32));

  Graph g = with_uniform_weights(workload(wl, n, seed), 1, 8, seed + 9);
  print_header("SERVER: open-loop saturation of the hardened query service", g,
               wl.c_str());

  ApproxShortestPaths::Params p;
  p.epsilon = eps;
  p.hopset.hopset.seed = seed;
  Timer prep;
  const ApproxShortestPaths engine(g, p);
  std::printf("preprocessing: %.2fs, %zu scales\n", prep.seconds(),
              engine.num_scales());

  // Warm per-query cost: the admission estimator's seed and the basis
  // for the offered-load sweep.
  SsspWorkspace ws;
  std::vector<ApproxShortestPaths::QueryPair> probe;
  Rng prng(seed ^ 0x9a9aULL);
  for (int i = 0; i < 32; ++i) {
    probe.push_back({static_cast<vid>(prng.uniform_int(2 * i, n)),
                     static_cast<vid>(prng.uniform_int(2 * i + 1, n))});
  }
  (void)engine.query_batch(probe, ws);  // cold: buffers warm up
  Timer twarm;
  (void)engine.query_batch(probe, ws);
  const double warm_ms = twarm.millis() / static_cast<double>(probe.size());
  const double capacity_rps =
      1e3 / std::max(warm_ms * lc.pairs_per_request, 1e-3);
  std::printf("warm query cost: %.4f ms/query => ~%.0f requests/s capacity at "
              "%d pairs/request\n\n",
              warm_ms, capacity_rps, lc.pairs_per_request);

  JsonReport report("server");
  Table table({"offered", "req/s in", "ok/s", "p50 ms", "p99 ms", "shed",
               "deadline", "degraded", "retries", "faults"});
  const std::pair<const char*, double> levels[] = {
      {"0.25x", 0.25}, {"0.5x", 0.5}, {"1x", 1.0}, {"2x", 2.0}, {"4x", 4.0}};
  for (const auto& [label, factor] : levels) {
    lc.offered_qps = std::max(capacity_rps * factor, 4.0);
    const LevelStats ls = run_level(g, engine, warm_ms, faults, lc);
    const double p50 = percentile(ls.latency_ms, 50);
    const double p99 = percentile(ls.latency_ms, 99);
    const double ok_rps = ls.wall_s > 0 ? ls.ok / ls.wall_s : 0;
    const std::uint64_t sent = ls.ok + ls.failed;
    const double in_rps = ls.wall_s > 0 ? sent / ls.wall_s : 0;
    const double shed_rate =
        sent > 0 ? static_cast<double>(ls.server.requests_shed) /
                       static_cast<double>(sent)
                 : 0;
    table.row()
        .cell(label)
        .cell(in_rps, 0)
        .cell(ok_rps, 0)
        .cell(p50, 2)
        .cell(p99, 2)
        .cell(static_cast<std::size_t>(ls.server.requests_shed))
        .cell(static_cast<std::size_t>(ls.server.queries_deadline_exceeded))
        .cell(static_cast<std::size_t>(ls.server.queries_degraded))
        .cell(static_cast<std::size_t>(ls.retries))
        .cell(static_cast<std::size_t>(ls.server.faults_injected));
    add_env_fields(report.row())
        .field("workload", wl)
        .field("level", label)
        .field("n", static_cast<std::uint64_t>(n))
        .field("m", static_cast<std::uint64_t>(g.num_edges()))
        .field("eps", eps)
        .field("pairs", static_cast<std::uint64_t>(lc.pairs_per_request))
        .field("deadline_ms_budget", static_cast<std::uint64_t>(lc.deadline_ms))
        .field("faults_enabled", faults ? "true" : "false")
        .field("offered_rps", lc.offered_qps)
        .field("realized_in_rps", in_rps)
        .field("achieved_ok_rps", ok_rps)
        .field("p50_ms", p50)
        .field("p99_ms", p99)
        .field("requests_sent", sent)
        .field("requests_ok", ls.ok)
        .field("requests_failed", ls.failed)
        .field("shed", ls.server.requests_shed)
        .field("shed_rate", shed_rate)
        .field("deadline_exceeded", ls.server.queries_deadline_exceeded)
        .field("degraded", ls.server.queries_degraded)
        .field("client_retries", ls.retries)
        .field("client_reconnects", ls.reconnects)
        .field("faults_injected", ls.server.faults_injected);
  }
  table.print("offered load sweep, deadline=" + std::to_string(lc.deadline_ms) +
              "ms, " + std::to_string(lc.pairs_per_request) + " pairs/request");
  std::printf("\nReading guide: past the 1x knee the queue must NOT grow without\n"
              "bound — shed/deadline/degraded counters absorb the overload and the\n"
              "p99 column stays within the deadline + retry-backoff envelope.\n");

  // Durable update stream: interleaved writes/reads against the dynamic
  // engine with a WAL underneath, then a simulated kill + recovery.
  const UpdateStreamStats us =
      run_update_stream(g, eps, warm_ms, faults, lc, updaters, checkpoint_every,
                        capacity_rps * 0.5);
  const double up_rps = us.wall_s > 0 ? us.updates_ok / us.wall_s : 0;
  Table utable({"updates/s", "upd p50 ms", "upd p99 ms", "qry p99 ms",
                "wal KiB", "fsyncs", "ckpts", "recover ms", "fold ms",
                "build ms", "replayed"});
  utable.row()
      .cell(up_rps, 1)
      .cell(percentile(us.update_lat_ms, 50), 2)
      .cell(percentile(us.update_lat_ms, 99), 2)
      .cell(percentile(us.query_lat_ms, 99), 2)
      .cell(static_cast<double>(us.wal_bytes) / 1024.0, 1)
      .cell(static_cast<std::size_t>(us.server.wal_fsyncs))
      .cell(static_cast<std::size_t>(us.server.checkpoints_written))
      .cell(us.recovery_ms, 1)
      .cell(us.recovery_fold_ms, 1)
      .cell(us.recovery_build_ms, 1)
      .cell(static_cast<std::size_t>(us.recovered_replayed));
  utable.print("durable update stream (" + std::to_string(updaters) +
               " updaters, fsync every batch, checkpoint every " +
               std::to_string(checkpoint_every) +
               "), then kill + recovery; digests match");
  add_env_fields(report.row())
      .field("workload", wl)
      .field("level", "update-stream")
      .field("n", static_cast<std::uint64_t>(n))
      .field("m", static_cast<std::uint64_t>(g.num_edges()))
      .field("eps", eps)
      .field("pairs", static_cast<std::uint64_t>(lc.pairs_per_request))
      .field("updaters", static_cast<std::uint64_t>(updaters))
      .field("checkpoint_every", checkpoint_every)
      .field("faults_enabled", faults ? "true" : "false")
      .field("realized_update_rps", up_rps)
      .field("update_p50_ms", percentile(us.update_lat_ms, 50))
      .field("update_p99_ms", percentile(us.update_lat_ms, 99))
      .field("interleaved_query_p99_ms", percentile(us.query_lat_ms, 99))
      .field("updates_ok", us.updates_ok)
      .field("updates_failed", us.updates_failed)
      .field("update_retries", us.retries)
      .field("queries_ok", us.queries_ok)
      .field("updates_applied", us.server.updates_applied)
      .field("updates_deduped", us.server.updates_deduped)
      .field("wal_records", us.server.wal_records)
      .field("wal_fsyncs", us.server.wal_fsyncs)
      .field("wal_bytes", us.wal_bytes)
      .field("checkpoints_written", us.server.checkpoints_written)
      .field("recovery_ms", us.recovery_ms)
      .field("recovery_fold_ms", us.recovery_fold_ms)
      .field("recovery_build_ms", us.recovery_build_ms)
      .field("recovered_replayed", us.recovered_replayed)
      .field("recovery_checkpoint_loaded", us.checkpoint_loaded)
      .field("recovery_digest_match", us.digest_match);

  // Recovery sweep: the same kill + reopen against ever longer WAL tails,
  // medians over a few reopenings with the min/max spread.
  constexpr int kReopenings = 5;
  Table rtable({"tail records", "recover ms", "min", "max", "fold ms",
                "build ms"});
  for (const std::uint64_t tail : {8, 64, 256}) {
    const RecoveryTailStats rt =
        run_recovery_tail(g, eps, seed, tail, kReopenings);
    const auto [lo, hi] =
        std::minmax_element(rt.recovery_ms.begin(), rt.recovery_ms.end());
    const double rec_ms = percentile(rt.recovery_ms, 50);
    const double fold_ms = percentile(rt.fold_ms, 50);
    const double build_ms = percentile(rt.build_ms, 50);
    rtable.row()
        .cell(static_cast<std::size_t>(tail))
        .cell(rec_ms, 1)
        .cell(*lo, 1)
        .cell(*hi, 1)
        .cell(fold_ms, 1)
        .cell(build_ms, 1);
    add_env_fields(report.row())
        .field("workload", wl)
        .field("level", "recovery-" + std::to_string(tail))
        .field("n", static_cast<std::uint64_t>(n))
        .field("m", static_cast<std::uint64_t>(g.num_edges()))
        .field("eps", eps)
        .field("faults_enabled", "false")
        .field("tail_records", tail)
        .field("reopenings", kReopenings)
        .field("recovery_ms", rec_ms)
        .field("recovery_ms_min", *lo)
        .field("recovery_ms_max", *hi)
        .field("recovery_fold_ms", fold_ms)
        .field("recovery_build_ms", build_ms);
  }
  rtable.print("recovery vs WAL tail length (faults off, no checkpoint): "
               "fold the tail, build the hopset once");

  const std::string path = report.save();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  return 0;
}
