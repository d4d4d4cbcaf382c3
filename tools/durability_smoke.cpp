// durability_smoke — the crash-recovery differential harness as a
// standalone process pair, so CI can use a REAL kill -9 instead of an
// in-process fault seam.
//
//   durability_smoke --serve   --dir state/ --seed 42 --updates 400
//   (kill -9 it mid-stream)
//   durability_smoke --recover --dir state/ --seed 42
//
// Both modes derive the SAME deterministic update stream from --seed
// (--n, --updates must match too). --serve opens a durable engine on
// --dir and applies the stream one batch at a time, printing an
// `applied <seq> epoch <epoch>` line per acknowledged batch; whatever
// instant the kill lands — between batches, inside a WAL append, inside
// a checkpoint — is the crash image --recover starts from.
//
// --recover opens the directory (checkpoint load + WAL tail fold, one
// engine build; it prints the fold/build split of the recovery time), reads
// the recovered epoch E, then builds an uninterrupted twin IN PROCESS by
// applying the first E batches of the same stream to a fresh durable
// engine in a scratch directory, and compares:
//   * graph digests of the published snapshots,
//   * distance digests over a fixed deterministic query set,
//   * the per-client exactly-once tables (sequence + stored verdict).
// Any mismatch prints the differing digests and exits 1; the CI lane
// fails. Exit 0 means the recovered server is bit-identical to one that
// never crashed.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "random/rng.hpp"
#include "server/checkpoint.hpp"
#include "util/cli.hpp"

namespace {

using namespace parsh;
using namespace parsh::server;

struct StreamConfig {
  std::uint64_t seed = 42;
  vid n = 200;
  std::uint64_t updates = 400;
  std::uint64_t checkpoint_every = 32;
  double sleep_ms = 0;
};

Graph base_graph(const StreamConfig& sc) {
  return with_uniform_weights(
      make_random_graph(sc.n, static_cast<eid>(sc.n) * 3, sc.seed), 1, 16,
      sc.seed + 1);
}

std::uint64_t stream_client_id(const StreamConfig& sc) {
  return Rng(sc.seed).split(0x1d).bits(0) | 1;
}

/// Batch `seq` (1-based) of the stream: a few inserts and an occasional
/// remove, all a pure function of (seed, seq).
void make_batch(const StreamConfig& sc, std::uint64_t seq, UpdateRequest* req) {
  Rng rng = Rng(sc.seed).split(0x600d).split(seq);
  req->client_id = stream_client_id(sc);
  req->sequence = seq;
  req->insert.clear();
  req->remove.clear();
  std::uint64_t d = 0;
  for (int i = 0; i < 3; ++i) {
    Edge e;
    e.u = static_cast<vid>(rng.uniform_int(d++, sc.n));
    e.v = static_cast<vid>(rng.uniform_int(d++, sc.n));
    e.w = static_cast<weight_t>(1 + rng.uniform_int(d++, 16));
    if (e.u != e.v) req->insert.push_back(e);
  }
  if (seq % 4 == 0) {
    // Remove an edge a previous batch plausibly inserted (removing a
    // non-edge is a recorded noop — still deterministic).
    Rng old = Rng(sc.seed).split(0x600d).split(1 + (seq / 2) % seq);
    Edge e;
    e.u = static_cast<vid>(old.uniform_int(0, sc.n));
    e.v = static_cast<vid>(old.uniform_int(1, sc.n));
    if (e.u != e.v) req->remove.push_back(e);
  }
}

Status open_durable(const StreamConfig& sc, const std::string& dir,
                    std::unique_ptr<Durability>* out) {
  DynamicApproxShortestPaths::Params params;
  params.epsilon = 0.5;
  params.hopset.k_hops = 12;
  DurabilityOptions opt;
  opt.dir = dir;
  opt.checkpoint_every = sc.checkpoint_every;
  opt.wal.fsync = FsyncPolicy::kEveryBatch;
  return Durability::open(base_graph(sc), params, opt, out);
}

/// Fold a fixed query set's distance estimates into one u64.
std::uint64_t query_digest(Durability& d, const StreamConfig& sc) {
  auto snap = d.engine().snapshot();
  std::uint64_t h = kFnv64Offset;
  Rng rng = Rng(sc.seed).split(0xd16e57);
  for (std::uint64_t i = 0; i < 6; ++i) {
    const vid s = static_cast<vid>(rng.uniform_int(2 * i, sc.n));
    const vid t = static_cast<vid>(rng.uniform_int(2 * i + 1, sc.n));
    const auto r = snap->engine.query(s, t);
    h = fnv1a_f64(h, r.estimate);
  }
  return h;
}

std::uint64_t table_digest(const ClientTable& t) {
  std::uint64_t h = kFnv64Offset;
  for (const auto& [client, entry] : t) {
    h = fnv1a_u64(h, client);
    h = fnv1a_u64(h, entry.sequence);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(entry.result.status));
    h = fnv1a_u64(h, entry.result.epoch);
    h = fnv1a_u64(h, entry.result.inserted);
    h = fnv1a_u64(h, entry.result.removed);
    h = fnv1a_u64(h, entry.result.noops);
  }
  return h;
}

int serve(const StreamConfig& sc, const std::string& dir) {
  std::unique_ptr<Durability> d;
  if (Status s = open_durable(sc, dir, &d); !s.ok()) {
    std::fprintf(stderr, "serve: open: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("serving from epoch %" PRIu64 " (replayed %" PRIu64 ")\n",
              d->engine().epoch(), d->recovery().replayed);
  std::fflush(stdout);
  UpdateRequest req;
  for (std::uint64_t seq = 1; seq <= sc.updates; ++seq) {
    make_batch(sc, seq, &req);
    UpdateResponse resp;
    d->handle_update(req, &resp);
    if (resp.status != StatusCode::kOk) {
      std::fprintf(stderr, "serve: batch %" PRIu64 " failed: %u\n", seq,
                   static_cast<unsigned>(resp.status));
      return 1;
    }
    std::printf("applied %" PRIu64 " epoch %" PRIu64 "%s\n", seq, resp.epoch,
                (resp.flags & kUpdateFlagDuplicate) ? " (duplicate)" : "");
    std::fflush(stdout);
    if (sc.sleep_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sc.sleep_ms));
    }
  }
  std::printf("serve done: epoch %" PRIu64 "\n", d->engine().epoch());
  return 0;
}

int recover(const StreamConfig& sc, const std::string& dir) {
  std::unique_ptr<Durability> d;
  if (Status s = open_durable(sc, dir, &d); !s.ok()) {
    std::fprintf(stderr, "recover: open: %s\n", s.to_string().c_str());
    return 1;
  }
  const RecoveryReport& rep = d->recovery();
  const std::uint64_t epoch = d->engine().epoch();
  std::printf("recovered: epoch %" PRIu64 " ckpt %s@%" PRIu64
              " replayed %" PRIu64 " skipped %" PRIu64 " torn %" PRIu64
              "B rejected %" PRIu64 " in %.1f ms (fold %.1f ms, build %.1f ms)\n",
              epoch, rep.checkpoint_loaded ? "yes" : "no", rep.checkpoint_epoch,
              rep.replayed, rep.skipped, rep.torn_bytes, rep.rejected_checkpoints,
              rep.recovery_ms, rep.fold_ms, rep.build_ms);

  // The uninterrupted twin: same stream, first `epoch` batches, no crash.
  const std::string twin_dir = dir + ".twin";
  std::error_code ec;
  std::filesystem::remove_all(twin_dir, ec);
  std::unique_ptr<Durability> twin;
  if (Status s = open_durable(sc, twin_dir, &twin); !s.ok()) {
    std::fprintf(stderr, "recover: twin open: %s\n", s.to_string().c_str());
    return 1;
  }
  UpdateRequest req;
  for (std::uint64_t seq = 1; seq <= epoch; ++seq) {
    make_batch(sc, seq, &req);
    UpdateResponse resp;
    twin->handle_update(req, &resp);
    if (resp.status != StatusCode::kOk) {
      std::fprintf(stderr, "recover: twin batch %" PRIu64 " failed\n", seq);
      return 1;
    }
  }

  int bad = 0;
  const std::uint64_t g1 = graph_digest(d->engine().snapshot()->graph);
  const std::uint64_t g2 = graph_digest(twin->engine().snapshot()->graph);
  if (g1 != g2) {
    std::fprintf(stderr, "FAIL graph digest %016" PRIx64 " != %016" PRIx64 "\n",
                 g1, g2);
    ++bad;
  }
  const std::uint64_t q1 = query_digest(*d, sc);
  const std::uint64_t q2 = query_digest(*twin, sc);
  if (q1 != q2) {
    std::fprintf(stderr, "FAIL query digest %016" PRIx64 " != %016" PRIx64 "\n",
                 q1, q2);
    ++bad;
  }
  const std::uint64_t t1 = table_digest(d->client_table());
  const std::uint64_t t2 = table_digest(twin->client_table());
  if (t1 != t2) {
    std::fprintf(stderr, "FAIL client table %016" PRIx64 " != %016" PRIx64 "\n",
                 t1, t2);
    ++bad;
  }

  // A duplicate of the newest applied batch must replay, not re-apply.
  if (epoch > 0) {
    make_batch(sc, epoch, &req);
    UpdateResponse resp;
    d->handle_update(req, &resp);
    if (resp.status != StatusCode::kOk ||
        (resp.flags & kUpdateFlagDuplicate) == 0 ||
        d->engine().epoch() != epoch) {
      std::fprintf(stderr, "FAIL duplicate of batch %" PRIu64
                           " was not answered from the table\n",
                   epoch);
      ++bad;
    }
  }

  std::filesystem::remove_all(twin_dir, ec);
  if (bad != 0) return 1;
  std::printf("recover OK: graph %016" PRIx64 " queries %016" PRIx64
              " table %016" PRIx64 " match uninterrupted twin\n",
              g1, q1, t1);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  try {
    StreamConfig sc;
    sc.seed = cli.get_seed("seed", 42);
    sc.n = static_cast<vid>(cli.get_int("n", 200));
    sc.updates = static_cast<std::uint64_t>(cli.get_int("updates", 400));
    sc.checkpoint_every =
        static_cast<std::uint64_t>(cli.get_int("checkpoint-every", 32));
    sc.sleep_ms = cli.get_double("sleep-ms", 0);
    const std::string dir = cli.get("dir", "");
    const bool serve_mode = cli.get_bool("serve", false);
    const bool recover_mode = cli.get_bool("recover", false);
    if (dir.empty() || serve_mode == recover_mode) {
      std::fprintf(stderr,
                   "usage: durability_smoke --serve   --dir D [--seed S] [--n N]"
                   " [--updates U] [--checkpoint-every C] [--sleep-ms MS]\n"
                   "       durability_smoke --recover --dir D [same stream flags]\n");
      return 2;
    }
    return serve_mode ? serve(sc, dir) : recover(sc, dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "durability_smoke: %s\n", e.what());
    return 2;
  }
}
