// Tests for the durability subsystem: WAL codec and torn-tail semantics,
// checkpoint manifest integrity, atomic checkpoint publication (crash at
// every seam), exactly-once dedup, and the crash-recovery differential
// harness — a recovered engine must be bit-identical (graph digest, query
// digests, client table) to a twin that applied the same acked batches
// and never crashed.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "random/rng.hpp"
#include "server/checkpoint.hpp"
#include "server/fault_injector.hpp"
#include "server/wal.hpp"
#include "sssp/dynamic_approx.hpp"

namespace parsh::server {
namespace {

// ---- fixtures ---------------------------------------------------------------

std::string temp_dir(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir =
      std::string(tmp && *tmp ? tmp : "/tmp") + "/parsh_durability_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

Graph base_graph() {
  return with_uniform_weights(ensure_connected(make_random_graph(100, 300, 11)),
                              1, 9, 42);
}

DynamicApproxShortestPaths::Params dyn_params() {
  DynamicApproxShortestPaths::Params p;
  p.epsilon = 0.5;
  p.hopset.k_hops = 12;
  return p;
}

DurabilityOptions dur_options(const std::string& dir) {
  DurabilityOptions opt;
  opt.dir = dir;
  opt.wal.fsync = FsyncPolicy::kOff;  // tests exercise policy separately
  return opt;
}

WalRecord make_record(std::uint64_t epoch, std::uint64_t client,
                      std::uint64_t seq) {
  WalRecord rec;
  rec.epoch = epoch;
  rec.client_id = client;
  rec.sequence = seq;
  rec.result.status = StatusCode::kOk;
  rec.result.epoch = epoch;
  rec.result.rebuild_ms = 1.5 * static_cast<double>(epoch);
  rec.result.dirty_scales = 2;
  rec.result.total_scales = 5;
  rec.result.dirty_clusters = 7;
  rec.result.total_clusters = 30;
  rec.result.inserted = 1 + epoch % 3;
  rec.result.noops = epoch % 2;
  rec.delta.insert.push_back({static_cast<vid>(epoch % 50),
                              static_cast<vid>(50 + epoch % 50),
                              1.0 + static_cast<double>(epoch)});
  if (epoch % 2 == 0) {
    rec.delta.remove.push_back({3, 4, 1.0});
  }
  return rec;
}

/// Deterministic update batch `seq` against a 100-vertex graph.
UpdateRequest make_batch(std::uint64_t seed, std::uint64_t seq,
                         std::uint64_t client) {
  Rng rng = Rng(seed).split(0xba7c).split(seq);
  UpdateRequest req;
  req.client_id = client;
  req.sequence = seq;
  std::uint64_t d = 0;
  for (int i = 0; i < 3; ++i) {
    Edge e;
    e.u = static_cast<vid>(rng.uniform_int(d++, 100));
    e.v = static_cast<vid>(rng.uniform_int(d++, 100));
    e.w = static_cast<weight_t>(1 + rng.uniform_int(d++, 9));
    if (e.u != e.v) req.insert.push_back(e);
  }
  return req;
}

GraphDelta to_delta(const UpdateRequest& req) {
  GraphDelta delta;
  delta.insert = req.insert;
  delta.remove = req.remove;
  return delta;
}

/// Digest of six fixed queries against the engine's current snapshot.
std::uint64_t query_digest(Durability& d) {
  auto snap = d.engine().snapshot();
  std::uint64_t h = kFnv64Offset;
  Rng rng(0xd16e57);
  for (std::uint64_t i = 0; i < 6; ++i) {
    const vid s = static_cast<vid>(rng.uniform_int(2 * i, 100));
    const vid t = static_cast<vid>(rng.uniform_int(2 * i + 1, 100));
    h = fnv1a_f64(h, snap->engine.query(s, t).estimate);
  }
  return h;
}

void expect_tables_equal(const ClientTable& a, const ClientTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [client, ea] : a) {
    auto it = b.find(client);
    ASSERT_NE(it, b.end()) << "client " << client << " missing";
    const ClientEntry& eb = it->second;
    EXPECT_EQ(ea.sequence, eb.sequence);
    EXPECT_EQ(ea.result.status, eb.result.status);
    EXPECT_EQ(ea.result.epoch, eb.result.epoch);
    EXPECT_EQ(ea.result.inserted, eb.result.inserted);
    EXPECT_EQ(ea.result.removed, eb.result.removed);
    EXPECT_EQ(ea.result.reweighted, eb.result.reweighted);
    EXPECT_EQ(ea.result.noops, eb.result.noops);
    EXPECT_EQ(ea.result.dirty_scales, eb.result.dirty_scales);
  }
}

// ---- WAL codec --------------------------------------------------------------

TEST(WalCodec, RecordRoundTripsExactly) {
  const WalRecord rec = make_record(7, 0xfeedface, 12);
  std::vector<std::uint8_t> bytes;
  encode_wal_record(bytes, rec);

  WalRecord got;
  ASSERT_TRUE(decode_wal_record(bytes.data(), bytes.size(), &got).ok());
  EXPECT_EQ(got.epoch, rec.epoch);
  EXPECT_EQ(got.client_id, rec.client_id);
  EXPECT_EQ(got.sequence, rec.sequence);
  EXPECT_EQ(got.result.status, rec.result.status);
  EXPECT_EQ(got.result.epoch, rec.result.epoch);
  EXPECT_DOUBLE_EQ(got.result.rebuild_ms, rec.result.rebuild_ms);
  EXPECT_EQ(got.result.dirty_scales, rec.result.dirty_scales);
  EXPECT_EQ(got.result.total_clusters, rec.result.total_clusters);
  EXPECT_EQ(got.result.inserted, rec.result.inserted);
  EXPECT_EQ(got.result.noops, rec.result.noops);
  EXPECT_EQ(got.result.id, 0u);  // frame id is never persisted
  ASSERT_EQ(got.delta.insert.size(), rec.delta.insert.size());
  EXPECT_EQ(got.delta.insert[0].u, rec.delta.insert[0].u);
  EXPECT_EQ(got.delta.insert[0].v, rec.delta.insert[0].v);
  EXPECT_DOUBLE_EQ(got.delta.insert[0].w, rec.delta.insert[0].w);
  ASSERT_EQ(got.delta.remove.size(), rec.delta.remove.size());

  // Truncation at every boundary is a typed decode failure, never a read
  // past the buffer.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_wal_record(bytes.data(), cut, &got).ok()) << cut;
  }
  // Trailing garbage is corruption, not slack.
  bytes.push_back(0);
  EXPECT_FALSE(decode_wal_record(bytes.data(), bytes.size(), &got).ok());
}

TEST(WalCodec, SegmentNamesRoundTripAndRejectImpostors) {
  const std::string name = wal_segment_name(0xabcdef0123456789ULL);
  std::uint64_t epoch = 0;
  ASSERT_TRUE(parse_wal_segment_name(name, &epoch));
  EXPECT_EQ(epoch, 0xabcdef0123456789ULL);
  EXPECT_FALSE(parse_wal_segment_name("wal-xyz.log", &epoch));
  EXPECT_FALSE(parse_wal_segment_name("wal-0000000000000001.txt", &epoch));
  EXPECT_FALSE(parse_wal_segment_name("wal-001.log", &epoch));
  EXPECT_FALSE(parse_wal_segment_name("ckpt-0000000000000001.pcsr", &epoch));
}

// ---- writer + scanner -------------------------------------------------------

TEST(WalWriter, AppendScanRoundTripAcrossFsyncPolicies) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kEveryBatch, FsyncPolicy::kEveryN, FsyncPolicy::kOff}) {
    const std::string dir =
        temp_dir(std::string("writer_") + fsync_policy_name(policy));
    std::filesystem::create_directories(dir);
    WalOptions opt;
    opt.fsync = policy;
    opt.fsync_every_n = 3;
    WalWriter w;
    ASSERT_TRUE(w.open(dir, 1, opt).ok());
    for (std::uint64_t e = 1; e <= 7; ++e) {
      ASSERT_TRUE(w.append(make_record(e, 9, e)).ok());
    }
    ASSERT_TRUE(w.sync().ok());
    if (policy == FsyncPolicy::kEveryBatch) {
      EXPECT_GE(w.fsyncs(), 7u);
    } else if (policy == FsyncPolicy::kEveryN) {
      // ceil(7/3) policy syncs plus the explicit one.
      EXPECT_GE(w.fsyncs(), 3u);
      EXPECT_LT(w.fsyncs(), 7u);
    }
    w.close();

    WalScan scan;
    ASSERT_TRUE(scan_wal_segment(dir + "/" + wal_segment_name(1), &scan).ok());
    EXPECT_FALSE(scan.torn);
    EXPECT_EQ(scan.first_epoch, 1u);
    ASSERT_EQ(scan.records.size(), 7u);
    for (std::uint64_t e = 1; e <= 7; ++e) {
      EXPECT_EQ(scan.records[e - 1].epoch, e);
      EXPECT_EQ(scan.records[e - 1].sequence, e);
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(WalWriter, RotateSealsAndStartsFreshSegment) {
  const std::string dir = temp_dir("rotate");
  std::filesystem::create_directories(dir);
  WalWriter w;
  ASSERT_TRUE(w.open(dir, 1, WalOptions{FsyncPolicy::kOff, 8}).ok());
  ASSERT_TRUE(w.append(make_record(1, 9, 1)).ok());
  ASSERT_TRUE(w.append(make_record(2, 9, 2)).ok());
  ASSERT_TRUE(w.rotate(3).ok());
  ASSERT_TRUE(w.append(make_record(3, 9, 3)).ok());
  w.close();

  const auto segs = list_wal_segments(dir);
  ASSERT_EQ(segs.size(), 2u);
  WalScan s1, s2;
  ASSERT_TRUE(scan_wal_segment(segs[0], &s1).ok());
  ASSERT_TRUE(scan_wal_segment(segs[1], &s2).ok());
  EXPECT_EQ(s1.first_epoch, 1u);
  EXPECT_EQ(s1.records.size(), 2u);
  EXPECT_EQ(s2.first_epoch, 3u);
  EXPECT_EQ(s2.records.size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(WalScanner, TornTailIsDetectedAtEveryCutAndTruncatesClean) {
  const std::string dir = temp_dir("torn");
  std::filesystem::create_directories(dir);
  WalWriter w;
  ASSERT_TRUE(w.open(dir, 1, WalOptions{FsyncPolicy::kOff, 8}).ok());
  ASSERT_TRUE(w.append(make_record(1, 9, 1)).ok());
  const std::uint64_t one_record = w.bytes_appended();
  ASSERT_TRUE(w.append(make_record(2, 9, 2)).ok());
  w.close();
  const std::string path = dir + "/" + wal_segment_name(1);
  const auto full = std::filesystem::file_size(path);
  const std::uint64_t first_end = kWalSegmentHeaderBytes + one_record;

  // Cut the file anywhere strictly inside record 2: the scan must keep
  // exactly record 1 and report the tail torn.
  for (std::uint64_t cut = first_end + 1; cut < full; cut += 7) {
    ASSERT_TRUE(truncate_wal_segment(path, cut).ok());
    WalScan scan;
    ASSERT_TRUE(scan_wal_segment(path, &scan).ok());
    EXPECT_TRUE(scan.torn) << "cut at " << cut;
    EXPECT_EQ(scan.valid_bytes, first_end);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].epoch, 1u);

    // Recovery's fix: truncate to the valid prefix; rescans clean.
    ASSERT_TRUE(truncate_wal_segment(path, scan.valid_bytes).ok());
    WalScan clean;
    ASSERT_TRUE(scan_wal_segment(path, &clean).ok());
    EXPECT_FALSE(clean.torn);
    ASSERT_EQ(clean.records.size(), 1u);

    // Restore record 2 for the next cut by re-appending it.
    WalWriter w2;
    ASSERT_TRUE(w2.open(dir, 1, WalOptions{FsyncPolicy::kOff, 8}).ok());
    ASSERT_TRUE(w2.append(make_record(2, 9, 2)).ok());
    w2.close();
  }
  std::filesystem::remove_all(dir);
}

TEST(WalScanner, MidFileCorruptionStopsTheScanThere) {
  const std::string dir = temp_dir("midfile");
  std::filesystem::create_directories(dir);
  WalWriter w;
  ASSERT_TRUE(w.open(dir, 1, WalOptions{FsyncPolicy::kOff, 8}).ok());
  ASSERT_TRUE(w.append(make_record(1, 9, 1)).ok());
  const std::uint64_t one_record = w.bytes_appended();
  ASSERT_TRUE(w.append(make_record(2, 9, 2)).ok());
  ASSERT_TRUE(w.append(make_record(3, 9, 3)).ok());
  w.close();
  const std::string path = dir + "/" + wal_segment_name(1);

  // Flip one payload byte inside record 2.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long off = static_cast<long>(kWalSegmentHeaderBytes + one_record +
                                       kWalRecordHeaderBytes + 10);
    std::fseek(f, off, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, off, SEEK_SET);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  WalScan scan;
  ASSERT_TRUE(scan_wal_segment(path, &scan).ok());
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.torn_reason, "record checksum mismatch");
  ASSERT_EQ(scan.records.size(), 1u);  // record 3 is unreachable
  EXPECT_EQ(scan.records[0].epoch, 1u);
  std::filesystem::remove_all(dir);
}

TEST(WalScanner, CorruptHeaderIsAnErrorWithZeroValidBytes) {
  const std::string dir = temp_dir("header");
  std::filesystem::create_directories(dir);
  WalWriter w;
  ASSERT_TRUE(w.open(dir, 5, WalOptions{FsyncPolicy::kOff, 8}).ok());
  ASSERT_TRUE(w.append(make_record(5, 9, 1)).ok());
  w.close();
  const std::string path = dir + "/" + wal_segment_name(5);
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    std::fputc('X', f);  // magic byte 0
    std::fclose(f);
  }
  WalScan scan;
  EXPECT_EQ(scan_wal_segment(path, &scan).code, StatusCode::kInvalidArgument);
  EXPECT_EQ(scan.valid_bytes, 0u);
  std::filesystem::remove_all(dir);
}

TEST(WalWriter, InjectedTearFailsTheAppendThenHeals) {
  const std::string dir = temp_dir("tear");
  std::filesystem::create_directories(dir);
  FaultPlan plan;
  plan.wal_append_tear = 1.0;  // first append tears
  FaultInjector injector(3, plan);

  WalWriter w;
  ASSERT_TRUE(w.open(dir, 1, WalOptions{FsyncPolicy::kOff, 8}).ok());
  const Status s = w.append(make_record(1, 9, 1), &injector);
  EXPECT_EQ(s.code, StatusCode::kUnavailable);
  EXPECT_EQ(w.records_appended(), 0u);

  // Without the injector the same record commits — the torn prefix was
  // healed, not appended after.
  ASSERT_TRUE(w.append(make_record(1, 9, 1)).ok());
  w.close();
  WalScan scan;
  ASSERT_TRUE(scan_wal_segment(dir + "/" + wal_segment_name(1), &scan).ok());
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(WalWriter, InjectedFsyncFailureRollsTheRecordBackOut) {
  const std::string dir = temp_dir("fsyncfail");
  std::filesystem::create_directories(dir);
  FaultPlan plan;
  plan.wal_fsync_fail = 1.0;
  FaultInjector injector(3, plan);

  WalWriter w;
  ASSERT_TRUE(w.open(dir, 1, WalOptions{FsyncPolicy::kEveryBatch, 8}).ok());
  EXPECT_EQ(w.append(make_record(1, 9, 1), &injector).code,
            StatusCode::kUnavailable);
  w.close();

  // The un-acknowledged record must NOT be replayable: a crashed client
  // will retry it under the same sequence, and both landing would
  // double-apply.
  WalScan scan;
  ASSERT_TRUE(scan_wal_segment(dir + "/" + wal_segment_name(1), &scan).ok());
  EXPECT_EQ(scan.records.size(), 0u);
  EXPECT_FALSE(scan.torn);
  std::filesystem::remove_all(dir);
}

// ---- checkpoint manifest ----------------------------------------------------

TEST(Checkpoint, ManifestRoundTripsAndDetectsEveryFlippedByte) {
  Manifest m;
  m.epoch = 42;
  m.wal_first_epoch = 43;
  m.table[7] = {3, make_record(40, 7, 3).result};
  m.table[0xfeed] = {9, make_record(42, 0xfeed, 9).result};

  std::vector<std::uint8_t> bytes;
  encode_manifest(bytes, m);
  Manifest got;
  ASSERT_TRUE(decode_manifest(bytes.data(), bytes.size(), &got).ok());
  EXPECT_EQ(got.epoch, 42u);
  EXPECT_EQ(got.wal_first_epoch, 43u);
  expect_tables_equal(got.table, m.table);

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> bad = bytes;
    bad[i] ^= 0x10;
    EXPECT_FALSE(decode_manifest(bad.data(), bad.size(), &got).ok())
        << "flip at byte " << i << " undetected";
  }
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_manifest(bytes.data(), cut, &got).ok());
  }
}

TEST(Checkpoint, WriteLoadRoundTripAndGarbageCollection) {
  const std::string dir = temp_dir("ckpt_rt");
  std::filesystem::create_directories(dir);
  const Graph g = base_graph();

  for (std::uint64_t e : {4u, 8u, 12u}) {
    Manifest m;
    m.epoch = e;
    m.wal_first_epoch = e + 1;
    m.table[1] = {e, make_record(e, 1, e).result};
    ASSERT_TRUE(write_checkpoint(dir, g, m).ok());
    // Give each retained checkpoint a WAL segment so GC has a horizon.
    WalWriter w;
    ASSERT_TRUE(w.open(dir, e + 1, WalOptions{FsyncPolicy::kOff, 8}).ok());
    ASSERT_TRUE(w.append(make_record(e + 1, 1, e + 1)).ok());
    w.close();
  }

  LoadedCheckpoint loaded;
  ASSERT_TRUE(load_newest_checkpoint(dir, &loaded).ok());
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.manifest.epoch, 12u);
  EXPECT_EQ(loaded.rejected, 0u);
  EXPECT_EQ(graph_digest(loaded.graph), graph_digest(g));

  collect_checkpoint_garbage(dir, /*keep=*/2);
  LoadedCheckpoint after;
  ASSERT_TRUE(load_newest_checkpoint(dir, &after).ok());
  EXPECT_EQ(after.manifest.epoch, 12u);
  // Epoch-4 checkpoint is gone; its manifest no longer resolves.
  std::uint64_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::uint64_t e = 0;
    if (parse_checkpoint_manifest_name(entry.path().filename().string(), &e)) {
      ++count;
      EXPECT_GE(e, 8u);
    }
  }
  EXPECT_EQ(count, 2u);
  // The wal-5 segment fed only the collected checkpoint: collectable. The
  // newest segment always survives.
  const auto segs = list_wal_segments(dir);
  ASSERT_FALSE(segs.empty());
  std::uint64_t first = 0;
  ASSERT_TRUE(parse_wal_segment_name(
      std::filesystem::path(segs.front()).filename().string(), &first));
  EXPECT_GE(first, 9u);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, CorruptNewestFallsBackToOlder) {
  const std::string dir = temp_dir("ckpt_fallback");
  std::filesystem::create_directories(dir);
  const Graph g = base_graph();
  for (std::uint64_t e : {3u, 6u}) {
    Manifest m;
    m.epoch = e;
    m.wal_first_epoch = e + 1;
    ASSERT_TRUE(write_checkpoint(dir, g, m).ok());
  }
  // Corrupt the newest manifest.
  {
    const std::string path = dir + "/" + checkpoint_manifest_name(6);
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 18, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 18, SEEK_SET);
    std::fputc(c ^ 0x80, f);
    std::fclose(f);
  }
  LoadedCheckpoint loaded;
  ASSERT_TRUE(load_newest_checkpoint(dir, &loaded).ok());
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.manifest.epoch, 3u);
  EXPECT_EQ(loaded.rejected, 1u);

  // Corrupt the older one's GRAPH file too: nothing valid remains.
  {
    const std::string path = dir + "/" + checkpoint_graph_name(3);
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 100, SEEK_SET);
    std::fputc(c ^ 0x80, f);
    std::fclose(f);
  }
  LoadedCheckpoint none;
  ASSERT_TRUE(load_newest_checkpoint(dir, &none).ok());
  EXPECT_FALSE(none.found);
  EXPECT_EQ(none.rejected, 2u);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, InjectedWriteAndRenameFailuresLeaveNoPartialCheckpoint) {
  const std::string dir = temp_dir("ckpt_fault");
  std::filesystem::create_directories(dir);
  const Graph g = base_graph();
  Manifest m;
  m.epoch = 5;
  m.wal_first_epoch = 6;

  for (const bool rename_fault : {false, true}) {
    FaultPlan plan;
    if (rename_fault) {
      plan.checkpoint_rename_fail = 1.0;
    } else {
      plan.checkpoint_write_fail = 1.0;
    }
    FaultInjector injector(3, plan);
    EXPECT_EQ(write_checkpoint(dir, g, m, &injector).code,
              StatusCode::kUnavailable);
    // Failed checkpoints clean up: no manifest, no graph, no temp files.
    std::size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      (void)entry;
      ++files;
    }
    EXPECT_EQ(files, 0u) << (rename_fault ? "rename" : "write");
  }
  // And the same call without faults publishes.
  ASSERT_TRUE(write_checkpoint(dir, g, m).ok());
  LoadedCheckpoint loaded;
  ASSERT_TRUE(load_newest_checkpoint(dir, &loaded).ok());
  EXPECT_TRUE(loaded.found);
  std::filesystem::remove_all(dir);
}

// ---- exactly-once -----------------------------------------------------------

TEST(Durability, DuplicateSequencesReplayTheOriginalVerdict) {
  const std::string dir = temp_dir("dedup");
  std::unique_ptr<Durability> d;
  ASSERT_TRUE(Durability::open(base_graph(), dyn_params(), dur_options(dir), &d)
                  .ok());

  UpdateRequest req = make_batch(1, 1, 0xc11e27);
  UpdateResponse first;
  d->handle_update(req, &first);
  ASSERT_EQ(first.status, StatusCode::kOk);
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(first.flags & kUpdateFlagDuplicate, 0u);

  // Same sequence, even with a DIFFERENT delta: the stored verdict comes
  // back, nothing applies.
  UpdateRequest dup = make_batch(99, 1, 0xc11e27);
  UpdateResponse second;
  d->handle_update(dup, &second);
  EXPECT_EQ(second.status, StatusCode::kOk);
  EXPECT_NE(second.flags & kUpdateFlagDuplicate, 0u);
  EXPECT_EQ(second.epoch, first.epoch);
  EXPECT_EQ(second.inserted, first.inserted);
  EXPECT_EQ(d->engine().epoch(), 1u);
  EXPECT_EQ(d->wal_records(), 1u);

  // client_id 0 opts out of dedup: every such batch applies.
  UpdateRequest unkeyed = make_batch(2, 0, 0);
  UpdateResponse third;
  d->handle_update(unkeyed, &third);
  EXPECT_EQ(third.status, StatusCode::kOk);
  EXPECT_EQ(third.flags & kUpdateFlagDuplicate, 0u);
  EXPECT_EQ(third.epoch, 2u);
  std::filesystem::remove_all(dir);
}

TEST(Durability, SequenceBelowHighWaterIsRejected) {
  const std::string dir = temp_dir("below_hw");
  std::unique_ptr<Durability> d;
  ASSERT_TRUE(Durability::open(base_graph(), dyn_params(), dur_options(dir), &d)
                  .ok());
  UpdateResponse resp;
  d->handle_update(make_batch(1, 5, 77), &resp);
  ASSERT_EQ(resp.status, StatusCode::kOk);  // gaps are fine (burned retries)
  d->handle_update(make_batch(1, 3, 77), &resp);
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);
  EXPECT_EQ(d->engine().epoch(), 1u);
  std::filesystem::remove_all(dir);
}

// ---- recovery ---------------------------------------------------------------

TEST(Recovery, EmptyDirectoryIsAFreshEngine) {
  const std::string dir = temp_dir("fresh");
  std::unique_ptr<Durability> d;
  ASSERT_TRUE(Durability::open(base_graph(), dyn_params(), dur_options(dir), &d)
                  .ok());
  EXPECT_FALSE(d->recovery().checkpoint_loaded);
  EXPECT_EQ(d->recovery().replayed, 0u);
  EXPECT_EQ(d->engine().epoch(), 0u);
  EXPECT_EQ(graph_digest(d->engine().snapshot()->graph),
            graph_digest(base_graph()));
  std::filesystem::remove_all(dir);
}

/// Run `updates` batches through a durable engine under `plan`, simulate
/// a crash (drop the object without any shutdown checkpoint), recover,
/// and compare against an uninterrupted twin that applied exactly the
/// acked batches. This is the pinning harness for the PR's core claim.
void crash_recovery_differential(const std::string& tag, std::uint64_t seed,
                                 std::uint64_t updates,
                                 std::uint64_t checkpoint_every,
                                 const FaultPlan& plan, bool corrupt_newest) {
  SCOPED_TRACE(tag);
  const std::string dir = temp_dir("diff_" + tag);
  const std::uint64_t client = 0xabc0 + seed;

  std::vector<std::uint64_t> acked;
  {
    DurabilityOptions opt = dur_options(dir);
    opt.checkpoint_every = checkpoint_every;
    std::unique_ptr<Durability> d;
    ASSERT_TRUE(Durability::open(base_graph(), dyn_params(), opt, &d).ok());
    FaultInjector injector(seed, plan);
    for (std::uint64_t seq = 1; seq <= updates; ++seq) {
      UpdateRequest req = make_batch(seed, seq, client);
      UpdateResponse resp;
      d->handle_update(req, &resp, &injector);
      if (resp.status != StatusCode::kOk) {
        // What a retrying client does: same (client_id, sequence) again.
        // The failed attempt left nothing applied, so the retry lands.
        ASSERT_EQ(resp.status, StatusCode::kUnavailable);
        UpdateResponse retry;
        d->handle_update(req, &retry, /*injector=*/nullptr);
        ASSERT_EQ(retry.status, StatusCode::kOk);
        EXPECT_EQ(retry.flags & kUpdateFlagDuplicate, 0u);
      }
      acked.push_back(seq);
    }
    // d drops here with no clean shutdown: the durability claim is that
    // the on-disk state alone carries everything acknowledged.
  }

  if (corrupt_newest) {
    // Flip a byte in the newest manifest: recovery must fall back to an
    // older checkpoint and replay a longer WAL tail to the same state.
    std::string newest;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::uint64_t e = 0;
      if (parse_checkpoint_manifest_name(entry.path().filename().string(), &e)) {
        if (newest.empty() || entry.path().string() > newest) {
          newest = entry.path().string();
        }
      }
    }
    if (!newest.empty()) {
      std::FILE* f = std::fopen(newest.c_str(), "r+b");
      ASSERT_NE(f, nullptr);
      std::fseek(f, 9, SEEK_SET);
      int c = std::fgetc(f);
      std::fseek(f, 9, SEEK_SET);
      std::fputc(c ^ 0x04, f);
      std::fclose(f);
    }
  }

  std::unique_ptr<Durability> recovered;
  {
    DurabilityOptions opt = dur_options(dir);
    opt.checkpoint_every = checkpoint_every;
    ASSERT_TRUE(
        Durability::open(base_graph(), dyn_params(), opt, &recovered).ok());
  }
  EXPECT_EQ(recovered->engine().epoch(), acked.size());
  if (corrupt_newest && recovered->recovery().checkpoint_loaded) {
    EXPECT_GE(recovered->recovery().rejected_checkpoints, 1u);
  }

  // The uninterrupted twin.
  const std::string twin_dir = temp_dir("diff_twin_" + tag);
  std::unique_ptr<Durability> twin;
  ASSERT_TRUE(
      Durability::open(base_graph(), dyn_params(), dur_options(twin_dir), &twin)
          .ok());
  for (const std::uint64_t seq : acked) {
    UpdateResponse resp;
    twin->handle_update(make_batch(seed, seq, client), &resp);
    ASSERT_EQ(resp.status, StatusCode::kOk);
  }

  EXPECT_EQ(graph_digest(recovered->engine().snapshot()->graph),
            graph_digest(twin->engine().snapshot()->graph));
  EXPECT_EQ(query_digest(*recovered), query_digest(*twin));
  expect_tables_equal(recovered->client_table(), twin->client_table());

  // Exactly-once survives recovery: replaying the newest acked batch is
  // answered from the recovered table without touching the engine.
  if (!acked.empty()) {
    const std::uint64_t before = recovered->engine().epoch();
    UpdateResponse resp;
    recovered->handle_update(make_batch(seed, acked.back(), client), &resp);
    EXPECT_EQ(resp.status, StatusCode::kOk);
    EXPECT_NE(resp.flags & kUpdateFlagDuplicate, 0u);
    EXPECT_EQ(recovered->engine().epoch(), before);
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::remove_all(twin_dir, ec);
}

TEST(Recovery, DifferentialCleanLog) {
  FaultPlan plan;  // no faults: the plain WAL-replay path
  crash_recovery_differential("clean", 1, 24, /*checkpoint_every=*/0, plan,
                              false);
}

TEST(Recovery, DifferentialWithCheckpoints) {
  FaultPlan plan;
  crash_recovery_differential("ckpt", 2, 30, /*checkpoint_every=*/7, plan,
                              false);
}

TEST(Recovery, DifferentialUnderTornAppends) {
  FaultPlan plan;
  plan.wal_append_tear = 0.3;
  crash_recovery_differential("tear", 3, 24, /*checkpoint_every=*/8, plan,
                              false);
}

TEST(Recovery, DifferentialUnderFsyncFailures) {
  FaultPlan plan;
  plan.wal_fsync_fail = 0.25;
  // fsync faults only fire when the policy actually fsyncs, so this
  // harness runs kEveryBatch instead of the suite's default kOff.
  const std::string dir = temp_dir("diff_fsync");
  DurabilityOptions opt;
  opt.dir = dir;
  opt.wal.fsync = FsyncPolicy::kEveryBatch;
  opt.checkpoint_every = 9;
  const std::uint64_t client = 0xf57c;

  std::vector<std::uint64_t> acked;
  {
    std::unique_ptr<Durability> d;
    ASSERT_TRUE(Durability::open(base_graph(), dyn_params(), opt, &d).ok());
    FaultInjector injector(5, plan);
    for (std::uint64_t seq = 1; seq <= 20; ++seq) {
      UpdateResponse resp;
      d->handle_update(make_batch(5, seq, client), &resp, &injector);
      if (resp.status == StatusCode::kOk) acked.push_back(seq);
    }
  }
  std::unique_ptr<Durability> recovered;
  ASSERT_TRUE(Durability::open(base_graph(), dyn_params(), opt, &recovered).ok());
  EXPECT_EQ(recovered->engine().epoch(), acked.size());

  const std::string twin_dir = temp_dir("diff_fsync_twin");
  std::unique_ptr<Durability> twin;
  ASSERT_TRUE(Durability::open(base_graph(), dyn_params(),
                               dur_options(twin_dir), &twin)
                  .ok());
  for (const std::uint64_t seq : acked) {
    UpdateResponse resp;
    twin->handle_update(make_batch(5, seq, client), &resp);
    ASSERT_EQ(resp.status, StatusCode::kOk);
  }
  EXPECT_EQ(graph_digest(recovered->engine().snapshot()->graph),
            graph_digest(twin->engine().snapshot()->graph));
  expect_tables_equal(recovered->client_table(), twin->client_table());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::remove_all(twin_dir, ec);
}

TEST(Recovery, DifferentialUnderCheckpointFaults) {
  FaultPlan plan;
  plan.checkpoint_write_fail = 0.5;
  plan.checkpoint_rename_fail = 0.3;
  crash_recovery_differential("ckptfault", 6, 30, /*checkpoint_every=*/5, plan,
                              false);
}

TEST(Recovery, DifferentialWithCorruptNewestCheckpoint) {
  FaultPlan plan;
  crash_recovery_differential("corrupt", 7, 30, /*checkpoint_every=*/6, plan,
                              true);
}

TEST(Recovery, CrashAtEveryCheckpointStageRecovers) {
  for (const CheckpointCrashStage stage :
       {CheckpointCrashStage::kAfterGraphTemp,
        CheckpointCrashStage::kAfterGraphRename,
        CheckpointCrashStage::kAfterManifestTemp}) {
    SCOPED_TRACE(static_cast<int>(stage));
    const std::string dir =
        temp_dir("stage_" + std::to_string(static_cast<int>(stage)));
    const std::uint64_t client = 0x57a6e;

    {
      std::unique_ptr<Durability> d;
      ASSERT_TRUE(Durability::open(base_graph(), dyn_params(), dur_options(dir),
                                   &d)
                      .ok());
      for (std::uint64_t seq = 1; seq <= 4; ++seq) {
        UpdateResponse resp;
        d->handle_update(make_batch(9, seq, client), &resp);
        ASSERT_EQ(resp.status, StatusCode::kOk);
      }
      // A first GOOD checkpoint, then a crashed one two epochs later.
      ASSERT_TRUE(d->checkpoint_now().ok());
      for (std::uint64_t seq = 5; seq <= 6; ++seq) {
        UpdateResponse resp;
        d->handle_update(make_batch(9, seq, client), &resp);
        ASSERT_EQ(resp.status, StatusCode::kOk);
      }
      d->set_checkpoint_crash_stage(stage);
      EXPECT_EQ(d->checkpoint_now().code, StatusCode::kUnavailable);
      // One more update lands after the failed checkpoint.
      UpdateResponse resp;
      d->handle_update(make_batch(9, 7, client), &resp);
      ASSERT_EQ(resp.status, StatusCode::kOk);
    }

    std::unique_ptr<Durability> recovered;
    ASSERT_TRUE(Durability::open(base_graph(), dyn_params(), dur_options(dir),
                                 &recovered)
                    .ok());
    EXPECT_EQ(recovered->engine().epoch(), 7u);

    const std::string twin_dir =
        temp_dir("stage_twin_" + std::to_string(static_cast<int>(stage)));
    std::unique_ptr<Durability> twin;
    ASSERT_TRUE(Durability::open(base_graph(), dyn_params(),
                                 dur_options(twin_dir), &twin)
                    .ok());
    for (std::uint64_t seq = 1; seq <= 7; ++seq) {
      UpdateResponse resp;
      twin->handle_update(make_batch(9, seq, client), &resp);
      ASSERT_EQ(resp.status, StatusCode::kOk);
    }
    EXPECT_EQ(graph_digest(recovered->engine().snapshot()->graph),
              graph_digest(twin->engine().snapshot()->graph));
    EXPECT_EQ(query_digest(*recovered), query_digest(*twin));
    expect_tables_equal(recovered->client_table(), twin->client_table());
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::remove_all(twin_dir, ec);
  }
}

TEST(Recovery, TornTailOnDiskIsTruncatedAndAppendedAfter) {
  const std::string dir = temp_dir("torn_disk");
  const std::uint64_t client = 0x7041;
  {
    std::unique_ptr<Durability> d;
    ASSERT_TRUE(
        Durability::open(base_graph(), dyn_params(), dur_options(dir), &d).ok());
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      UpdateResponse resp;
      d->handle_update(make_batch(4, seq, client), &resp);
      ASSERT_EQ(resp.status, StatusCode::kOk);
    }
  }
  // Crash image: half a record at the tail.
  const auto segs = list_wal_segments(dir);
  ASSERT_EQ(segs.size(), 1u);
  {
    std::FILE* f = std::fopen(segs[0].c_str(), "ab");
    const std::uint8_t junk[] = {0x57, 0x41, 0x4c, 0x52, 0xff, 0xff};
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  std::unique_ptr<Durability> recovered;
  ASSERT_TRUE(
      Durability::open(base_graph(), dyn_params(), dur_options(dir), &recovered)
          .ok());
  EXPECT_EQ(recovered->engine().epoch(), 3u);
  EXPECT_GT(recovered->recovery().torn_bytes, 0u);

  // New updates append to the healed segment and survive another cycle.
  UpdateResponse resp;
  recovered->handle_update(make_batch(4, 4, client), &resp);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  recovered.reset();
  std::unique_ptr<Durability> again;
  ASSERT_TRUE(
      Durability::open(base_graph(), dyn_params(), dur_options(dir), &again).ok());
  EXPECT_EQ(again->engine().epoch(), 4u);
  auto table = again->client_table();
  ASSERT_EQ(table.count(client), 1u);
  EXPECT_EQ(table[client].sequence, 4u);
  std::filesystem::remove_all(dir);
}

TEST(Recovery, LongTailFoldsThenBuildsOnce) {
  // The uninterrupted twin applies 64 batches incrementally; its WAL is
  // then rewritten into a crash image whose tail spans a segment rotation
  // and has no checkpoint in front of it.
  const std::string twin_dir = temp_dir("long_tail_twin");
  const std::string dir = temp_dir("long_tail");
  const std::uint64_t client = 0x10a6;
  constexpr std::uint64_t kRecords = 64;
  std::unique_ptr<Durability> twin;
  ASSERT_TRUE(Durability::open(base_graph(), dyn_params(),
                               dur_options(twin_dir), &twin)
                  .ok());
  for (std::uint64_t seq = 1; seq <= kRecords; ++seq) {
    UpdateResponse resp;
    twin->handle_update(make_batch(12, seq, client), &resp);
    ASSERT_EQ(resp.status, StatusCode::kOk);
  }
  std::vector<WalRecord> log;
  for (const std::string& seg : list_wal_segments(twin_dir)) {
    WalScan scan;
    ASSERT_TRUE(scan_wal_segment(seg, &scan).ok());
    log.insert(log.end(), scan.records.begin(), scan.records.end());
  }
  ASSERT_EQ(log.size(), kRecords);
  {
    std::filesystem::create_directories(dir);
    WalWriter w;
    ASSERT_TRUE(w.open(dir, 1, WalOptions{FsyncPolicy::kOff, 8}).ok());
    for (const WalRecord& rec : log) {
      if (rec.epoch == kRecords / 2 + 1) {
        ASSERT_TRUE(w.rotate(rec.epoch).ok());
      }
      ASSERT_TRUE(w.append(rec).ok());
    }
  }
  ASSERT_EQ(list_wal_segments(dir).size(), 2u);

  std::unique_ptr<Durability> recovered;
  ASSERT_TRUE(
      Durability::open(base_graph(), dyn_params(), dur_options(dir), &recovered)
          .ok());
  const RecoveryReport& rep = recovered->recovery();
  EXPECT_FALSE(rep.checkpoint_loaded);
  EXPECT_EQ(rep.replayed, kRecords);
  EXPECT_EQ(rep.unreachable, 0u);
  EXPECT_EQ(recovered->engine().epoch(), kRecords);
  // Built once from the folded graph: no apply() ever ran on it.
  EXPECT_EQ(recovered->engine().rebuilds(), 0u);
  EXPECT_EQ(recovered->engine().full_rebuilds(), 0u);
  EXPECT_EQ(graph_digest(recovered->engine().snapshot()->graph),
            graph_digest(twin->engine().snapshot()->graph));
  EXPECT_EQ(query_digest(*recovered), query_digest(*twin));
  expect_tables_equal(recovered->client_table(), twin->client_table());
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(twin_dir);
}

TEST(Recovery, RecordTheGraphRejectsMidTailIsATypedError) {
  // A checksummed record the recovered graph cannot take means the log
  // does not belong to this base state: record k of N names an endpoint
  // outside the 100-vertex base graph. (A non-positive weight never gets
  // this far: the record decoder refuses it, the next test.)
  constexpr std::uint64_t kRecords = 6, kBad = 4;
  const Edge bad_edges[] = {{0, 100, 1.0},    // endpoint == n
                            {4000, 7, 2.0}};  // endpoint far past n
  for (const Edge& bad : bad_edges) {
    SCOPED_TRACE(std::to_string(bad.u) + "-" + std::to_string(bad.v));
    const std::string dir = temp_dir("rejected_record");
    std::filesystem::create_directories(dir);
    {
      WalWriter w;
      ASSERT_TRUE(w.open(dir, 1, WalOptions{FsyncPolicy::kOff, 8}).ok());
      for (std::uint64_t e = 1; e <= kRecords; ++e) {
        WalRecord rec = make_record(e, 0xbad, e);
        if (e == kBad) rec.delta.insert = {bad};
        ASSERT_TRUE(w.append(rec).ok());
      }
    }
    std::unique_ptr<Durability> d;
    const Status s =
        Durability::open(base_graph(), dyn_params(), dur_options(dir), &d);
    EXPECT_EQ(s.code, StatusCode::kInternal);
    EXPECT_EQ(s.message.rfind("wal replay:", 0), 0u) << s.message;
    EXPECT_EQ(d, nullptr);
    std::filesystem::remove_all(dir);
  }
}

TEST(Recovery, RecordTheDecoderRejectsMidTailIsATypedError) {
  // A weight-0 insert at record 4 of 6 checksums fine but does not
  // decode. A torn write cannot produce a matching checksum, so this is
  // corruption: open must fail typed and leave the log untouched, not
  // truncate the record and everything after it as a torn tail.
  constexpr std::uint64_t kRecords = 6, kBad = 4;
  const std::string dir = temp_dir("undecodable_record");
  std::filesystem::create_directories(dir);
  {
    WalWriter w;
    ASSERT_TRUE(w.open(dir, 1, WalOptions{FsyncPolicy::kOff, 8}).ok());
    for (std::uint64_t e = 1; e <= kRecords; ++e) {
      WalRecord rec = make_record(e, 0xbad, e);
      if (e == kBad) rec.delta.insert = {{3, 7, 0.0}};
      ASSERT_TRUE(w.append(rec).ok());
    }
  }
  const std::string seg = dir + "/" + wal_segment_name(1);
  const auto size_before = std::filesystem::file_size(seg);
  WalScan scan;
  EXPECT_EQ(scan_wal_segment(seg, &scan).code, StatusCode::kInternal);
  EXPECT_EQ(scan.records.size(), kBad - 1);
  EXPECT_FALSE(scan.torn);

  std::unique_ptr<Durability> d;
  const Status s =
      Durability::open(base_graph(), dyn_params(), dur_options(dir), &d);
  EXPECT_EQ(s.code, StatusCode::kInternal);
  EXPECT_EQ(s.message.rfind("wal record corrupt", 0), 0u) << s.message;
  EXPECT_EQ(d, nullptr);
  EXPECT_EQ(list_wal_segments(dir), std::vector<std::string>{seg});
  EXPECT_EQ(std::filesystem::file_size(seg), size_before);
  std::filesystem::remove_all(dir);
}

TEST(Recovery, EpochGapMidTailStopsAtLastContiguousEpoch) {
  const std::string dir = temp_dir("epoch_gap");
  std::filesystem::create_directories(dir);
  const std::uint64_t client = 0x6a9;
  {
    // Epochs 1..4, then a segment that starts at 7: 5 and 6 are missing.
    WalWriter w;
    ASSERT_TRUE(w.open(dir, 1, WalOptions{FsyncPolicy::kOff, 8}).ok());
    for (std::uint64_t e = 1; e <= 4; ++e) {
      ASSERT_TRUE(w.append(make_record(e, client, e)).ok());
    }
    WalWriter stranded;
    ASSERT_TRUE(stranded.open(dir, 7, WalOptions{FsyncPolicy::kOff, 8}).ok());
    for (std::uint64_t e = 7; e <= 9; ++e) {
      ASSERT_TRUE(stranded.append(make_record(e, client, e)).ok());
    }
  }
  ASSERT_EQ(list_wal_segments(dir).size(), 2u);

  Graph expect = base_graph();
  for (std::uint64_t e = 1; e <= 4; ++e) {
    expect = expect.apply_delta(make_record(e, client, e).delta).graph;
  }
  std::unique_ptr<Durability> d;
  ASSERT_TRUE(
      Durability::open(base_graph(), dyn_params(), dur_options(dir), &d).ok());
  EXPECT_EQ(d->engine().epoch(), 4u);
  EXPECT_EQ(d->recovery().replayed, 4u);
  EXPECT_EQ(d->recovery().unreachable, 3u);
  EXPECT_EQ(graph_digest(d->engine().snapshot()->graph), graph_digest(expect));
  EXPECT_EQ(d->client_table()[client].sequence, 4u);
  const auto segs = list_wal_segments(dir);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(std::filesystem::path(segs[0]).filename().string(),
            wal_segment_name(1));

  // The next update continues at epoch 5 and survives another reopening
  // with no stranded epochs left to interleave with.
  UpdateResponse resp;
  d->handle_update(make_batch(13, 5, client), &resp);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  EXPECT_EQ(resp.epoch, 5u);
  d.reset();
  std::unique_ptr<Durability> again;
  ASSERT_TRUE(
      Durability::open(base_graph(), dyn_params(), dur_options(dir), &again)
          .ok());
  EXPECT_EQ(again->engine().epoch(), 5u);
  EXPECT_EQ(again->recovery().replayed, 5u);
  EXPECT_EQ(again->recovery().unreachable, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace parsh::server
