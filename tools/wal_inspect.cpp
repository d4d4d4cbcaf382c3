// wal_inspect — dump and verify the durability layer's on-disk state:
// WAL segments, checkpoint manifests, and whole durability directories.
//
// Usage:
//   wal_inspect --dir state/                # everything: checkpoints + segments
//   wal_inspect --wal state/wal-....log     # one segment: records + tail verdict
//   wal_inspect --manifest state/ckpt-....manifest
//   wal_inspect --verify --dir state/       # exit 1 on any corruption
//   wal_inspect --selftest                  # round-trip smoke (ctest)
//
// Per segment it prints the record count, per-record (epoch, client,
// sequence, delta sizes) lines under --verbose, and the tail verdict —
// "clean" or the torn-tail reason and how many bytes recovery would
// truncate, or CORRUPT for a checksummed record that does not decode.
// Per manifest: the checkpoint epoch, WAL position, and each client's
// applied-sequence high-water mark. --verify makes any torn tail,
// corrupt record, checksum mismatch, or undecodable manifest a nonzero
// exit so a cron job can watch a serving directory's health.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "server/checkpoint.hpp"
#include "server/wal.hpp"
#include "util/cli.hpp"

namespace {

using namespace parsh;
using namespace parsh::server;

int g_problems = 0;

void print_segment(const std::string& path, bool verbose) {
  WalScan scan;
  const Status s = scan_wal_segment(path, &scan);
  std::printf("%s\n", path.c_str());
  // kInternal is a checksummed record that does not decode: the scan
  // still reports the valid prefix before it.
  if (!s.ok() && s.code != StatusCode::kInternal) {
    std::printf("  INVALID: %s\n", s.message.c_str());
    ++g_problems;
    return;
  }
  std::printf("  first epoch  %llu\n",
              static_cast<unsigned long long>(scan.first_epoch));
  std::printf("  records      %zu\n", scan.records.size());
  std::printf("  bytes        %llu valid / %llu total\n",
              static_cast<unsigned long long>(scan.valid_bytes),
              static_cast<unsigned long long>(scan.file_bytes));
  if (!s.ok()) {
    std::printf("  record       CORRUPT (%s): recovery refuses the segment\n",
                s.message.c_str());
    ++g_problems;
  } else if (scan.torn) {
    std::printf("  tail         TORN (%s): %llu bytes to truncate\n",
                scan.torn_reason.c_str(),
                static_cast<unsigned long long>(scan.file_bytes - scan.valid_bytes));
    ++g_problems;
  } else {
    std::printf("  tail         clean\n");
  }
  if (verbose) {
    for (const WalRecord& r : scan.records) {
      std::printf("  epoch %-6llu client %016llx seq %-6llu  +%zu -%zu  %s\n",
                  static_cast<unsigned long long>(r.epoch),
                  static_cast<unsigned long long>(r.client_id),
                  static_cast<unsigned long long>(r.sequence),
                  r.delta.insert.size(), r.delta.remove.size(),
                  status_name(r.result.status));
    }
  }
}

void print_manifest(const std::string& path) {
  Manifest m;
  const Status s = read_manifest_file(path, &m);
  std::printf("%s\n", path.c_str());
  if (!s.ok()) {
    std::printf("  INVALID: %s\n", s.message.c_str());
    ++g_problems;
    return;
  }
  std::printf("  epoch        %llu\n", static_cast<unsigned long long>(m.epoch));
  std::printf("  wal resumes  %llu\n",
              static_cast<unsigned long long>(m.wal_first_epoch));
  std::printf("  clients      %zu\n", m.table.size());
  for (const auto& [client, entry] : m.table) {
    std::printf("  client %016llx  last seq %-6llu  epoch %llu  %s\n",
                static_cast<unsigned long long>(client),
                static_cast<unsigned long long>(entry.sequence),
                static_cast<unsigned long long>(entry.result.epoch),
                status_name(entry.result.status));
  }
}

void print_dir(const std::string& dir, bool verbose) {
  std::vector<std::string> manifests;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint64_t e = 0;
    if (parse_checkpoint_manifest_name(entry.path().filename().string(), &e)) {
      manifests.push_back(entry.path().string());
    }
  }
  std::sort(manifests.begin(), manifests.end());
  for (const std::string& m : manifests) print_manifest(m);
  for (const std::string& seg : list_wal_segments(dir)) print_segment(seg, verbose);
  if (manifests.empty() && list_wal_segments(dir).empty()) {
    std::printf("%s: no durability state\n", dir.c_str());
  }
}

/// End-to-end smoke for ctest: build a durability dir with real updates,
/// inspect it, corrupt it, and check every verdict this tool prints is
/// earned.
int selftest() {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir =
      std::string(tmp && *tmp ? tmp : "/tmp") + "/parsh_wal_inspect";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // A small durable engine: a few updates, one checkpoint, a few more.
  Graph g = with_uniform_weights(make_random_graph(60, 180, /*seed=*/7), 1, 16, 7);
  DynamicApproxShortestPaths::Params params;
  params.epsilon = 0.5;
  params.hopset.k_hops = 12;
  DurabilityOptions opt;
  opt.dir = dir;
  opt.wal.fsync = FsyncPolicy::kOff;
  std::unique_ptr<Durability> d;
  if (Status s = Durability::open(g, params, opt, &d); !s.ok()) {
    std::fprintf(stderr, "selftest: open: %s\n", s.to_string().c_str());
    return 1;
  }
  auto push = [&](std::uint64_t seq, vid u, vid v, double w) {
    UpdateRequest req;
    req.client_id = 0xabcdef;
    req.sequence = seq;
    req.insert.push_back({u, v, w});
    UpdateResponse resp;
    d->handle_update(req, &resp);
    if (resp.status != StatusCode::kOk) {
      std::fprintf(stderr, "selftest: update %llu failed\n",
                   static_cast<unsigned long long>(seq));
      std::exit(1);
    }
  };
  push(1, 0, 59, 2.5);
  push(2, 1, 58, 1.25);
  if (Status s = d->checkpoint_now(); !s.ok()) {
    std::fprintf(stderr, "selftest: checkpoint: %s\n", s.to_string().c_str());
    return 1;
  }
  push(3, 2, 57, 3.75);

  // The clean directory must inspect clean.
  g_problems = 0;
  print_dir(dir, /*verbose=*/true);
  if (g_problems != 0) {
    std::fprintf(stderr, "selftest: clean dir reported %d problems\n", g_problems);
    return 1;
  }

  // A duplicate must replay, not re-apply.
  {
    UpdateRequest req;
    req.client_id = 0xabcdef;
    req.sequence = 3;
    req.insert.push_back({5, 6, 9.0});  // different delta, same sequence
    UpdateResponse resp;
    d->handle_update(req, &resp);
    if (resp.status != StatusCode::kOk ||
        (resp.flags & kUpdateFlagDuplicate) == 0) {
      std::fprintf(stderr, "selftest: duplicate was not deduped\n");
      return 1;
    }
  }

  // Tear the newest segment's tail by appending garbage; the scan must
  // call it torn and name the reason.
  const std::vector<std::string> segs = list_wal_segments(dir);
  if (segs.empty()) {
    std::fprintf(stderr, "selftest: no segments written\n");
    return 1;
  }
  {
    std::FILE* f = std::fopen(segs.back().c_str(), "ab");
    const char junk[] = "WALR\x01\x02torn";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  g_problems = 0;
  print_segment(segs.back(), /*verbose=*/false);
  if (g_problems != 1) {
    std::fprintf(stderr, "selftest: torn tail not detected\n");
    return 1;
  }

  // A flipped manifest byte must fail its checksum.
  std::string man;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::uint64_t e = 0;
    if (parse_checkpoint_manifest_name(entry.path().filename().string(), &e)) {
      man = entry.path().string();
    }
  }
  if (man.empty()) {
    std::fprintf(stderr, "selftest: no manifest written\n");
    return 1;
  }
  {
    std::FILE* f = std::fopen(man.c_str(), "r+b");
    std::fseek(f, 20, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 20, SEEK_SET);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  g_problems = 0;
  print_manifest(man);
  if (g_problems != 1) {
    std::fprintf(stderr, "selftest: corrupt manifest not detected\n");
    return 1;
  }

  // A checksummed record that does not decode (a weight-0 insert) is a
  // corrupt record, not a torn tail.
  {
    const std::string bad_dir = dir + "/corrupt";
    std::filesystem::create_directories(bad_dir);
    WalRecord rec;
    rec.epoch = 1;
    rec.delta.insert.push_back({0, 1, 0.0});
    WalWriter w;
    if (!w.open(bad_dir, 1, WalOptions{FsyncPolicy::kOff, 8}).ok() ||
        !w.append(rec).ok()) {
      std::fprintf(stderr, "selftest: could not write the corrupt record\n");
      return 1;
    }
    w.close();
    const std::string seg = bad_dir + "/" + wal_segment_name(1);
    WalScan scan;
    g_problems = 0;
    print_segment(seg, /*verbose=*/false);
    if (g_problems != 1 ||
        scan_wal_segment(seg, &scan).code != StatusCode::kInternal) {
      std::fprintf(stderr, "selftest: corrupt record not reported as corrupt\n");
      return 1;
    }
  }

  d.reset();
  std::filesystem::remove_all(dir, ec);
  std::printf("selftest OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  try {
    if (cli.get_bool("selftest", false)) return selftest();
    const bool verbose = cli.get_bool("verbose", false);
    const bool verify = cli.get_bool("verify", false);
    const std::string dir = cli.get("dir", "");
    const std::string wal = cli.get("wal", "");
    const std::string manifest = cli.get("manifest", "");
    if (dir.empty() && wal.empty() && manifest.empty()) {
      std::fprintf(stderr,
                   "usage: wal_inspect --dir <state-dir> [--verify] [--verbose]\n"
                   "       wal_inspect --wal <segment.log> [--verbose]\n"
                   "       wal_inspect --manifest <ckpt.manifest>\n"
                   "       wal_inspect --selftest\n");
      return 2;
    }
    if (!dir.empty()) print_dir(dir, verbose);
    if (!wal.empty()) print_segment(wal, verbose);
    if (!manifest.empty()) print_manifest(manifest);
    if (verify && g_problems != 0) {
      std::fprintf(stderr, "wal_inspect: %d problem(s) found\n", g_problems);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wal_inspect: %s\n", e.what());
    return 2;
  }
}
