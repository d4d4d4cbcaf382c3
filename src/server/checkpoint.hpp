// Checkpoint/restore and the Durability coordinator.
//
// A checkpoint is two files, published in a fixed order that makes the
// pair atomic under crash-at-any-instant:
//
//   ckpt-<epoch:%016x>.pcsr      the snapshot's graph (write_pcsr_file)
//   ckpt-<epoch:%016x>.manifest  epoch + WAL position + the per-client
//                                exactly-once table, FNV-1a checksummed
//
// Both are written to `.tmp` names, fsynced, then renamed into place —
// graph first, manifest LAST. A checkpoint exists iff its manifest parses
// and checksums AND its graph loads (checksums verified), so a crash
// between any two steps leaves either the previous checkpoint (tmp files
// are ignored garbage) or a complete new one. Recovery picks the newest
// valid pair and falls back to older ones when the newest is corrupt,
// which is why the last kKeepCheckpoints checkpoints are retained and WAL
// segments are garbage-collected only below the OLDEST retained
// checkpoint — the fallback path still needs its replay range.
//
// The Durability coordinator owns the WalWriter, the exactly-once table
// and the dynamic engine, and is the single path every accepted update
// takes: dedup check -> engine apply with the WAL append in the
// pre-publish seam -> table update -> threshold checkpoint. Recovery
// (Durability::open) loads the newest valid checkpoint, folds the WAL
// tail into its graph with Graph::apply_delta (restoring the client
// table from each record's stored verdict), and builds the engine once
// from the result: the hopset is a pure function of (graph, params,
// seed), so the intermediate epochs' hopsets are never needed. The
// serving state is bit-identical to an uninterrupted run's, which
// applied every batch incrementally — the property
// tests/test_durability.cpp's kill-mid-batch harness pins.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "server/fault_injector.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/status.hpp"
#include "server/wal.hpp"
#include "sssp/dynamic_approx.hpp"

namespace parsh::server {

inline constexpr std::uint32_t kManifestVersion = 1;
inline constexpr std::size_t kManifestHeaderBytes = 8 + 4 + 4;  // magic+ver+rsvd

/// Exactly-once table entry: the last applied sequence for a client and
/// the verdict it was given, replayed verbatim on a duplicate retry.
struct ClientEntry {
  std::uint64_t sequence = 0;
  UpdateResponse result;  ///< id field 0; patched per delivery
};

/// client_id -> last applied entry. std::map so serialization order (and
/// therefore manifest bytes and digests over the table) is deterministic.
using ClientTable = std::map<std::uint64_t, ClientEntry>;

/// The checkpoint's metadata sidecar.
struct Manifest {
  std::uint64_t epoch = 0;            ///< snapshot epoch of the .pcsr twin
  std::uint64_t wal_first_epoch = 0;  ///< first epoch of the segment opened after this checkpoint
  ClientTable table;
};

[[nodiscard]] std::string checkpoint_graph_name(std::uint64_t epoch);
[[nodiscard]] std::string checkpoint_manifest_name(std::uint64_t epoch);
[[nodiscard]] bool parse_checkpoint_manifest_name(const std::string& name,
                                                  std::uint64_t* epoch);

/// Manifest codec (exposed for wal_inspect and the tests). Encoding
/// appends the checksummed image; decoding validates magic, version and
/// the trailing checksum.
void encode_manifest(std::vector<std::uint8_t>& out, const Manifest& m);
[[nodiscard]] Status decode_manifest(const std::uint8_t* data, std::size_t len,
                                     Manifest* out);
[[nodiscard]] Status read_manifest_file(const std::string& path, Manifest* out);

/// Deterministic crash seam for the atomicity tests: stop the checkpoint
/// writer cold after the named step, leaving the directory exactly as a
/// crash at that instant would (no cleanup, kUnavailable returned).
enum class CheckpointCrashStage : int {
  kNone = 0,
  kAfterGraphTemp,     ///< graph .tmp written+fsynced, nothing renamed
  kAfterGraphRename,   ///< graph final, manifest absent
  kAfterManifestTemp,  ///< manifest .tmp written+fsynced, not renamed
};

/// Write one checkpoint pair into `dir`. Consults kCheckpointWrite before
/// each file's bytes and kCheckpointRename before each rename (kFailOp
/// aborts with tmp cleanup; serving continues on the previous
/// checkpoint). `crash_after` is the test seam above.
[[nodiscard]] Status write_checkpoint(const std::string& dir, const Graph& g,
                                      const Manifest& m,
                                      FaultInjector* injector = nullptr,
                                      CheckpointCrashStage crash_after =
                                          CheckpointCrashStage::kNone);

/// The newest checkpoint in `dir` that is actually loadable.
struct LoadedCheckpoint {
  bool found = false;
  Manifest manifest;
  Graph graph;
  std::uint64_t rejected = 0;  ///< newer checkpoints skipped as corrupt
};
[[nodiscard]] Status load_newest_checkpoint(const std::string& dir,
                                            LoadedCheckpoint* out);

/// Drop checkpoints beyond the `keep` newest, then WAL segments wholly
/// below the oldest retained checkpoint's replay horizon. Never touches
/// the newest segment (the writer's append target).
void collect_checkpoint_garbage(const std::string& dir, std::size_t keep);

// ---- coordinator ------------------------------------------------------------

struct DurabilityOptions {
  std::string dir;  ///< created if missing
  WalOptions wal;
  /// Applied updates between automatic checkpoints; 0 = only explicit
  /// checkpoint_now() calls.
  std::uint64_t checkpoint_every = 0;
  std::size_t keep_checkpoints = 2;
};

/// What recovery did, for logs/metrics and the tests.
struct RecoveryReport {
  bool checkpoint_loaded = false;
  std::uint64_t checkpoint_epoch = 0;
  std::uint64_t rejected_checkpoints = 0;  ///< corrupt newer ones skipped
  std::uint64_t replayed = 0;              ///< WAL records folded in
  std::uint64_t skipped = 0;               ///< records at/below the checkpoint
  std::uint64_t torn_bytes = 0;            ///< truncated from the tail segment
  std::uint64_t unreachable = 0;           ///< records stranded past mid-log damage
  double fold_ms = 0;      ///< WAL scan + apply_delta fold
  double build_ms = 0;     ///< the one engine (hopset) build
  double recovery_ms = 0;  ///< checkpoint load + fold_ms + build_ms
};

class Durability {
 public:
  /// Open `opt.dir`, recover (checkpoint + WAL fold), build the engine.
  /// `base`/`params` seed the state when the directory holds no
  /// checkpoint — they must be the same every run (the WAL does not store
  /// the base graph).
  [[nodiscard]] static Status open(Graph base,
                                   DynamicApproxShortestPaths::Params params,
                                   DurabilityOptions opt,
                                   std::unique_ptr<Durability>* out);

  [[nodiscard]] DynamicApproxShortestPaths& engine() { return *engine_; }
  [[nodiscard]] const RecoveryReport& recovery() const { return report_; }
  [[nodiscard]] const DurabilityOptions& options() const { return opt_; }

  /// The durable update path: dedup -> WAL-logged apply -> table ->
  /// threshold checkpoint. Fills `*resp` completely (status, flags,
  /// epoch, stats) and never throws; `resp->id` is left untouched for the
  /// caller to set. Serialized internally.
  void handle_update(const UpdateRequest& req, UpdateResponse* resp,
                     FaultInjector* injector = nullptr,
                     ServerMetrics* metrics = nullptr);

  /// Checkpoint the current snapshot now (also what the threshold path
  /// calls). kOk means a new checkpoint is fully published and old WAL
  /// segments are collected.
  [[nodiscard]] Status checkpoint_now(FaultInjector* injector = nullptr,
                                      ServerMetrics* metrics = nullptr);

  /// Copy of the exactly-once table (the differential harness compares
  /// these across recovered/uninterrupted twins).
  [[nodiscard]] ClientTable client_table() const;

  [[nodiscard]] std::uint64_t checkpoints_written() const;
  [[nodiscard]] std::uint64_t wal_records() const { return wal_.records_appended(); }

  /// Test seam: make the next checkpoint crash after the given stage.
  void set_checkpoint_crash_stage(CheckpointCrashStage s);

 private:
  Durability() = default;

  [[nodiscard]] Status checkpoint_locked_(FaultInjector* injector,
                                          ServerMetrics* metrics);

  DurabilityOptions opt_;
  std::unique_ptr<DynamicApproxShortestPaths> engine_;
  RecoveryReport report_;

  mutable std::mutex mu_;  ///< serializes updates, checkpoints, table reads
  ClientTable table_;
  WalWriter wal_;
  std::uint64_t since_checkpoint_ = 0;
  std::uint64_t checkpoints_ = 0;
  CheckpointCrashStage crash_stage_ = CheckpointCrashStage::kNone;
};

}  // namespace parsh::server
