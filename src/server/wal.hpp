// Write-ahead log for the durable serving layer.
//
// Every accepted UPDATE_REQUEST is serialized into an append-only segment
// file BEFORE its epoch is published (the engine's pre_publish seam), so
// an acknowledged update survives a crash. The format is built for the
// one failure mode an append-only log actually has — a torn tail:
//
//   segment  = header | record*
//   header   = magic "parshWAL" (8) | version u32 | first_epoch u64 |
//              reserved u32                                      (24 bytes)
//   record   = marker u32 "WALR" | payload_len u32 |
//              fnv1a64(payload) u64 | payload                    (16 + len)
//   payload  = type u8 (1 = update)
//            | epoch u64 | client_id u64 | sequence u64
//            | result block (the UpdateResponse minus its frame id)
//            | delta (write_delta_binary framing from graph/io)
//
// Recovery scans records in order and stops at the first invalid one
// (bad marker, impossible length, checksum mismatch, short payload): a
// record is replayed whole or not at all, never partially. Whatever
// follows the valid prefix is a torn tail from a mid-append crash; the
// recoverer ftruncates it away and the writer appends after it. A record
// whose checksum matches but whose payload does not decode is not a tear
// (a torn write cannot match FNV-1a-64): the scan fails with kInternal and
// recovery refuses the directory, truncating nothing.
//
// All integers little-endian fixed-width, doubles IEEE-754 bit patterns —
// the same conventions as the wire protocol and the PCSR file format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/delta.hpp"
#include "graph/digest.hpp"
#include "server/fault_injector.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/status.hpp"

namespace parsh::server {

// ---- little-endian byte helpers --------------------------------------------
// Shared by the WAL and checkpoint codecs (and wal_inspect). Kept header-
// inline: four-instruction functions, three translation units.
namespace wire {

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline double get_f64(const std::uint8_t* p) {
  const std::uint64_t bits = get_u64(p);
  double v;
  __builtin_memcpy(&v, &bits, sizeof(v));
  return v;
}

/// FNV-1a over a byte range, the integrity check on every WAL record and
/// checkpoint manifest (same constants as graph_digest).
inline std::uint64_t fnv1a_bytes(const std::uint8_t* p, std::size_t len) {
  std::uint64_t h = kFnv64Offset;
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ p[i]) * kFnv64Prime;
  }
  return h;
}

}  // namespace wire

inline constexpr std::uint32_t kWalVersion = 1;
inline constexpr std::uint32_t kWalRecordMarker = 0x524c4157;  // "WALR"
inline constexpr std::size_t kWalSegmentHeaderBytes = 24;
inline constexpr std::size_t kWalRecordHeaderBytes = 16;
/// Hard cap on one record's payload: an update frame's edges plus fixed
/// fields can't legitimately exceed this, so larger lengths in a record
/// header mean corruption, not a big record.
inline constexpr std::size_t kWalMaxPayloadBytes = 2u << 20;

/// When appends reach the disk. Every policy still fsyncs at checkpoint
/// boundaries (GC must never outrun durability).
enum class FsyncPolicy : std::uint8_t {
  kEveryBatch = 0,  ///< fsync after every record — full durability
  kEveryN = 1,      ///< fsync every fsync_every_n records — bounded loss window
  kOff = 2,         ///< never fsync on append — kernel decides (tests, benches)
};

[[nodiscard]] constexpr const char* fsync_policy_name(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kEveryBatch: return "every-batch";
    case FsyncPolicy::kEveryN: return "every-n";
    case FsyncPolicy::kOff: return "off";
  }
  return "?";
}

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kEveryBatch;
  std::uint64_t fsync_every_n = 8;  ///< under kEveryN
};

/// One durably logged update: the exactly-once identity, the delta, and
/// the verdict the client was (or will be, on a duplicate retry) given.
/// `result.id` is not persisted — it is the frame id of whichever request
/// the response answers, patched per delivery.
struct WalRecord {
  std::uint64_t epoch = 0;      ///< epoch the update published as
  std::uint64_t client_id = 0;  ///< 0 = logged without dedup identity
  std::uint64_t sequence = 0;
  UpdateResponse result;
  GraphDelta delta;
};

// ---- record codec (exposed for wal_inspect and the tests) -------------------

/// Append `rec`'s payload bytes (no record header) to `out`.
void encode_wal_record(std::vector<std::uint8_t>& out, const WalRecord& rec);
/// Decode one record payload. kInvalidArgument on truncation/bad type.
[[nodiscard]] Status decode_wal_record(const std::uint8_t* data, std::size_t len,
                                       WalRecord* out);
/// The UpdateResponse block shared by WAL records and checkpoint
/// manifests (fixed 80 bytes; frame id excluded).
inline constexpr std::size_t kUpdateResultBytes = 80;
void encode_update_result(std::vector<std::uint8_t>& out, const UpdateResponse& r);
[[nodiscard]] Status decode_update_result(const std::uint8_t* data, std::size_t len,
                                          UpdateResponse* out);

/// Segment file name for a segment whose first record has `first_epoch`:
/// "wal-<first_epoch as %016x>.log" (lexicographic order == epoch order).
[[nodiscard]] std::string wal_segment_name(std::uint64_t first_epoch);
/// Parse the first-epoch out of a segment file name; false if the name is
/// not a WAL segment's.
[[nodiscard]] bool parse_wal_segment_name(const std::string& name,
                                          std::uint64_t* first_epoch);
/// Absolute paths of every WAL segment in `dir`, sorted by first epoch.
[[nodiscard]] std::vector<std::string> list_wal_segments(const std::string& dir);

// ---- writer -----------------------------------------------------------------

/// Appends records to one segment at a time. Not thread-safe — the
/// durability layer serializes all update handling anyway.
///
/// Failure model: a failed append (torn write, injected tear, failed
/// fsync) leaves the record un-acknowledged and marks the tail dirty; the
/// next operation first ftruncates back to the last committed offset, so
/// an in-process failure never leaves garbage mid-log for later records
/// to land after. (A crash before the heal leaves the torn tail on disk —
/// that is recovery's job.) If even the heal truncate fails the writer
/// seals itself and every further append reports kUnavailable.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Open (creating, or appending to) dir/wal_segment_name(first_epoch).
  /// An existing file must carry a valid header; a file shorter than the
  /// header is re-headered (the crash-between-create-and-header case).
  [[nodiscard]] Status open(const std::string& dir, std::uint64_t first_epoch,
                            WalOptions opt);

  /// Append one record and fsync per policy. Consults kWalAppend (tear)
  /// and kWalFsync (fail) on `injector`; bumps wal_records / wal_fsyncs
  /// on `metrics`. Only a kOk return means the record is committed.
  [[nodiscard]] Status append(const WalRecord& rec,
                              FaultInjector* injector = nullptr,
                              ServerMetrics* metrics = nullptr);

  /// fsync regardless of policy (checkpoint boundary; not fault-injected
  /// — GC correctness must not depend on the fault plan).
  [[nodiscard]] Status sync(ServerMetrics* metrics = nullptr);

  /// Seal the current segment (sync + close) and start a fresh one whose
  /// first record will be `first_epoch`.
  [[nodiscard]] Status rotate(std::uint64_t first_epoch,
                              ServerMetrics* metrics = nullptr);

  void close();

  [[nodiscard]] bool is_open() const { return fd_ >= 0 && !sealed_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t records_appended() const { return records_; }
  [[nodiscard]] std::uint64_t bytes_appended() const { return bytes_; }
  [[nodiscard]] std::uint64_t fsyncs() const { return fsyncs_; }

 private:
  [[nodiscard]] Status heal_tail_();
  [[nodiscard]] Status do_fsync_(ServerMetrics* metrics);

  std::string dir_;
  std::string path_;
  WalOptions opt_;
  int fd_ = -1;
  bool sealed_ = false;
  bool dirty_tail_ = false;     ///< bytes past committed_ need truncating
  std::uint64_t committed_ = 0; ///< file offset of the last committed byte
  std::uint64_t since_fsync_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t fsyncs_ = 0;
};

// ---- reader -----------------------------------------------------------------

/// What scanning one segment found. `records` is the valid prefix;
/// anything after `valid_bytes` is a torn tail (or mid-file corruption —
/// indistinguishable, and both mean later bytes are unreachable).
struct WalScan {
  std::uint32_t version = 0;
  std::uint64_t first_epoch = 0;    ///< from the segment header
  std::vector<WalRecord> records;
  std::uint64_t valid_bytes = 0;    ///< offset one past the last valid record
  std::uint64_t file_bytes = 0;
  bool torn = false;                ///< file_bytes > valid_bytes
  std::string torn_reason;          ///< why the scan stopped, when it did
};

/// Scan a segment file. Torn records (bad marker or length, checksum
/// mismatch, short payload) make a kOk scan with torn=true. Errors: an
/// unreadable file; an invalid segment HEADER (kInvalidArgument and a
/// valid_bytes of 0 — recovery truncates to zero and re-headers); and a
/// checksummed record that does not decode (kInternal, `records` and
/// `valid_bytes` covering the prefix before it — corruption, which
/// recovery reports instead of cutting).
[[nodiscard]] Status scan_wal_segment(const std::string& path, WalScan* out);

/// Drop a torn tail: ftruncate `path` to `valid_bytes`.
[[nodiscard]] Status truncate_wal_segment(const std::string& path,
                                          std::uint64_t valid_bytes);

}  // namespace parsh::server
