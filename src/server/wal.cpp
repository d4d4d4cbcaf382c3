#include "server/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "graph/io.hpp"

namespace parsh::server {

namespace {

constexpr char kWalMagic[8] = {'p', 'a', 'r', 's', 'h', 'W', 'A', 'L'};

Status errno_status(const char* what) {
  return Status::fail(StatusCode::kUnavailable,
                      std::string(what) + ": " + std::strerror(errno));
}

/// write(2) the whole buffer, riding out EINTR and short writes. Returns
/// bytes written before the first hard error (== len on success).
std::size_t write_some(int fd, const std::uint8_t* p, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t r = ::write(fd, p + done, len - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) break;
    done += static_cast<std::size_t>(r);
  }
  return done;
}

int ftruncate_retry(int fd, off_t len) {
  int r;
  do {
    r = ::ftruncate(fd, len);
  } while (r != 0 && errno == EINTR);
  return r;
}

int fsync_retry(int fd) {
  int r;
  do {
    r = ::fsync(fd);
  } while (r != 0 && errno == EINTR);
  return r;
}

}  // namespace

// ---- record codec -----------------------------------------------------------

void encode_update_result(std::vector<std::uint8_t>& out, const UpdateResponse& r) {
  wire::put_u32(out, static_cast<std::uint32_t>(r.status));
  wire::put_u32(out, r.flags);
  wire::put_u64(out, r.epoch);
  wire::put_f64(out, r.rebuild_ms);
  wire::put_u32(out, r.dirty_scales);
  wire::put_u32(out, r.total_scales);
  wire::put_u64(out, r.dirty_clusters);
  wire::put_u64(out, r.total_clusters);
  wire::put_u64(out, r.inserted);
  wire::put_u64(out, r.removed);
  wire::put_u64(out, r.reweighted);
  wire::put_u64(out, r.noops);
}

Status decode_update_result(const std::uint8_t* data, std::size_t len,
                            UpdateResponse* out) {
  if (len < kUpdateResultBytes) {
    return Status::fail(StatusCode::kInvalidArgument, "result block: short");
  }
  const std::uint32_t code = wire::get_u32(data);
  if (code > static_cast<std::uint32_t>(StatusCode::kInternal)) {
    return Status::fail(StatusCode::kInvalidArgument,
                        "result block: unknown status code " + std::to_string(code));
  }
  out->id = 0;
  out->status = static_cast<StatusCode>(code);
  out->flags = wire::get_u32(data + 4);
  out->epoch = wire::get_u64(data + 8);
  out->rebuild_ms = wire::get_f64(data + 16);
  out->dirty_scales = wire::get_u32(data + 24);
  out->total_scales = wire::get_u32(data + 28);
  out->dirty_clusters = wire::get_u64(data + 32);
  out->total_clusters = wire::get_u64(data + 40);
  out->inserted = wire::get_u64(data + 48);
  out->removed = wire::get_u64(data + 56);
  out->reweighted = wire::get_u64(data + 64);
  out->noops = wire::get_u64(data + 72);
  return Status::success();
}

void encode_wal_record(std::vector<std::uint8_t>& out, const WalRecord& rec) {
  out.push_back(1);  // payload type: update
  wire::put_u64(out, rec.epoch);
  wire::put_u64(out, rec.client_id);
  wire::put_u64(out, rec.sequence);
  encode_update_result(out, rec.result);
  write_delta_binary(out, rec.delta);
}

Status decode_wal_record(const std::uint8_t* data, std::size_t len, WalRecord* out) {
  constexpr std::size_t kFixed = 1 + 3 * 8 + kUpdateResultBytes;
  if (len < kFixed) {
    return Status::fail(StatusCode::kInvalidArgument, "wal record: short payload");
  }
  if (data[0] != 1) {
    return Status::fail(StatusCode::kInvalidArgument,
                        "wal record: unknown type " + std::to_string(data[0]));
  }
  out->epoch = wire::get_u64(data + 1);
  out->client_id = wire::get_u64(data + 9);
  out->sequence = wire::get_u64(data + 17);
  Status s = decode_update_result(data + 25, len - 25, &out->result);
  if (!s.ok()) return s;
  std::size_t consumed = 0;
  try {
    consumed = read_delta_binary(data + kFixed, len - kFixed, &out->delta);
  } catch (const IoError& e) {
    return Status::fail(StatusCode::kInvalidArgument,
                        std::string("wal record: ") + e.what());
  }
  if (kFixed + consumed != len) {
    return Status::fail(StatusCode::kInvalidArgument,
                        "wal record: trailing bytes after delta");
  }
  return Status::success();
}

// ---- segment naming ---------------------------------------------------------

std::string wal_segment_name(std::uint64_t first_epoch) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%016llx.log",
                static_cast<unsigned long long>(first_epoch));
  return buf;
}

bool parse_wal_segment_name(const std::string& name, std::uint64_t* first_epoch) {
  // "wal-" + 16 hex digits + ".log" = 24 chars.
  if (name.size() != 24 || name.rfind("wal-", 0) != 0 ||
      name.compare(20, 4, ".log") != 0) {
    return false;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 4; i < 20; ++i) {
    const char c = name[i];
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  if (first_epoch) *first_epoch = v;
  return true;
}

std::vector<std::string> list_wal_segments(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint64_t e = 0;
    if (parse_wal_segment_name(entry.path().filename().string(), &e)) {
      found.emplace_back(e, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [e, p] : found) out.push_back(std::move(p));
  return out;
}

// ---- writer -----------------------------------------------------------------

WalWriter::~WalWriter() { close(); }

Status WalWriter::open(const std::string& dir, std::uint64_t first_epoch,
                       WalOptions opt) {
  close();
  dir_ = dir;
  opt_ = opt;
  sealed_ = false;
  dirty_tail_ = false;
  since_fsync_ = 0;
  path_ = dir + "/" + wal_segment_name(first_epoch);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return errno_status("wal open");

  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    const Status s = errno_status("wal fstat");
    close();
    return s;
  }
  if (static_cast<std::size_t>(st.st_size) < kWalSegmentHeaderBytes) {
    // Fresh segment (or a crash landed between create and header write):
    // start over with a clean header.
    if (ftruncate_retry(fd_, 0) != 0) {
      const Status s = errno_status("wal truncate");
      close();
      return s;
    }
    std::vector<std::uint8_t> hdr;
    hdr.insert(hdr.end(), kWalMagic, kWalMagic + 8);
    wire::put_u32(hdr, kWalVersion);
    wire::put_u64(hdr, first_epoch);
    wire::put_u32(hdr, 0);  // reserved
    if (write_some(fd_, hdr.data(), hdr.size()) != hdr.size()) {
      const Status s = errno_status("wal header write");
      close();
      return s;
    }
    committed_ = hdr.size();
  } else {
    std::uint8_t hdr[kWalSegmentHeaderBytes];
    if (::pread(fd_, hdr, sizeof(hdr), 0) !=
        static_cast<ssize_t>(sizeof(hdr))) {
      const Status s = errno_status("wal header read");
      close();
      return s;
    }
    if (std::memcmp(hdr, kWalMagic, 8) != 0 ||
        wire::get_u32(hdr + 8) != kWalVersion) {
      close();
      return Status::fail(StatusCode::kInvalidArgument,
                          "wal open: bad segment header in " + path_);
    }
    // Recovery scans and truncates before reopening, so whatever length
    // the file has is the committed prefix.
    committed_ = static_cast<std::uint64_t>(st.st_size);
    if (::lseek(fd_, static_cast<off_t>(committed_), SEEK_SET) < 0) {
      const Status s = errno_status("wal seek");
      close();
      return s;
    }
    return Status::success();
  }
  return Status::success();
}

Status WalWriter::heal_tail_() {
  // A failed append left un-committed bytes at the tail. Cut them off
  // before anything else lands, or a later record would sit after garbage
  // and be unreachable to the recovery scan.
  if (ftruncate_retry(fd_, static_cast<off_t>(committed_)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(committed_), SEEK_SET) < 0) {
    sealed_ = true;
    return Status::fail(StatusCode::kUnavailable,
                        "wal sealed: tail heal failed: " +
                            std::string(std::strerror(errno)));
  }
  dirty_tail_ = false;
  return Status::success();
}

Status WalWriter::do_fsync_(ServerMetrics* metrics) {
  if (fsync_retry(fd_) != 0) return errno_status("wal fsync");
  ++fsyncs_;
  since_fsync_ = 0;
  if (metrics) metrics->bump(metrics->wal_fsyncs);
  return Status::success();
}

Status WalWriter::append(const WalRecord& rec, FaultInjector* injector,
                         ServerMetrics* metrics) {
  if (sealed_) {
    return Status::fail(StatusCode::kUnavailable, "wal writer sealed");
  }
  if (fd_ < 0) {
    return Status::fail(StatusCode::kInternal, "wal writer not open");
  }
  if (dirty_tail_) {
    Status s = heal_tail_();
    if (!s.ok()) return s;
  }

  std::vector<std::uint8_t> payload;
  payload.reserve(128 + 16 * (rec.delta.insert.size() + rec.delta.remove.size()));
  encode_wal_record(payload, rec);
  if (payload.size() > kWalMaxPayloadBytes) {
    return Status::fail(StatusCode::kInvalidArgument, "wal record too large");
  }
  std::vector<std::uint8_t> framed;
  framed.reserve(kWalRecordHeaderBytes + payload.size());
  wire::put_u32(framed, kWalRecordMarker);
  wire::put_u32(framed, static_cast<std::uint32_t>(payload.size()));
  wire::put_u64(framed, wire::fnv1a_bytes(payload.data(), payload.size()));
  framed.insert(framed.end(), payload.begin(), payload.end());

  if (injector) {
    const FaultAction act = injector->next(FaultSite::kWalAppend);
    if (act.kind == FaultAction::Kind::kTearWrite) {
      // Put the same bytes on disk a mid-append crash would, then fail
      // the update. The tail stays dirty until healed (or, if the process
      // dies first, until recovery truncates it).
      const std::size_t tear = std::min<std::size_t>(
          static_cast<std::size_t>(act.amount), framed.size());
      (void)write_some(fd_, framed.data(), tear);
      dirty_tail_ = true;
      return Status::fail(StatusCode::kUnavailable, "injected torn wal append");
    }
  }

  if (write_some(fd_, framed.data(), framed.size()) != framed.size()) {
    dirty_tail_ = true;
    return errno_status("wal append");
  }

  bool need_sync = false;
  switch (opt_.fsync) {
    case FsyncPolicy::kEveryBatch:
      need_sync = true;
      break;
    case FsyncPolicy::kEveryN:
      need_sync = ++since_fsync_ >= std::max<std::uint64_t>(opt_.fsync_every_n, 1);
      break;
    case FsyncPolicy::kOff:
      break;
  }
  if (need_sync) {
    if (injector) {
      const FaultAction act = injector->next(FaultSite::kWalFsync);
      if (act.kind == FaultAction::Kind::kFailOp) {
        // The bytes made it to the fd but durability is unknown — treat
        // the record as uncommitted and cut it back out, exactly like a
        // real fsync error.
        dirty_tail_ = true;
        return Status::fail(StatusCode::kUnavailable, "injected wal fsync failure");
      }
    }
    Status s = do_fsync_(metrics);
    if (!s.ok()) {
      dirty_tail_ = true;
      return s;
    }
  }

  committed_ += framed.size();
  ++records_;
  bytes_ += framed.size();
  if (metrics) metrics->bump(metrics->wal_records);
  return Status::success();
}

Status WalWriter::sync(ServerMetrics* metrics) {
  if (sealed_) {
    return Status::fail(StatusCode::kUnavailable, "wal writer sealed");
  }
  if (fd_ < 0) return Status::success();
  if (dirty_tail_) {
    Status s = heal_tail_();
    if (!s.ok()) return s;
  }
  return do_fsync_(metrics);
}

Status WalWriter::rotate(std::uint64_t first_epoch, ServerMetrics* metrics) {
  Status s = sync(metrics);
  if (!s.ok()) return s;
  const std::string dir = dir_;
  const WalOptions opt = opt_;
  close();
  return open(dir, first_epoch, opt);
}

void WalWriter::close() {
  if (fd_ >= 0) {
    if (dirty_tail_) {
      // An orderly close must not leave an un-acknowledged record behind:
      // the client was told the append failed and will retry it. Best
      // effort — if the truncate fails we are in the crash case anyway,
      // and the recovery scan owns the tail.
      (void)ftruncate_retry(fd_, static_cast<off_t>(committed_));
    }
    ::close(fd_);
    fd_ = -1;
  }
  committed_ = 0;
  dirty_tail_ = false;
}

// ---- reader -----------------------------------------------------------------

Status scan_wal_segment(const std::string& path, WalScan* out) {
  *out = WalScan{};
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno_status("wal scan open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status s = errno_status("wal scan fstat");
    ::close(fd);
    return s;
  }
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < buf.size()) {
    const ssize_t r = ::read(fd, buf.data() + got, buf.size() - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      const Status s = errno_status("wal scan read");
      ::close(fd);
      return s;
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  ::close(fd);
  buf.resize(got);
  out->file_bytes = got;

  if (got < kWalSegmentHeaderBytes ||
      std::memcmp(buf.data(), kWalMagic, 8) != 0 ||
      wire::get_u32(buf.data() + 8) != kWalVersion) {
    out->torn = true;
    out->torn_reason = "invalid segment header";
    out->valid_bytes = 0;
    return Status::fail(StatusCode::kInvalidArgument,
                        "wal segment header invalid: " + path);
  }
  out->version = wire::get_u32(buf.data() + 8);
  out->first_epoch = wire::get_u64(buf.data() + 12);

  std::size_t off = kWalSegmentHeaderBytes;
  out->valid_bytes = off;
  std::uint64_t expect_epoch = out->first_epoch;
  auto stop = [&](const char* why) {
    out->torn = true;
    out->torn_reason = why;
  };
  while (off + kWalRecordHeaderBytes <= got) {
    const std::uint8_t* p = buf.data() + off;
    if (wire::get_u32(p) != kWalRecordMarker) {
      stop("bad record marker");
      break;
    }
    const std::uint32_t len = wire::get_u32(p + 4);
    if (len == 0 || len > kWalMaxPayloadBytes) {
      stop("impossible record length");
      break;
    }
    if (off + kWalRecordHeaderBytes + len > got) {
      stop("short payload (torn tail)");
      break;
    }
    const std::uint64_t sum = wire::get_u64(p + 8);
    const std::uint8_t* payload = p + kWalRecordHeaderBytes;
    if (wire::fnv1a_bytes(payload, len) != sum) {
      stop("record checksum mismatch");
      break;
    }
    WalRecord rec;
    if (Status s = decode_wal_record(payload, len, &rec); !s.ok()) {
      // The checksum matched, so these are the bytes the writer wrote: a
      // torn write cannot produce this. Corruption, never a tail to cut.
      return Status::fail(StatusCode::kInternal,
                          "wal record corrupt at byte " + std::to_string(off) +
                              " of " + path + ": " + s.message);
    }
    if (rec.epoch != expect_epoch) {
      stop("epoch discontinuity");
      break;
    }
    ++expect_epoch;
    out->records.push_back(std::move(rec));
    off += kWalRecordHeaderBytes + len;
    out->valid_bytes = off;
  }
  if (!out->torn && off < got) {
    stop("trailing bytes shorter than a record header");
  }
  return Status::success();
}

Status truncate_wal_segment(const std::string& path, std::uint64_t valid_bytes) {
  int r;
  do {
    r = ::truncate(path.c_str(), static_cast<off_t>(valid_bytes));
  } while (r != 0 && errno == EINTR);
  if (r != 0) return errno_status("wal truncate");
  return Status::success();
}

}  // namespace parsh::server
