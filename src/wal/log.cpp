#include "wal/log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "obs/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/error.hpp"
#include "wal/format.hpp"

namespace cfsf::wal {

namespace {

namespace fs = std::filesystem;

struct WalMetrics {
  obs::Counter& appends;
  obs::Counter& fsyncs;
  obs::Counter& rotations;
  obs::Counter& unavailable;
  obs::Counter& dedup_hits;
  obs::Gauge& dedup_entries;
  obs::Histogram& append_latency_us;

  static WalMetrics& Instance() {
    static WalMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return WalMetrics{
          registry.GetCounter(obs::names::kWalAppends),
          registry.GetCounter(obs::names::kWalFsyncs),
          registry.GetCounter(obs::names::kWalRotations),
          registry.GetCounter(obs::names::kWalUnavailable),
          registry.GetCounter(obs::names::kWalDedupHits),
          registry.GetGauge(obs::names::kWalDedupEntries),
          registry.GetHistogram(obs::names::kWalAppendLatencyUs,
                                obs::LatencyBucketsUs()),
      };
    }();
    return metrics;
  }
};

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Full write with EINTR retry; false leaves `written` at the byte
/// count that actually reached the file.
bool WriteAllFd(int fd, const unsigned char* data, std::size_t size,
                std::size_t* written) {
  *written = 0;
  while (*written < size) {
    const ssize_t n = ::write(fd, data + *written, size - *written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    *written += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string dir, const WalOptions& options,
                             std::vector<RecoveredRecord>* recovered)
    : dir_(std::move(dir)), options_(options) {
  CFSF_REQUIRE(
      options_.max_segment_bytes >= kSegmentHeaderBytes + kRecordBytes,
      "WriteAheadLog: max_segment_bytes must hold a header and one record");

  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw util::IoError("wal: cannot create directory " + dir_ + ": " +
                        ec.message());
  }

  ReplayResult replay = ReplayLog(dir_, ReplayOptions{/*repair=*/true});

  util::MutexLock lock(&mutex_);
  dir_fd_ = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd_ < 0) {
    throw util::IoError(Errno("wal: cannot open directory " + dir_));
  }
  next_lsn_ = replay.next_lsn;
  durable_lsn_ = replay.next_lsn - 1;
  // Rebuild the dedup window from the surviving records, so a client
  // retry that straddles a restart still hits the original lsn.
  if (options_.dedup_window > 0) {
    for (const RecoveredRecord& rec : replay.records) {
      if (rec.request_id != 0 &&
          rec.lsn + options_.dedup_window >= next_lsn_) {
        RememberRequestLocked(rec.request_id, rec.lsn);
      }
    }
  }
  if (recovered != nullptr) *recovered = std::move(replay.records);
  healthy_ = true;
  if (replay.tail_seq != 0 &&
      replay.segment_infos.back().version == kFormatVersion) {
    const std::string path =
        (fs::path(dir_) / SegmentFileName(replay.tail_seq)).string();
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) {
      healthy_ = false;
      throw util::IoError(Errno("wal: cannot open tail segment " + path));
    }
    segment_seq_ = replay.tail_seq;
    segment_bytes_ = replay.tail_bytes;
  } else if (replay.tail_seq != 0) {
    // The tail predates the current format: its header declares a
    // different frame stride, so appending kRecordBytes frames would
    // read back as a torn tail and be truncated — losing acked records.
    // Seal it and append into a fresh current-version segment.
    CreateSegmentLocked(replay.tail_seq + 1, next_lsn_);
  } else {
    CreateSegmentLocked(1, next_lsn_);
  }
}

WriteAheadLog::~WriteAheadLog() {
  try {
    Close();
  } catch (...) {
    // Destructor: the final barrier failing must not terminate.
  }
}

void WriteAheadLog::CreateSegmentLocked(std::uint64_t seq,
                                        std::uint64_t first_lsn) {
  const fs::path final_path = fs::path(dir_) / SegmentFileName(seq);
  const fs::path tmp_path = final_path.string() + ".tmp";

  unsigned char header[kSegmentHeaderBytes];
  EncodeSegmentHeader(SegmentHeader{kFormatVersion, seq, first_lsn}, header);

  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw util::IoError(Errno("wal: cannot create " + tmp_path.string()));
  }
  std::size_t written = 0;
  // The same discipline as bundle-v2 saves: fully written and fsynced
  // under the tmp name, renamed into place, directory entry fsynced —
  // a crash at any point leaves either no segment or a complete one.
  if (!WriteAllFd(fd, header, sizeof(header), &written) || ::fsync(fd) != 0) {
    const std::string why = Errno("wal: cannot write segment header");
    ::close(fd);
    ::unlink(tmp_path.c_str());
    throw util::IoError(why);
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const std::string why = Errno("wal: cannot rename " + tmp_path.string());
    ::close(fd);
    ::unlink(tmp_path.c_str());
    throw util::IoError(why);
  }
  if (::fsync(dir_fd_) != 0) {
    const std::string why = Errno("wal: cannot fsync directory " + dir_);
    ::close(fd);
    throw util::IoError(why);
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  segment_seq_ = seq;
  segment_bytes_ = kSegmentHeaderBytes;
}

void WriteAheadLog::RotateLocked() {
  // Seal the old segment with a barrier before its fd goes away;
  // SyncLocked poisons on failure.
  SyncLocked();
  try {
    CFSF_FAILPOINT("wal.rotate");
    CreateSegmentLocked(segment_seq_ + 1, next_lsn_);
    WalMetrics::Instance().rotations.Increment();
  } catch (const util::IoError& e) {
    // A half-done rotation leaves the tail ambiguous; fail stop.
    PoisonLocked(std::string("rotation failed: ") + e.what());
    throw;
  }
}

void WriteAheadLog::SyncLocked() {
  try {
    CFSF_FAILPOINT("wal.fsync");
    if (::fsync(fd_) != 0) {
      throw util::IoError(Errno("wal: fsync failed"));
    }
  } catch (const util::IoError& e) {
    // After a failed fsync the kernel may have dropped dirty pages; no
    // later success can prove these records are on disk.  Fail stop.
    PoisonLocked(std::string("durability barrier failed: ") + e.what());
    throw;
  }
  WalMetrics::Instance().fsyncs.Increment();
  durable_lsn_ = next_lsn_ - 1;
}

void WriteAheadLog::RememberRequestLocked(std::uint64_t request_id,
                                          std::uint64_t lsn) {
  dedup_[request_id] = lsn;
  dedup_fifo_.emplace_back(lsn, request_id);
  while (!dedup_fifo_.empty() &&
         dedup_fifo_.front().first + options_.dedup_window < next_lsn_) {
    const auto& [old_lsn, old_id] = dedup_fifo_.front();
    const auto it = dedup_.find(old_id);
    // Only evict if the map still points at this lsn — a reused request
    // id (client bug, but possible) may have refreshed the entry.
    if (it != dedup_.end() && it->second == old_lsn) dedup_.erase(it);
    dedup_fifo_.pop_front();
  }
  WalMetrics::Instance().dedup_entries.Set(static_cast<double>(dedup_.size()));
}

void WriteAheadLog::PoisonLocked(const std::string& reason) {
  healthy_ = false;
  unavailable_reason_ = reason;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

AppendAck WriteAheadLog::Append(const matrix::RatingTriple& record,
                                bool /*require_durable*/,
                                std::uint64_t request_id) {
  const auto start = std::chrono::steady_clock::now();
  WalMetrics& metrics = WalMetrics::Instance();
  util::MutexLock lock(&mutex_);
  if (!healthy_) {
    metrics.unavailable.Increment();
    throw util::IoError("wal unavailable: " + unavailable_reason_);
  }
  // Before any bytes: a trip refuses this record but tears nothing, so
  // the log stays serviceable.
  CFSF_FAILPOINT("wal.append");

  if (request_id != 0 && options_.dedup_window > 0) {
    const auto hit = dedup_.find(request_id);
    if (hit != dedup_.end()) {
      // An at-least-once retry: the original record is already durable
      // in the log (and possibly folded), so re-ack it instead of
      // writing a duplicate the folder would double-apply.
      metrics.dedup_hits.Increment();
      return AppendAck{hit->second, true};
    }
  }

  if (segment_bytes_ + kRecordBytes > options_.max_segment_bytes) {
    RotateLocked();
  }

  unsigned char frame[kRecordBytes];
  EncodeRecord(record, request_id, frame);
  std::size_t written = 0;
  if (!WriteAllFd(fd_, frame, sizeof(frame), &written)) {
    const std::string why = Errno("wal: append write failed");
    if (written == 0 || ::ftruncate(fd_, static_cast<off_t>(segment_bytes_)) ==
                            0) {
      // The partial frame is gone; the tail is back on a frame
      // boundary and the log keeps serving.
      throw util::IoError(why);
    }
    // Could not rewind: a torn frame sits mid-file.  Replay would stop
    // there, silently dropping anything written after it — fail stop
    // instead.
    PoisonLocked(why + " (and the torn frame could not be truncated)");
    throw util::IoError("wal unavailable: " + unavailable_reason_);
  }

  const std::uint64_t lsn = next_lsn_++;
  segment_bytes_ += kRecordBytes;
  // The ack point: nothing below is reached unless the record is on
  // disk.  A failed barrier poisons the log and throws, unacked.
  SyncLocked();
  const auto acked_at = std::chrono::steady_clock::now();
  acked_.push_back(AckedRecord{record, lsn, request_id, acked_at});
  if (request_id != 0 && options_.dedup_window > 0) {
    RememberRequestLocked(request_id, lsn);
  }

  metrics.appends.Increment();
  metrics.append_latency_us.Record(
      std::chrono::duration<double, std::micro>(acked_at - start).count());
  return AppendAck{lsn};
}

std::size_t WriteAheadLog::DrainAcked(std::vector<AckedRecord>* out) {
  util::MutexLock lock(&mutex_);
  const std::size_t count = acked_.size();
  if (count != 0) {
    out->insert(out->end(), std::make_move_iterator(acked_.begin()),
                std::make_move_iterator(acked_.end()));
    acked_.clear();
  }
  return count;
}

bool WriteAheadLog::available() const {
  util::MutexLock lock(&mutex_);
  return healthy_;
}

std::string WriteAheadLog::unavailable_reason() const {
  util::MutexLock lock(&mutex_);
  return unavailable_reason_;
}

std::uint64_t WriteAheadLog::next_lsn() const {
  util::MutexLock lock(&mutex_);
  return next_lsn_;
}

std::uint64_t WriteAheadLog::durable_lsn() const {
  util::MutexLock lock(&mutex_);
  return durable_lsn_;
}

std::size_t WriteAheadLog::dedup_entries() const {
  util::MutexLock lock(&mutex_);
  return dedup_.size();
}

void WriteAheadLog::Close() {
  util::MutexLock lock(&mutex_);
  if (!healthy_) {
    if (dir_fd_ >= 0) {
      ::close(dir_fd_);
      dir_fd_ = -1;
    }
    return;
  }
  try {
    SyncLocked();
  } catch (...) {
    if (dir_fd_ >= 0) {
      ::close(dir_fd_);
      dir_fd_ = -1;
    }
    throw;
  }
  PoisonLocked("closed");
  unavailable_reason_ = "closed";
  if (dir_fd_ >= 0) {
    ::close(dir_fd_);
    dir_fd_ = -1;
  }
}

}  // namespace cfsf::wal
