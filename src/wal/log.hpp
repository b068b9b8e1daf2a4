// WriteAheadLog — crash-safe, segmented, append-only rating log.
//
// The durability foundation of the online-learning path (ROADMAP open
// item 3): a rating accepted at serve time lands here *before* it is
// acknowledged, so a process crash can lose at most the records whose
// acks never went out.  The contract, proven by the kill-recover
// harness in tests/wal_crash_test.cpp:
//
//   acked    =>  durable   an Append that returns has fsynced its
//                          record (file and, across rotations, the
//                          directory entry); the record survives replay
//   crashed  =>  prefix    recovery yields an exact prefix of the
//                          appended sequence — a torn tail is dropped,
//                          never a corrupt or duplicated record
//
// Records are fixed-size CRC-framed triples (wal/format.hpp) in
// size-capped segments.  Each segment is created through
// util::WriteFileDurably (header to a tmp file, fsync, rename,
// directory fsync) and then opened for append; the frame write and the
// fsync barrier go through util::WriteAll and util::SyncFile.  Every
// Append runs the barrier before it returns, so there is one
// durability rule: a record is acked, and drainable, exactly when it is
// durable.  The consumer (serve::DeltaFolder) blocks in WaitForAcked;
// Append wakes it once the record is acked, and Wake() ends its wait at
// shutdown.
//
// Failure discipline is fail-stop: an fsync or rotation failure leaves
// the log's durability state unknowable, so the log poisons itself and
// every later Append throws — the serving layer degrades to read-only
// (503 kUnavailable) instead of acking writes it cannot keep.  A plain
// write failure rewinds the file to the last frame boundary and only
// refuses that one record.  Already-acked records stay drainable.
//
// Idempotent ingestion: an Append may carry a client request id (the
// persisted hash of the X-CFSF-Request-Id header).  The log keeps a
// bounded, lsn-windowed dedup table — request id -> lsn for every
// identified record within the trailing `dedup_window` lsns — rebuilt
// from the replayed records at open, so an at-least-once client retry
// after a timeout (or across a restart) returns the original record's
// ack (`deduplicated` set) instead of appending a duplicate.  A record
// the dedup table absorbs is never re-acked to DrainAcked, so it can
// never double-fold into the model.
//
// Failpoints: wal.append (before any bytes), wal.fsync, wal.rotate.
// Metrics: wal.appends / wal.fsyncs / wal.rotations / wal.unavailable /
// wal.dedup.hits counters, wal.dedup.entries gauge,
// wal.append.latency_us histogram; replay adds
// wal.replay.{recovered,truncated}.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "matrix/types.hpp"
#include "util/attrs.hpp"
#include "util/mutex.hpp"
#include "wal/replay.hpp"

namespace cfsf::wal {

struct WalOptions {
  /// A segment past this size rotates before the next append.  Must
  /// hold the header plus at least one record.
  std::uint64_t max_segment_bytes = 4u << 20;
  /// How far back (in lsns) the request-id dedup table remembers.  A
  /// retry arriving more than this many appends after the original is
  /// applied again — the window bounds memory, it is not a correctness
  /// proof against arbitrarily stale retries.  0 disables dedup.
  std::uint64_t dedup_window = 1u << 16;
};

struct AppendAck {
  std::uint64_t lsn = 0;
  /// True when the record's request id matched one inside the dedup
  /// window: `lsn` is the *original* record's, nothing new was written.
  bool deduplicated = false;
};

/// One durably acknowledged record, as handed to DrainAcked consumers
/// (the serve::DeltaFolder).  `acked_at` feeds the wal.staleness_us
/// histogram (ack → visible in predictions).
struct AckedRecord {
  matrix::RatingTriple record;
  std::uint64_t lsn = 0;
  std::uint64_t request_id = 0;
  std::chrono::steady_clock::time_point acked_at;
};

class WriteAheadLog {
 public:
  /// Opens (creating the directory durably if needed) and recovers: replays
  /// existing segments with repair (torn tail truncated on disk, tmp
  /// leftovers removed) and positions the next append after the last
  /// durable record.  When `recovered` is non-null the replayed records
  /// are moved into it so the caller can fold them into its model.
  /// Throws util::IoError on unrecoverable corruption.
  explicit WriteAheadLog(std::string dir, const WalOptions& options = {},
                         std::vector<RecoveredRecord>* recovered = nullptr);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one record and returns once it is fsynced; only then is
  /// it handed to DrainAcked.  Throws util::IoError when the log is
  /// unavailable (poisoned or closed) or the record cannot be written
  /// or synced; a refused record is never acked, and never partially
  /// present on disk.  A nonzero `request_id` that matches a record
  /// inside the dedup window returns that record's ack (`deduplicated`
  /// set) without writing anything.
  ///
  /// `require_durable` is not read: every append is durable.  It stays
  /// only because bench/perfbench/bench.cpp passes `true` as the second
  /// argument, which without it would bind to `request_id` and turn
  /// that benchmark's appends into dedup hits.  Delete it once that
  /// benchmark stops passing it, and drop it from every call site in
  /// the same change so that no argument shifts into its slot.
  AppendAck Append(const matrix::RatingTriple& record,
                   bool require_durable = false,
                   std::uint64_t request_id = 0)
      CFSF_BLOCKING CFSF_EXCLUDES(mutex_);

  /// Moves every acknowledged (so durable), not-yet-drained record into
  /// `out` (appended, lsn order).  Returns how many were moved.  Still
  /// valid on a poisoned log — what was acked stays acked.
  std::size_t DrainAcked(std::vector<AckedRecord>* out) CFSF_EXCLUDES(mutex_);

  /// Blocks until an acked record awaits DrainAcked, `until` passes, or
  /// Wake() has been called since the last WaitForAcked returned.  The
  /// log has one waiter (the DeltaFolder's loop).  Append wakes it only
  /// after its fsync, so a woken waiter never drains a record that is
  /// not durable.
  void WaitForAcked(std::chrono::steady_clock::time_point until)
      CFSF_BLOCKING CFSF_EXCLUDES(mutex_);
  /// Ends the current or next WaitForAcked at once (the waiter's
  /// shutdown signal).  Sticky, so a wake that lands before the waiter
  /// parks is not lost.
  void Wake() CFSF_EXCLUDES(mutex_);

  /// False once the log has fail-stopped (or been closed).
  bool available() const CFSF_EXCLUDES(mutex_);
  std::string unavailable_reason() const CFSF_EXCLUDES(mutex_);

  /// Lsn the next Append would get.
  std::uint64_t next_lsn() const CFSF_EXCLUDES(mutex_);
  /// Highest fsynced lsn (0 when none).
  std::uint64_t durable_lsn() const CFSF_EXCLUDES(mutex_);
  /// Live request-id entries in the dedup window.
  std::size_t dedup_entries() const CFSF_EXCLUDES(mutex_);

  const std::string& dir() const { return dir_; }
  const WalOptions& options() const { return options_; }

  /// Graceful shutdown: closes the tail segment.  No barrier is left to
  /// run — every acked record was fsynced before its Append returned.
  /// Idempotent; the destructor calls it.
  void Close() CFSF_BLOCKING CFSF_EXCLUDES(mutex_);

 private:
  void CreateSegmentLocked(std::uint64_t seq, std::uint64_t first_lsn)
      CFSF_REQUIRES(mutex_);
  /// Makes segment `seq`, `bytes` long, the append target.
  void OpenSegmentLocked(std::uint64_t seq, std::uint64_t bytes)
      CFSF_REQUIRES(mutex_);
  void RotateLocked() CFSF_REQUIRES(mutex_);
  /// The durability barrier: fsyncs the tail segment.  Poisons and
  /// rethrows on failure.
  void SyncLocked() CFSF_REQUIRES(mutex_);
  void PoisonLocked(const std::string& reason) CFSF_REQUIRES(mutex_);
  /// Records request_id -> lsn and evicts entries older than the
  /// window (amortized O(1): the fifo is pruned from the front).
  void RememberRequestLocked(std::uint64_t request_id, std::uint64_t lsn)
      CFSF_REQUIRES(mutex_);

  const std::string dir_;
  const WalOptions options_;

  mutable util::Mutex mutex_;
  bool healthy_ CFSF_GUARDED_BY(mutex_) = false;
  std::string unavailable_reason_ CFSF_GUARDED_BY(mutex_);
  int fd_ CFSF_GUARDED_BY(mutex_) = -1;  // tail segment
  std::string segment_path_ CFSF_GUARDED_BY(mutex_);
  std::uint64_t segment_seq_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t segment_bytes_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_lsn_ CFSF_GUARDED_BY(mutex_) = 1;
  std::uint64_t durable_lsn_ CFSF_GUARDED_BY(mutex_) = 0;
  /// Fsynced, awaiting DrainAcked.
  std::vector<AckedRecord> acked_ CFSF_GUARDED_BY(mutex_);
  /// Signalled when acked_ grows or Wake() is called.
  util::CondVar acked_cv_;
  /// Set by Wake(), cleared when WaitForAcked returns.
  bool wake_ CFSF_GUARDED_BY(mutex_) = false;
  /// request id -> lsn of the identified records inside the dedup
  /// window; the fifo (insertion order == lsn order) drives eviction.
  std::unordered_map<std::uint64_t, std::uint64_t> dedup_
      CFSF_GUARDED_BY(mutex_);
  std::deque<std::pair<std::uint64_t, std::uint64_t>> dedup_fifo_
      CFSF_GUARDED_BY(mutex_);
};

}  // namespace cfsf::wal
