// Recovery scan of a write-ahead log directory.
//
// ReplayLog walks the segments in sequence order and reconstructs the
// exact record sequence the writer durably produced.  The recovery
// invariant (proven by tests/wal_crash_test.cpp) is:
//
//   * every record whose append was acknowledged is returned, in order,
//     bit-identical to what was appended;
//   * a torn tail — a crash mid-append or mid-rotate — is truncated at
//     the first bad frame of the *last* segment and never yields a
//     corrupt or duplicated record;
//   * damage anywhere else (a bad CRC in a non-tail segment, a broken
//     header, an lsn discontinuity) is not a tear but corruption, and
//     replay rejects the log with an IoError naming the segment and
//     byte offset rather than guessing.
//
// A compacted log (wal/compact.hpp) starts at whatever segment
// survived: replay takes the lsn sequence from the first segment's
// header, so records below the compaction watermark are simply absent,
// not an error.  `first_lsn` reports where the surviving history
// begins.
//
// With `repair` set (the WriteAheadLog constructor's mode) the torn
// tail is also truncated on disk and orphaned `.tmp` segments are
// removed, so the reopened log appends from a clean frame boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "matrix/types.hpp"

namespace cfsf::wal {

struct ReplayOptions {
  /// Truncate the torn tail on disk and delete `.tmp` leftovers.
  bool repair = false;
};

struct RecoveredRecord {
  matrix::RatingTriple record;
  std::uint64_t lsn = 0;
  /// Client idempotency token persisted in the frame (0 = none).
  std::uint64_t request_id = 0;
};

/// Per-segment summary, in sequence order (`cfsf_cli wal-dump` renders
/// these as the per-segment lsn ranges).
struct SegmentInfo {
  std::uint64_t seq = 0;
  std::uint64_t first_lsn = 0;
  /// Lsn of the segment's last surviving record; first_lsn - 1 when the
  /// segment holds none.
  std::uint64_t last_lsn = 0;
  std::size_t records = 0;
  std::uint64_t bytes = 0;
};

struct ReplayResult {
  /// Every durably written record, in lsn order.
  std::vector<RecoveredRecord> records;
  /// Lsn the next append gets (1 for an empty log).
  std::uint64_t next_lsn = 1;
  /// Lsn of the oldest surviving record — 1 until compaction has
  /// removed whole segments, then the first retained segment's
  /// first_lsn.  Everything below it is covered by a checkpoint.
  std::uint64_t first_lsn = 1;
  /// Sequence number of the tail segment (0 when the log is empty).
  std::uint64_t tail_seq = 0;
  /// Byte size of the tail segment after tail truncation.
  std::uint64_t tail_bytes = 0;
  std::size_t segments = 0;
  std::vector<SegmentInfo> segment_infos;
  /// Frames dropped from the torn tail (partial frames count as one).
  std::size_t truncated_records = 0;
  std::size_t truncated_bytes = 0;
  std::size_t removed_tmp = 0;
};

/// Scans `dir`.  Throws util::IoError on corruption outside the torn
/// tail (diagnostic names the segment and offset), on a segment whose
/// format version is not kFormatVersion (names the segment and the
/// version; nothing on disk is repaired), and when `dir` does not
/// exist.  Failpoint: wal.replay (scan entry).
ReplayResult ReplayLog(const std::string& dir, const ReplayOptions& options = {});

}  // namespace cfsf::wal
