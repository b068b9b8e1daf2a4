// WAL compaction: drop whole segments strictly below a checkpoint
// watermark.
//
// Once a checkpointed model bundle covers every record with
// lsn <= watermark, the segments holding only those records are dead
// weight — replay would fold them into state the checkpoint already
// contains.  CompactWal removes exactly those segments:
//
//   * a segment is removable iff it is not the tail and its successor's
//     first_lsn <= watermark + 1 (i.e. every record it holds has
//     lsn <= watermark);
//   * segments are removed oldest-first through util::RemoveFileDurably
//     (unlink, then directory fsync), each durable before the next, so
//     a crash or power cut mid-compaction leaves a log that is still a
//     contiguous, replayable suffix (possibly with more history than
//     strictly needed — never less);
//   * the tail segment is never removed, so a live WriteAheadLog
//     appending concurrently is unaffected (appends only touch the
//     tail; rotation only creates higher-seq segments).
//
// Callers pass a watermark no higher than the durable lsn and — when
// multiple checkpoints are retained for fallback — no higher than the
// *oldest* retained checkpoint's watermark, otherwise falling back to
// an older checkpoint after corruption would find its replay suffix
// compacted away (ckpt::CheckpointManager enforces this).
//
// Failure discipline is fail-stop, mirroring the log itself: an unlink
// or fsync error throws util::IoError and the caller must stop
// compacting (a half-removed segment set is detectable — replay's lsn
// continuity check names it — but continuing risks eating the suffix).
//
// Failpoint: wal.compact (before the first unlink).
// Metrics: ckpt.compacted_segments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/attrs.hpp"

namespace cfsf::wal {

struct CompactResult {
  std::size_t removed_segments = 0;
  std::uint64_t removed_bytes = 0;
  /// first_lsn of the oldest surviving segment (= 1 + the highest lsn
  /// provably covered by checkpoints after this pass).
  std::uint64_t first_retained_lsn = 1;
  std::vector<std::string> removed;  // file names, oldest first
};

/// Removes every whole segment of the log in `dir` whose records all
/// have lsn <= watermark_lsn, never the tail.  Safe to run while a
/// WriteAheadLog has the directory open.  Throws util::IoError on
/// unlink/fsync failure (fail-stop: do not retry blindly) and on an
/// unreadable segment header.
CompactResult CompactWal(const std::string& dir, std::uint64_t watermark_lsn)
    CFSF_BLOCKING;

}  // namespace cfsf::wal
