// CheckpointManager — periodic crash-safe model snapshots + WAL
// compaction.
//
// The write half of bounded-replay restart: a checkpoint persists the
// DeltaFolder's {last published model, fold watermark} pair so the next
// boot folds only the WAL suffix past the watermark instead of
// replaying history from record zero.  One checkpoint is:
//
//   1. snapshot    folder.Snapshot() — the shared model pointer +
//                  watermark read under one lock, no copy, so the pair
//                  is consistent by construction
//   2. bundle      core::SaveModel to ckpt-<id>.model (format v2:
//                  CRC'd sections, tmp+rename) + directory fsync,
//                  then a full VerifyModel read-back — a checkpoint
//                  that cannot be re-read never gets a manifest
//   3. manifest    ckpt-<id>.manifest binding the bundle to the
//                  watermark (ckpt/manifest.hpp), atomic — the commit
//                  point: the bundle is invisible to recovery until
//                  this rename lands, and the newest checkpoint from
//                  the moment it does
//   4. GC          checkpoints beyond keep_last are unlinked,
//                  manifest first (so a crash never leaves a manifest
//                  pointing at a missing bundle)
//   5. compaction  wal::CompactWal below the *minimum* watermark over
//                  the retained checkpoints — the oldest fallback
//                  candidate must still find its replay suffix, so
//                  compaction is bounded by the weakest retained
//                  checkpoint, not the newest
//
// A crash at any point leaves the newest committed checkpoint intact —
// the one in flight once its manifest has landed, the previous one
// before — and the WAL uncompacted past what retained checkpoints
// cover; the kill-recover harness (tests/ckpt_crash_test.cpp)
// SIGKILLs inside every step and asserts exactly that.
//
// Every successful checkpoint is followed by compaction.  Compaction
// failure is fail-stop: after one unlink/fsync error the manager never
// compacts again (checkpoints keep being written; the log grows until
// an operator intervenes).  Checkpoint failure is not: the next
// cadence tick retries with a fresh id.
//
// Failpoints: ckpt.write (step 2 entry), ckpt.manifest (step 3 entry),
// wal.compact (step 5, inside CompactWal).  Metrics: ckpt.writes,
// ckpt.write.failures, ckpt.last_id, ckpt.watermark,
// ckpt.compacted_segments, ckpt.compact.failures.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "serve/delta_folder.hpp"
#include "util/attrs.hpp"
#include "util/mutex.hpp"
#include "wal/log.hpp"

namespace cfsf::ckpt {

struct CheckpointOptions {
  std::string dir;
  /// Checkpoints retained for corruption fallback (the compaction
  /// bound); must be >= 1.
  std::size_t keep_last = 2;
  /// Background cadence of Start()'s thread (also the Stop() latency
  /// bound); each tick checkpoints only when the watermark advanced.
  std::chrono::milliseconds interval{5000};
};

/// A point-in-time view for /healthz and tests.
struct CheckpointStatus {
  std::uint64_t last_id = 0;         // 0 = none written or found yet
  std::uint64_t last_watermark = 0;
  std::uint64_t writes = 0;
  std::uint64_t failures = 0;
  std::uint64_t compacted_segments = 0;
  bool compaction_failed = false;
  std::string last_error;
};

class CheckpointManager {
 public:
  /// `folder` and `log` must outlive the manager.  Creates `dir` if
  /// needed and resumes id numbering past any checkpoints already
  /// there.  Throws util::IoError when the directory cannot be made.
  CheckpointManager(serve::DeltaFolder& folder, wal::WriteAheadLog& log,
                    const CheckpointOptions& options);
  ~CheckpointManager();  // Stop()

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// One synchronous checkpoint (the admin/CLI trigger and the cadence
  /// body).  Returns the new checkpoint id, or 0 when skipped because
  /// the fold watermark has not advanced past the last checkpoint.
  /// Throws util::IoError on write/verify failure — no manifest names
  /// the checkpoint in that case.  Compaction errors do not
  /// throw; they fail-stop compaction and surface in status().
  std::uint64_t CheckpointNow() CFSF_BLOCKING CFSF_EXCLUDES(mutex_);

  void Start() CFSF_EXCLUDES(mutex_);
  void Stop() CFSF_EXCLUDES(mutex_);

  CheckpointStatus status() const CFSF_EXCLUDES(mutex_);

  const CheckpointOptions& options() const { return options_; }

 private:
  void Loop();
  /// Unlinks checkpoints beyond keep_last; returns the minimum
  /// watermark over the retained, readable manifests (the compaction
  /// bound).
  std::uint64_t GarbageCollect(std::uint64_t newest_watermark);

  serve::DeltaFolder& folder_;
  wal::WriteAheadLog& log_;
  const CheckpointOptions options_;

  mutable util::Mutex mutex_;
  std::uint64_t next_id_ CFSF_GUARDED_BY(mutex_) = 1;
  std::uint64_t last_id_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t last_watermark_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t writes_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t failures_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t compacted_segments_ CFSF_GUARDED_BY(mutex_) = 0;
  bool compaction_failed_ CFSF_GUARDED_BY(mutex_) = false;
  std::string last_error_ CFSF_GUARDED_BY(mutex_);
  bool stop_ CFSF_GUARDED_BY(mutex_) = false;
  bool running_ CFSF_GUARDED_BY(mutex_) = false;
  /// Serializes whole checkpoints (CheckpointNow vs the cadence tick)
  /// without holding mutex_ across the I/O.  Lock order: io_mutex_
  /// before mutex_, always.
  util::Mutex io_mutex_;

  std::thread thread_;
};

}  // namespace cfsf::ckpt
