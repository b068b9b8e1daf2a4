// DeltaFolder — folds durably acked ratings into the serving model.
//
// The online half of durable ingestion: the WAL makes a rating
// durable, this folder makes it *visible*.  A background thread drains
// the log's acked queue, folds each drained batch with one
// CfsfModel::WithRatings call (no K-means restart) and publishes the
// new immutable model through ModelGeneration::Install, the same
// hot-swap path the mid-traffic soak already proves.  The folder keeps
// a shared pointer to the model it last published as the base of the
// next fold; it never mutates or copies a model.  Requests in flight
// keep the generation they pinned; the next request sees the fold.
//
// Staleness — the time from a record's durable ack to the generation
// swap that makes it predictable — is first-class: each publish sets
// the wal.staleness_us gauge to the oldest drained record's ack-to-
// publish latency.  wal.fold.latency_us times each fold's WithRatings
// call.  wal.folded_records / wal.fold.skipped /
// wal.fold.publishes count the traffic (skipped = user or item outside
// the model's dimensions; enrolment is AddUser's job, not the
// folder's).  Skipped records are surfaced, not silent: /healthz
// reports the backlog and the folder logs a rate-limited warning, so an
// out-of-matrix flood is an operator signal rather than a quiet metric.
//
// The folder is also the checkpoint subsystem's snapshot source: it
// tracks the fold watermark — the highest WAL lsn drained into the
// model (folded *or* skipped; a skipped record is permanently
// unfoldable, so replaying it after a restart changes nothing) — and
// Snapshot() returns {last published model, watermark} under one lock,
// the consistent pair ckpt::CheckpointManager persists.  It is not
// ModelGeneration::Active(): a bundle swapped in by LoadAndSwap holds
// none of the folded records, so checkpointing it at the fold watermark
// would lose acked ratings once compaction runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/cfsf_model.hpp"
#include "serve/model_generation.hpp"
#include "util/mutex.hpp"
#include "wal/log.hpp"

namespace cfsf::serve {

struct DeltaFolderOptions {
  /// Drain cadence of the background thread (also the Stop() latency
  /// bound).
  std::chrono::milliseconds poll_interval{20};
  /// WAL lsn already folded into the model at construction — the
  /// checkpoint watermark recovery restored from, so the fold watermark
  /// never moves backwards across a restart.
  std::uint64_t initial_watermark = 0;
  /// Minimum spacing of the skipped-records warning log line.
  std::chrono::seconds skip_warn_interval{10};
};

/// A consistent {model, watermark} pair: every WAL record with
/// lsn <= watermark is folded into (or recorded as unfoldable against)
/// the model the folder last published.  What a checkpoint persists.
struct FoldSnapshot {
  std::shared_ptr<const core::CfsfModel> model;
  std::uint64_t watermark = 0;
};

class DeltaFolder {
 public:
  /// `log` and `models` must outlive the folder.  `model` is the fitted
  /// model the first fold builds on; make it visible with PublishNow()
  /// rather than Install() directly, so that what is served is what the
  /// folder folds into and checkpoints.
  DeltaFolder(wal::WriteAheadLog& log, ModelGeneration& models,
              std::shared_ptr<core::CfsfModel> model,
              const DeltaFolderOptions& options = {});
  ~DeltaFolder();  // Stop()

  DeltaFolder(const DeltaFolder&) = delete;
  DeltaFolder& operator=(const DeltaFolder&) = delete;

  /// Installs the folder's model as the active generation (first boot,
  /// or forcing visibility in tests).  Returns the generation id.
  std::uint64_t PublishNow() CFSF_EXCLUDES(mutex_);

  /// One synchronous drain → fold → publish cycle; returns how many
  /// records were drained.  Publishes only when something folded.
  std::size_t FoldOnce() CFSF_EXCLUDES(mutex_);

  void Start() CFSF_EXCLUDES(mutex_);
  void Stop() CFSF_EXCLUDES(mutex_);

  /// The folder's model and its fold watermark, read under one lock —
  /// the checkpointable state.  No copy: the model is shared.
  FoldSnapshot Snapshot() const CFSF_EXCLUDES(mutex_);

  std::uint64_t folded_records() const CFSF_EXCLUDES(mutex_);
  std::uint64_t skipped_records() const CFSF_EXCLUDES(mutex_);
  std::uint64_t publishes() const CFSF_EXCLUDES(mutex_);
  /// Highest WAL lsn drained into the model (folded or skipped).
  std::uint64_t fold_watermark() const CFSF_EXCLUDES(mutex_);

 private:
  void Loop();

  wal::WriteAheadLog& log_;
  ModelGeneration& models_;
  const DeltaFolderOptions options_;

  mutable util::Mutex mutex_;
  /// The last published model (or the constructor's, before the first
  /// fold).  Never mutated: each fold replaces the pointer.
  std::shared_ptr<core::CfsfModel> model_ CFSF_GUARDED_BY(mutex_);
  std::uint64_t folded_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t skipped_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t publishes_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t watermark_ CFSF_GUARDED_BY(mutex_) = 0;
  std::chrono::steady_clock::time_point last_skip_warn_
      CFSF_GUARDED_BY(mutex_);
  bool stop_ CFSF_GUARDED_BY(mutex_) = false;
  bool running_ CFSF_GUARDED_BY(mutex_) = false;

  std::thread thread_;
};

}  // namespace cfsf::serve
