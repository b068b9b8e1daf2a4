// DeltaFolder — folds durably acked ratings into the serving model.
//
// The online half of durable ingestion: the WAL makes a rating
// durable, this folder makes it *visible*.  A background thread waits
// in WriteAheadLog::WaitForAcked until the log acks a record, drains
// everything acked since its last fold (so batches grow with load),
// folds the batch with one CfsfModel::WithRatings call (no K-means
// restart) and publishes the new immutable model through
// ModelGeneration::Install, the only way a generation becomes active.
// The install happens under the folder's lock, so generations go live
// in fold order even when FoldOnce and PublishNow race.  The folder
// keeps a shared pointer to the model it last published as the base of
// the next fold; it never mutates or copies a model.  Requests in
// flight keep the generation they pinned; the next request sees the
// fold.
//
// Staleness — the time from a record's durable ack to the generation
// swap that makes it predictable — is first-class: the wal.staleness_us
// histogram takes one sample per folded record, from its ack to the
// Install that made it visible (a skipped record is never visible, so
// it gets none).  wal.fold.latency_us times each fold's WithRatings
// call.  wal.folded_records / wal.fold.skipped /
// wal.fold.publishes / wal.fold.failures count the traffic (skipped =
// user or item outside the model's dimensions).  The fold never enrols:
// a new user's cluster depends on the model it joins, so enrolling
// inside a batch would make the result depend on how the records were
// batched, and recovery, which folds the WAL suffix as one batch, would
// no longer match the live folds.  Enrolment is
// CfsfModel::WithNewUser's job.  Skipped records are surfaced, not
// silent: /healthz reports the backlog and the folder logs a
// rate-limited warning, so an out-of-matrix flood is an operator signal
// rather than a quiet metric.
//
// A fold that throws (serve.fold, or a fault inside WithRatings) keeps
// its batch: the next cycle folds it first, ahead of the records
// drained since.  The log's queue is empty by then, so the background
// thread retries after a fixed delay rather than waiting for the next
// ack.  Stop() wakes the thread through WriteAheadLog::Wake.
//
// The folder is also the checkpoint subsystem's snapshot source: it
// tracks the fold watermark — the highest WAL lsn drained into the
// model (folded *or* skipped; a skipped record is permanently
// unfoldable, so replaying it after a restart changes nothing; a record
// of a failed fold is neither, so the watermark stays below it) — and
// Snapshot() returns {last published model, watermark} under one lock,
// the consistent pair ckpt::CheckpointManager persists.  With the
// folder as the generation's only publisher (as in `cfsf_cli serve`),
// that model is the one ModelGeneration::Active() serves; reading it
// here keeps the model and its watermark one pair.
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
  /// folder folds into and checkpoints.  `initial_watermark` is the WAL
  /// lsn already folded into `model` — the watermark recovery restored
  /// from, so the fold watermark never moves backwards across a restart.
  DeltaFolder(wal::WriteAheadLog& log, ModelGeneration& models,
              std::shared_ptr<core::CfsfModel> model,
              std::uint64_t initial_watermark = 0);
  ~DeltaFolder();  // Stop()

  DeltaFolder(const DeltaFolder&) = delete;
  DeltaFolder& operator=(const DeltaFolder&) = delete;

  /// Installs the folder's model as the active generation (first boot,
  /// or forcing visibility in tests).  Returns the generation id.
  std::uint64_t PublishNow() CFSF_EXCLUDES(mutex_);

  /// One synchronous drain → fold → publish cycle; returns how many
  /// records it folded or skipped, a failed fold's batch included.
  /// Publishes only when something folded.  Rethrows a fold failure,
  /// keeping the batch for the next cycle.
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

  mutable util::Mutex mutex_;
  /// The last published model (or the constructor's, before the first
  /// fold).  Never mutated: each fold replaces the pointer.
  std::shared_ptr<core::CfsfModel> model_ CFSF_GUARDED_BY(mutex_);
  /// Drained records the fold has neither folded nor skipped, in lsn
  /// order: empty between cycles unless the last fold failed.
  std::vector<wal::AckedRecord> unfolded_ CFSF_GUARDED_BY(mutex_);
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
