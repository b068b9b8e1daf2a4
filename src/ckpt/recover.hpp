// Recover — bounded-replay startup orchestration.
//
// The read half of checkpointed recovery: where `cfsf_cli serve
// --wal-dir` used to fold the *entire* WAL into the seed model (restart
// cost scaling with lifetime ingestion), Recover makes restart bounded
// by checkpoint cadence:
//
//   1. pick a checkpoint: every manifest, newest first (a manifest is
//      each checkpoint's commit point — ckpt/manifest.hpp).  A
//      candidate is used only if its manifest CRC checks, its bundle
//      passes the full section-by-section VerifyModel, the recorded
//      size matches, and LoadModel reconstructs — anything less falls
//      down the ladder (counting `ckpt.recovery.fallbacks`), never
//      crashes, never serves a silently wrong model;
//   2. seed fallback: when no checkpoint survives (or none exists),
//      `seed_model()` provides the starting state with watermark 0;
//   3. open the WAL (repair mode: torn tail truncated, tmp leftovers
//      removed) and fold ONLY records with lsn > watermark — everything
//      at or below it is already inside the bundle, so replaying it
//      would double-fold.  The suffix folds in one
//      CfsfModel::WithRatings call, the live DeltaFolder's fold;
//   4. report: ckpt.recovery_replayed_records / ckpt.recovery_us /
//      ckpt.recovery.fallbacks metrics, plus a RecoveryInfo the net
//      layer renders into /healthz.
//
// `degraded_history` flags the one unavoidable gap: falling all the way
// to the seed after compaction has removed segments means records in
// (0, first surviving lsn) are gone from both the checkpoints and the
// log.  With keep_last >= 2 retained checkpoints bounding compaction
// (the CheckpointManager's min-watermark rule) this requires every
// retained checkpoint to be corrupt at once; the flag makes even that
// case loud instead of silent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/cfsf_model.hpp"
#include "util/attrs.hpp"
#include "wal/log.hpp"

namespace cfsf::ckpt {

struct RecoverOptions {
  /// Checkpoint directory; empty (or absent) = no checkpoints, seed +
  /// full replay — the pre-checkpoint behaviour.
  std::string ckpt_dir;
  /// WAL directory (created if needed); required.
  std::string wal_dir;
  wal::WalOptions wal_options;
  /// Fallback model source (the fitted seed); called at most once.
  std::function<std::unique_ptr<core::CfsfModel>()> seed_model;
};

/// What /healthz shows about the last recovery.
struct RecoveryInfo {
  /// "checkpoint" or "seed".
  std::string source;
  std::uint64_t checkpoint_id = 0;  // 0 when source == "seed"
  /// Replay starts past this lsn.
  std::uint64_t watermark = 0;
  /// WAL suffix records folded into the model (lsn > watermark, inside
  /// the matrix).
  std::size_t replayed_records = 0;
  /// Suffix records outside the matrix (durable, unfoldable).
  std::size_t skipped_records = 0;
  /// Checkpoint candidates rejected on the way down the ladder.
  std::size_t fallbacks = 0;
  /// True when compaction has removed history the chosen starting
  /// point does not cover (possible only on seed fallback).
  bool degraded_history = false;
  double recovery_us = 0.0;
};

struct RecoveryResult {
  std::unique_ptr<core::CfsfModel> model;
  std::unique_ptr<wal::WriteAheadLog> log;
  RecoveryInfo info;
};

/// Runs the ladder above.  Throws util::ConfigError on missing options
/// and util::IoError only for faults no fallback can absorb (an
/// unopenable WAL directory, corruption outside the WAL's torn tail).
RecoveryResult Recover(const RecoverOptions& options) CFSF_BLOCKING;

}  // namespace cfsf::ckpt
