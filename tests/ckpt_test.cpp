// Unit tests for the checkpoint subsystem: manifest codecs and atomic
// file round trips, WAL compaction bounds, the request-id
// dedup window, the DeltaFolder's fold watermark, CheckpointManager's
// write/skip/GC cycle and ckpt::Recover's ladder.  The crash and
// corruption halves live in tests/ckpt_crash_test.cpp (label `fault`).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/recover.hpp"
#include "core/cfsf.hpp"
#include "data/synthetic.hpp"
#include "matrix/types.hpp"
#include "serve/delta_folder.hpp"
#include "serve/model_generation.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "wal/compact.hpp"
#include "wal/format.hpp"
#include "wal/log.hpp"
#include "wal/replay.hpp"

namespace cfsf {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kUsers = 30;
constexpr std::uint32_t kItems = 40;

// Deterministic rating content keyed by lsn; cells are unique for
// lsn < kUsers * kItems, so every fold is independently checkable.
matrix::RatingTriple RecordForLsn(std::uint64_t lsn) {
  matrix::RatingTriple record;
  record.user = static_cast<matrix::UserId>(lsn % kUsers);
  record.item = static_cast<matrix::ItemId>((lsn / kUsers) % kItems);
  record.value = static_cast<matrix::Rating>(1.0 + (lsn % 9) * 0.5);
  record.timestamp = static_cast<matrix::Timestamp>(1000000000 + lsn);
  return record;
}

std::unique_ptr<core::CfsfModel> TinySeed() {
  data::SyntheticConfig dconfig;
  dconfig.num_users = kUsers;
  dconfig.num_items = kItems;
  dconfig.min_ratings_per_user = 8;
  dconfig.seed = 77;
  core::CfsfConfig config;
  config.num_clusters = 4;
  config.top_m_items = 12;
  config.top_k_users = 6;
  auto model = std::make_unique<core::CfsfModel>(config);
  model->Fit(data::GenerateSynthetic(dconfig));
  return model;
}

// Every lsn in [1, upto] must read back as its RecordForLsn value.
void ExpectFoldedUpTo(const core::CfsfModel& model, std::uint64_t upto) {
  for (std::uint64_t lsn = 1; lsn <= upto; ++lsn) {
    const matrix::RatingTriple want = RecordForLsn(lsn);
    const auto got = model.train().GetRating(want.user, want.item);
    ASSERT_TRUE(got.has_value()) << "lsn " << lsn << " lost";
    EXPECT_FLOAT_EQ(*got, want.value) << "lsn " << lsn << " corrupted";
  }
}

class CkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::path(::testing::TempDir()) /
             ("cfsf_ckpt_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
    wal_dir_ = root_ + "/wal";
    ckpt_dir_ = root_ + "/ckpt";
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
  std::string wal_dir_;
  std::string ckpt_dir_;
};

// --------------------------------------------------------- manifest ----

TEST(CkptManifestTest, ManifestRoundTripsAndRejectsAnyBitFlip) {
  ckpt::Manifest manifest;
  manifest.id = 42;
  manifest.watermark_lsn = 100913;
  manifest.generation = 7;
  manifest.model_bytes = 1234567;
  unsigned char raw[ckpt::kManifestBytes];
  ckpt::EncodeManifest(manifest, raw);
  ckpt::Manifest decoded;
  ASSERT_TRUE(ckpt::DecodeManifest(raw, &decoded));
  EXPECT_EQ(decoded.id, 42u);
  EXPECT_EQ(decoded.watermark_lsn, 100913u);
  EXPECT_EQ(decoded.generation, 7u);
  EXPECT_EQ(decoded.model_bytes, 1234567u);
  for (std::size_t byte = 0; byte < ckpt::kManifestBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      unsigned char bent[ckpt::kManifestBytes];
      std::copy(raw, raw + ckpt::kManifestBytes, bent);
      bent[byte] = static_cast<unsigned char>(bent[byte] ^ (1u << bit));
      EXPECT_FALSE(ckpt::DecodeManifest(bent, &decoded))
          << "bit " << bit << " of byte " << byte << " went undetected";
    }
  }
}

TEST(CkptManifestTest, FileNamesRoundTripAndRejectStrays) {
  EXPECT_EQ(ckpt::ModelFileName(42), "ckpt-0000000042.model");
  EXPECT_EQ(ckpt::ManifestFileName(42), "ckpt-0000000042.manifest");
  std::uint64_t id = 0;
  ASSERT_TRUE(ckpt::ParseManifestFileName("ckpt-0000000042.manifest", &id));
  EXPECT_EQ(id, 42u);
  EXPECT_FALSE(ckpt::ParseManifestFileName("ckpt-0000000042.model", &id));
  EXPECT_FALSE(ckpt::ParseManifestFileName("ckpt-abc.manifest", &id));
  EXPECT_FALSE(
      ckpt::ParseManifestFileName("ckpt-0000000042.manifest.tmp", &id));
}

TEST_F(CkptTest, ManifestFilesRoundTripAndListAscending) {
  fs::create_directories(ckpt_dir_);
  for (const std::uint64_t id : {3u, 1u, 2u}) {
    ckpt::Manifest manifest;
    manifest.id = id;
    manifest.watermark_lsn = id * 10;
    ckpt::WriteManifestFile(ckpt_dir_, manifest);
  }
  EXPECT_EQ(ckpt::ListCheckpointIds(ckpt_dir_),
            (std::vector<std::uint64_t>{1, 2, 3}));
  ckpt::Manifest manifest;
  ASSERT_TRUE(ckpt::ReadManifestFile(
      (fs::path(ckpt_dir_) / ckpt::ManifestFileName(2)).string(), &manifest));
  EXPECT_EQ(manifest.watermark_lsn, 20u);
  // Absent directory and absent file are "no", not exceptions.
  EXPECT_TRUE(ckpt::ListCheckpointIds(root_ + "/nope").empty());
  EXPECT_FALSE(ckpt::ReadManifestFile(
      (fs::path(root_) / "nope" / ckpt::ManifestFileName(1)).string(),
      &manifest));
}

TEST_F(CkptTest, TruncatedOrOversizedManifestFilesAreRejected) {
  fs::create_directories(ckpt_dir_);
  ckpt::Manifest manifest;
  manifest.id = 1;
  ckpt::WriteManifestFile(ckpt_dir_, manifest);
  const std::string path =
      (fs::path(ckpt_dir_) / ckpt::ManifestFileName(1)).string();
  fs::resize_file(path, ckpt::kManifestBytes - 5);
  EXPECT_FALSE(ckpt::ReadManifestFile(path, &manifest));
  // Trailing garbage is corruption too, not "extra data".
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "x";
  }
  EXPECT_FALSE(ckpt::ReadManifestFile(path, &manifest));
}

// ------------------------------------------------------------ dedup ----

TEST_F(CkptTest, RequestIdDeduplicatesWithinASessionAndAcrossReopen) {
  const std::uint64_t id_a = wal::HashRequestId("req-a");
  {
    wal::WriteAheadLog log(wal_dir_);
    const wal::AppendAck first =
        log.Append(RecordForLsn(1), /*require_durable=*/true, id_a);
    EXPECT_EQ(first.lsn, 1u);
    EXPECT_FALSE(first.deduplicated);
    const wal::AppendAck retry =
        log.Append(RecordForLsn(1), /*require_durable=*/true, id_a);
    EXPECT_TRUE(retry.deduplicated);
    EXPECT_EQ(retry.lsn, 1u);
    EXPECT_GE(log.durable_lsn(), retry.lsn);
    EXPECT_EQ(log.next_lsn(), 2u) << "a dedup hit must not write";
    // The absorbed retry is never re-acked: exactly one fold source.
    std::vector<wal::AckedRecord> drained;
    EXPECT_EQ(log.DrainAcked(&drained), 1u);
    EXPECT_EQ(log.dedup_entries(), 1u);
  }
  // The window is rebuilt from replay: a cross-restart retry still
  // returns the original ack.
  wal::WriteAheadLog reopened(wal_dir_);
  const wal::AppendAck retry =
      reopened.Append(RecordForLsn(1), /*require_durable=*/true, id_a);
  EXPECT_TRUE(retry.deduplicated);
  EXPECT_EQ(retry.lsn, 1u);
  EXPECT_EQ(reopened.next_lsn(), 2u);
}

TEST_F(CkptTest, DedupWindowEvictsOldEntriesAndZeroDisables) {
  wal::WalOptions options;
  options.dedup_window = 4;
  wal::WriteAheadLog log(wal_dir_, options);
  log.Append(RecordForLsn(1), false, 111);
  for (std::uint64_t lsn = 2; lsn <= 6; ++lsn) {
    log.Append(RecordForLsn(lsn), false, 100 + lsn);
  }
  // lsn 1 + window 4 < next lsn 7: evicted, so the "retry" re-appends.
  const wal::AppendAck stale = log.Append(RecordForLsn(1), false, 111);
  EXPECT_FALSE(stale.deduplicated);
  EXPECT_EQ(stale.lsn, 7u);
  EXPECT_LE(log.dedup_entries(), 5u);

  fs::remove_all(wal_dir_);
  wal::WalOptions off;
  off.dedup_window = 0;
  wal::WriteAheadLog no_dedup(wal_dir_, off);
  no_dedup.Append(RecordForLsn(1), false, 42);
  EXPECT_FALSE(no_dedup.Append(RecordForLsn(1), false, 42).deduplicated);
  EXPECT_EQ(no_dedup.dedup_entries(), 0u);
}

TEST_F(CkptTest, RecordsWithoutARequestIdNeverDeduplicate) {
  wal::WriteAheadLog log(wal_dir_);
  EXPECT_FALSE(log.Append(RecordForLsn(1)).deduplicated);
  EXPECT_FALSE(log.Append(RecordForLsn(1)).deduplicated);
  EXPECT_EQ(log.next_lsn(), 3u);
  EXPECT_EQ(log.dedup_entries(), 0u);
}

// ------------------------------------------------------- compaction ----

// Builds a log of `records` records in segments of 3, then closes it.
void BuildSegmentedLog(const std::string& dir, std::uint64_t records) {
  wal::WalOptions options;
  options.max_segment_bytes =
      wal::kSegmentHeaderBytes + 3 * wal::kRecordBytes;
  wal::WriteAheadLog log(dir, options);
  for (std::uint64_t lsn = 1; lsn <= records; ++lsn) {
    log.Append(RecordForLsn(lsn));
  }
  log.Close();
}

TEST_F(CkptTest, CompactionRemovesOnlyWholeSegmentsBelowTheWatermark) {
  BuildSegmentedLog(wal_dir_, 10);  // segments: 1-3, 4-6, 7-9, 10
  // Watermark 5: segment 1 (lsn 1..3) is removable, segment 2 is not —
  // lsn 6 still lives there.
  const wal::CompactResult partial = wal::CompactWal(wal_dir_, 5);
  EXPECT_EQ(partial.removed_segments, 1u);
  EXPECT_EQ(partial.first_retained_lsn, 4u);
  wal::ReplayResult replay = wal::ReplayLog(wal_dir_);
  ASSERT_EQ(replay.records.size(), 7u);
  EXPECT_EQ(replay.records.front().lsn, 4u);
  EXPECT_EQ(replay.first_lsn, 4u);
  EXPECT_EQ(replay.next_lsn, 11u);

  // Idempotent at the same watermark; a higher one keeps shrinking.
  EXPECT_EQ(wal::CompactWal(wal_dir_, 5).removed_segments, 0u);
  EXPECT_EQ(wal::CompactWal(wal_dir_, 9).removed_segments, 2u);
  replay = wal::ReplayLog(wal_dir_);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records.front().lsn, 10u);

  // The tail segment survives any watermark — the log must stay
  // appendable with a continuous lsn sequence.
  EXPECT_EQ(wal::CompactWal(wal_dir_, 1000).removed_segments, 0u);
  wal::WriteAheadLog log(wal_dir_);
  EXPECT_EQ(log.Append(RecordForLsn(11)).lsn, 11u);
}

TEST_F(CkptTest, CompactionAtWatermarkZeroRemovesNothing) {
  BuildSegmentedLog(wal_dir_, 10);
  const wal::CompactResult result = wal::CompactWal(wal_dir_, 0);
  EXPECT_EQ(result.removed_segments, 0u);
  EXPECT_EQ(wal::ReplayLog(wal_dir_).records.size(), 10u);
}

TEST_F(CkptTest, ReplayAfterCompactionReportsSegmentRanges) {
  BuildSegmentedLog(wal_dir_, 10);
  wal::CompactWal(wal_dir_, 3);
  const wal::ReplayResult replay = wal::ReplayLog(wal_dir_);
  ASSERT_EQ(replay.segment_infos.size(), 3u);
  EXPECT_EQ(replay.segment_infos[0].first_lsn, 4u);
  EXPECT_EQ(replay.segment_infos[0].last_lsn, 6u);
  EXPECT_EQ(replay.segment_infos[0].records, 3u);
  EXPECT_EQ(replay.segment_infos.back().first_lsn, 10u);
}

// ---------------------------------------------------- fold watermark ----

TEST_F(CkptTest, FoldWatermarkTracksDrainedRecordsIncludingSkips) {
  wal::WriteAheadLog log(wal_dir_);
  serve::ModelGeneration models;
  serve::DeltaFolder folder(log, models, TinySeed());
  EXPECT_EQ(folder.fold_watermark(), 0u);

  log.Append(RecordForLsn(1), true);
  log.Append(RecordForLsn(2), true);
  folder.FoldOnce();
  EXPECT_EQ(folder.fold_watermark(), 2u);

  // An out-of-matrix record is permanently unfoldable: the watermark
  // advances over it (replaying it after restart would change nothing).
  log.Append(matrix::RatingTriple{kUsers + 50, 0, 3.0F, 0}, true);
  folder.FoldOnce();
  EXPECT_EQ(folder.fold_watermark(), 3u);
  EXPECT_EQ(folder.skipped_records(), 1u);

  const serve::FoldSnapshot snapshot = folder.Snapshot();
  ASSERT_NE(snapshot.model, nullptr);
  EXPECT_EQ(snapshot.watermark, 3u);
  ExpectFoldedUpTo(*snapshot.model, 2);
}

TEST_F(CkptTest, InitialWatermarkSeedsTheFolder) {
  wal::WriteAheadLog log(wal_dir_);
  serve::ModelGeneration models;
  serve::DeltaFolder folder(log, models, TinySeed(),
                            /*initial_watermark=*/17);
  EXPECT_EQ(folder.fold_watermark(), 17u);
}

// ------------------------------------------------ checkpoint manager ----

TEST_F(CkptTest, CheckpointWriteSkipAndGarbageCollectCycle) {
  wal::WalOptions wal_options;
  wal_options.max_segment_bytes =
      wal::kSegmentHeaderBytes + 3 * wal::kRecordBytes;
  wal::WriteAheadLog log(wal_dir_, wal_options);
  serve::ModelGeneration models;
  serve::DeltaFolder folder(log, models, TinySeed());
  ckpt::CheckpointOptions options;
  options.dir = ckpt_dir_;
  options.keep_last = 2;
  ckpt::CheckpointManager manager(folder, log, options);

  // First checkpoint is always written (it seeds the fallback ladder),
  // even at watermark 0.
  EXPECT_EQ(manager.CheckpointNow(), 1u);
  // Nothing folded since: skip, not an identical rewrite.
  EXPECT_EQ(manager.CheckpointNow(), 0u);

  std::uint64_t next = 2;
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      log.Append(RecordForLsn(log.next_lsn()), true);
    }
    folder.FoldOnce();
    EXPECT_EQ(manager.CheckpointNow(), next++);
  }

  const ckpt::CheckpointStatus status = manager.status();
  EXPECT_EQ(status.last_id, 4u);
  EXPECT_EQ(status.last_watermark, 12u);
  EXPECT_EQ(status.writes, 4u);
  EXPECT_EQ(status.failures, 0u);
  EXPECT_FALSE(status.compaction_failed);
  // GC kept exactly keep_last, and compaction ran below the *minimum*
  // retained watermark (8): the oldest retained checkpoint can still
  // find its whole replay suffix.
  EXPECT_EQ(ckpt::ListCheckpointIds(ckpt_dir_),
            (std::vector<std::uint64_t>{3, 4}));
  const wal::ReplayResult replay = wal::ReplayLog(wal_dir_);
  EXPECT_GT(replay.first_lsn, 1u);
  EXPECT_LE(replay.first_lsn, 9u) << "compacted past a retained watermark";
  EXPECT_GT(status.compacted_segments, 0u);
}

TEST_F(CkptTest, ManagerAdoptsExistingCheckpointsAcrossRestart) {
  wal::WriteAheadLog log(wal_dir_);
  serve::ModelGeneration models;
  serve::DeltaFolder folder(log, models, TinySeed());
  ckpt::CheckpointOptions options;
  options.dir = ckpt_dir_;
  {
    ckpt::CheckpointManager manager(folder, log, options);
    log.Append(RecordForLsn(1), true);
    folder.FoldOnce();
    EXPECT_EQ(manager.CheckpointNow(), 1u);
  }
  // A fresh manager resumes numbering and does not rewrite an identical
  // checkpoint for the already-covered watermark.
  ckpt::CheckpointManager manager(folder, log, options);
  EXPECT_EQ(manager.status().last_id, 1u);
  EXPECT_EQ(manager.status().last_watermark, 1u);
  EXPECT_EQ(manager.CheckpointNow(), 0u);
  log.Append(RecordForLsn(2), true);
  folder.FoldOnce();
  EXPECT_EQ(manager.CheckpointNow(), 2u);
}

// ----------------------------------------------------------- recover ----

TEST_F(CkptTest, RecoverFromSeedReplaysTheWholeLog) {
  {
    wal::WriteAheadLog log(wal_dir_);
    for (std::uint64_t lsn = 1; lsn <= 20; ++lsn) {
      log.Append(RecordForLsn(lsn), true);
    }
  }
  ckpt::RecoverOptions options;
  options.wal_dir = wal_dir_;  // no ckpt_dir: the pre-checkpoint path
  options.seed_model = TinySeed;
  const ckpt::RecoveryResult result = ckpt::Recover(options);
  EXPECT_EQ(result.info.source, "seed");
  EXPECT_EQ(result.info.watermark, 0u);
  EXPECT_EQ(result.info.replayed_records, 20u);
  EXPECT_EQ(result.info.fallbacks, 0u);
  EXPECT_FALSE(result.info.degraded_history);
  ExpectFoldedUpTo(*result.model, 20);
  EXPECT_EQ(result.log->next_lsn(), 21u);
}

TEST_F(CkptTest, RecoverFromACheckpointReplaysOnlyTheSuffix) {
  {
    wal::WriteAheadLog log(wal_dir_);
    serve::ModelGeneration models;
    serve::DeltaFolder folder(log, models, TinySeed());
    for (std::uint64_t lsn = 1; lsn <= 12; ++lsn) {
      log.Append(RecordForLsn(lsn), true);
    }
    folder.FoldOnce();
    ckpt::CheckpointOptions options;
    options.dir = ckpt_dir_;
    ckpt::CheckpointManager manager(folder, log, options);
    EXPECT_EQ(manager.CheckpointNow(), 1u);
    for (std::uint64_t lsn = 13; lsn <= 17; ++lsn) {
      log.Append(RecordForLsn(lsn), true);
    }
  }
  ckpt::RecoverOptions options;
  options.ckpt_dir = ckpt_dir_;
  options.wal_dir = wal_dir_;
  bool seed_called = false;
  options.seed_model = [&] {
    seed_called = true;
    return TinySeed();
  };
  const ckpt::RecoveryResult result = ckpt::Recover(options);
  EXPECT_FALSE(seed_called) << "a healthy checkpoint must not re-seed";
  EXPECT_EQ(result.info.source, "checkpoint");
  EXPECT_EQ(result.info.checkpoint_id, 1u);
  EXPECT_EQ(result.info.watermark, 12u);
  EXPECT_EQ(result.info.replayed_records, 5u) << "replay was not bounded";
  ExpectFoldedUpTo(*result.model, 17);
}

TEST_F(CkptTest, RecoveredModelPredictsExactlyLikeTheLiveGeneration) {
  // Metamorphic check of checkpoint -> recover -> predict: the live side
  // folds in several small batches on both sides of a checkpoint; the
  // recovered side loads the checkpoint and folds the whole WAL suffix
  // as one batch.  With the default (uncapped) GIS both must answer
  // every cell bit-identically.
  std::shared_ptr<const serve::ServableModel> live;
  {
    wal::WriteAheadLog log(wal_dir_);
    serve::ModelGeneration models;
    serve::DeltaFolder folder(log, models, TinySeed());
    folder.PublishNow();
    ckpt::CheckpointOptions options;
    options.dir = ckpt_dir_;
    ckpt::CheckpointManager manager(folder, log, options);
    // RecordForLsn with the items spread out too, so that each batch
    // refreshes several GIS rows.
    auto record = [](std::uint64_t lsn) {
      matrix::RatingTriple r = RecordForLsn(lsn);
      r.item = static_cast<matrix::ItemId>((lsn * 7) % kItems);
      return r;
    };
    // Appends `fresh` records for new cells plus a re-rating of the cell
    // of lsn `rerate` (0 = none), then folds them as one live batch.
    auto fold = [&](int fresh, std::uint64_t rerate) {
      for (int k = 0; k < fresh; ++k) log.Append(record(log.next_lsn()), true);
      if (rerate != 0) {
        matrix::RatingTriple again = record(rerate);
        again.value = again.value == 5.0F ? 1.0F : 5.0F;
        log.Append(again, true);
      }
      EXPECT_EQ(folder.FoldOnce(), static_cast<std::size_t>(fresh) +
                                       (rerate != 0 ? 1 : 0));
    };
    fold(3, 0);
    fold(2, 0);
    EXPECT_EQ(manager.CheckpointNow(), 1u);
    // Re-rate a cell folded before the checkpoint, and one cell in two
    // live batches that recovery folds as one.
    fold(4, 2);
    fold(1, 0);
    fold(2, 7);
    live = models.Active();
  }

  ckpt::RecoverOptions options;
  options.ckpt_dir = ckpt_dir_;
  options.wal_dir = wal_dir_;
  options.seed_model = TinySeed;
  const ckpt::RecoveryResult result = ckpt::Recover(options);
  ASSERT_EQ(result.info.source, "checkpoint");
  EXPECT_EQ(result.info.watermark, 5u);
  EXPECT_EQ(result.info.replayed_records, 9u);
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(result.model->train().ToTriples(),
            live->model().train().ToTriples());
  for (matrix::UserId u = 0; u < kUsers; ++u) {
    for (matrix::ItemId i = 0; i < kItems; ++i) {
      ASSERT_EQ(result.model->Predict(u, i), live->model().Predict(u, i))
          << "user " << u << ", item " << i;
    }
  }
}

// Flips one bit of the byte in the middle of `path`.
void FlipMidFileByte(const std::string& path) {
  const auto middle = static_cast<std::streamoff>(fs::file_size(path) / 2);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(middle);
  char byte = 0;
  file.get(byte);
  file.seekp(middle);
  file.put(static_cast<char>(byte ^ 0x20));
}

TEST_F(CkptTest, RecoverFallsBackToThePreviousCheckpointOnCorruption) {
  {
    wal::WriteAheadLog log(wal_dir_);
    serve::ModelGeneration models;
    serve::DeltaFolder folder(log, models, TinySeed());
    ckpt::CheckpointOptions options;
    options.dir = ckpt_dir_;
    ckpt::CheckpointManager manager(folder, log, options);
    for (std::uint64_t lsn = 1; lsn <= 6; ++lsn) {
      log.Append(RecordForLsn(lsn), true);
    }
    folder.FoldOnce();
    EXPECT_EQ(manager.CheckpointNow(), 1u);
    for (std::uint64_t lsn = 7; lsn <= 9; ++lsn) {
      log.Append(RecordForLsn(lsn), true);
    }
    folder.FoldOnce();
    EXPECT_EQ(manager.CheckpointNow(), 2u);
  }
  // Flip one byte mid-bundle in the newest checkpoint.
  FlipMidFileByte((fs::path(ckpt_dir_) / ckpt::ModelFileName(2)).string());
  ckpt::RecoverOptions options;
  options.ckpt_dir = ckpt_dir_;
  options.wal_dir = wal_dir_;
  options.seed_model = TinySeed;
  const ckpt::RecoveryResult result = ckpt::Recover(options);
  EXPECT_EQ(result.info.source, "checkpoint");
  EXPECT_EQ(result.info.checkpoint_id, 1u);
  EXPECT_EQ(result.info.fallbacks, 1u);
  EXPECT_EQ(result.info.watermark, 6u);
  EXPECT_EQ(result.info.replayed_records, 3u);
  EXPECT_FALSE(result.info.degraded_history);
  ExpectFoldedUpTo(*result.model, 9);
}

TEST_F(CkptTest, RecoveryPicksTheNewestVerifiableManifest) {
  // Three checkpoints (watermarks 4, 8, 12) and one record past the
  // newest.  The manifests alone decide: recovery takes the newest whose
  // bundle verifies, and a CURRENT pointer an older build left behind —
  // here naming checkpoint 1 — changes nothing.
  {
    wal::WriteAheadLog log(wal_dir_);
    serve::ModelGeneration models;
    serve::DeltaFolder folder(log, models, TinySeed());
    ckpt::CheckpointOptions options;
    options.dir = ckpt_dir_;
    options.keep_last = 3;
    ckpt::CheckpointManager manager(folder, log, options);
    for (std::uint64_t id = 1; id <= 3; ++id) {
      for (int i = 0; i < 4; ++i) log.Append(RecordForLsn(log.next_lsn()));
      folder.FoldOnce();
      EXPECT_EQ(manager.CheckpointNow(), id);
    }
    log.Append(RecordForLsn(13));
  }
  ASSERT_EQ(ckpt::ListCheckpointIds(ckpt_dir_),
            (std::vector<std::uint64_t>{1, 2, 3}));

  ckpt::RecoverOptions options;
  options.ckpt_dir = ckpt_dir_;
  options.wal_dir = wal_dir_;
  options.seed_model = TinySeed;
  auto expect_recovered_from = [&](std::uint64_t id, std::size_t fallbacks) {
    const ckpt::RecoveryResult result = ckpt::Recover(options);
    EXPECT_EQ(result.info.source, "checkpoint");
    EXPECT_EQ(result.info.checkpoint_id, id);
    EXPECT_EQ(result.info.watermark, 4 * id);
    EXPECT_EQ(result.info.fallbacks, fallbacks);
    EXPECT_EQ(result.info.replayed_records, 13 - 4 * id);
    ExpectFoldedUpTo(*result.model, 13);
  };
  {
    SCOPED_TRACE("all three intact");
    expect_recovered_from(3, 0);
  }

  // The old pointer's 20-byte layout: "CFCP" | u32 version 1 |
  // u64 id | u32 crc32 of the first 16 bytes, little-endian.
  unsigned char pointer[20] = {'C', 'F', 'C', 'P', 1, 0, 0, 0, 1};
  const std::uint32_t crc = util::Crc32(pointer, 16);
  for (int b = 0; b < 4; ++b) {
    pointer[16 + b] = static_cast<unsigned char>(crc >> (8 * b));
  }
  const std::string current = (fs::path(ckpt_dir_) / "CURRENT").string();
  {
    std::ofstream out(current, std::ios::binary);
    out.write(reinterpret_cast<const char*>(pointer), sizeof(pointer));
  }
  {
    SCOPED_TRACE("a CURRENT naming checkpoint 1");
    expect_recovered_from(3, 0);
  }

  FlipMidFileByte((fs::path(ckpt_dir_) / ckpt::ModelFileName(3)).string());
  {
    SCOPED_TRACE("newest bundle corrupt, CURRENT still naming 1");
    expect_recovered_from(2, 1);
  }
  EXPECT_TRUE(fs::exists(current)) << "recovery must leave the file alone";
}

TEST_F(CkptTest, RecoverFlagsDegradedHistoryWhenTheLadderOutrunsTheLog) {
  // A compacted log with no checkpoint to cover the removed prefix: the
  // seed fallback cannot reconstruct lsn 1..6 — that must be loud, not
  // silent.  (Reaching this for real needs every retained checkpoint
  // corrupt at once; the flag is the alarm for exactly that.)
  BuildSegmentedLog(wal_dir_, 10);
  wal::CompactWal(wal_dir_, 6);
  ckpt::RecoverOptions options;
  options.ckpt_dir = ckpt_dir_;
  options.wal_dir = wal_dir_;
  options.seed_model = TinySeed;
  const ckpt::RecoveryResult result = ckpt::Recover(options);
  EXPECT_EQ(result.info.source, "seed");
  EXPECT_TRUE(result.info.degraded_history);
}

}  // namespace
}  // namespace cfsf
