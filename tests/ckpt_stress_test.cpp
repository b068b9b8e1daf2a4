// Stress-tier test (ctest label `stress`, run under TSan by the
// sanitizer presets): the whole checkpointed-ingestion pipeline under
// concurrency — parallel appenders, the DeltaFolder's background fold
// thread, the CheckpointManager's background checkpoint+compact thread,
// and a reader hammering the snapshot/status surfaces and predicting
// through the shared active model — followed by a full consistency
// audit and a cold recovery of whatever the run left on disk.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/recover.hpp"
#include "core/cfsf.hpp"
#include "data/synthetic.hpp"
#include "matrix/types.hpp"
#include "serve/delta_folder.hpp"
#include "serve/model_generation.hpp"
#include "wal/format.hpp"
#include "wal/log.hpp"
#include "wal/replay.hpp"

namespace cfsf {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kUsers = 30;
constexpr std::uint32_t kItems = 40;
constexpr std::size_t kAppenders = 4;
constexpr std::size_t kAppendsPerThread = 120;

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

TEST(CkptStressTest, ConcurrentAppendFoldCheckpointCompactAndRead) {
  const std::string root =
      (fs::path(::testing::TempDir()) / "cfsf_ckpt_stress").string();
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string wal_dir = root + "/wal";
  const std::string ckpt_dir = root + "/ckpt";

  {
    wal::WalOptions wal_options;
    wal_options.max_segment_bytes =
        wal::kSegmentHeaderBytes + 16 * wal::kRecordBytes;
    wal::WriteAheadLog log(wal_dir, wal_options);
    serve::ModelGeneration models;
    serve::DeltaFolderOptions folder_options;
    folder_options.poll_interval = std::chrono::milliseconds(2);
    serve::DeltaFolder folder(log, models, TinySeed(), folder_options);
    folder.PublishNow();
    ckpt::CheckpointOptions ckpt_options;
    ckpt_options.dir = ckpt_dir;
    ckpt_options.keep_last = 2;
    ckpt_options.interval = std::chrono::milliseconds(5);
    ckpt::CheckpointManager manager(folder, log, ckpt_options);

    folder.Start();
    manager.Start();

    // Appenders: every record is in-matrix and carries a unique
    // request id, so dedup tables churn while nothing actually dedups.
    std::vector<std::thread> appenders;
    for (std::size_t t = 0; t < kAppenders; ++t) {
      appenders.emplace_back([&, t] {
        for (std::size_t i = 0; i < kAppendsPerThread; ++i) {
          matrix::RatingTriple record;
          record.user = static_cast<matrix::UserId>(t % kUsers);
          record.item = static_cast<matrix::ItemId>(i % kItems);
          record.value = static_cast<matrix::Rating>(1.0 + (i % 9) * 0.5);
          record.timestamp =
              static_cast<matrix::Timestamp>(1000000000 + t * 1000 + i);
          const wal::AppendAck ack =
              log.Append(record, /*require_durable=*/true,
                         /*request_id=*/1 + t * kAppendsPerThread + i);
          ASSERT_TRUE(ack.durable);
          ASSERT_FALSE(ack.deduplicated);
        }
      });
    }

    // Reader: hammers every cross-thread surface the checkpointer and
    // /healthz use while the writers run, and predicts through the
    // active generation.  That model object is shared, not cloned: the
    // checkpointer saves it and the folder derives the next one from it
    // while these predicts fill and hit its top-K cache.
    std::atomic<bool> stop_reader{false};
    std::thread reader([&] {
      while (!stop_reader.load(std::memory_order_acquire)) {
        const serve::FoldSnapshot snapshot = folder.Snapshot();
        ASSERT_NE(snapshot.model, nullptr);
        ASSERT_LE(snapshot.watermark, log.next_lsn() - 1);
        (void)manager.status();
        (void)folder.fold_watermark();
        (void)folder.skipped_records();
        const auto active = models.Active();
        ASSERT_NE(active, nullptr);
        const core::CfsfModel& model = active->model();
        for (matrix::UserId user = 0; user < kUsers; user += 3) {
          const auto item = static_cast<matrix::ItemId>(user % kItems);
          // First predict on this generation: a cold top-K entry; the
          // second hits the entry the first one cached.
          const double cold = model.Predict(user, item);
          ASSERT_EQ(model.Predict(user, item), cold);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    for (std::thread& thread : appenders) thread.join();
    // Let the background fold/checkpoint threads chew on the tail.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop_reader.store(true, std::memory_order_release);
    reader.join();
    manager.Stop();
    folder.Stop();
    folder.FoldOnce();  // drain whatever raced the Stop()

    // Consistency: every acked record was drained exactly once (all
    // in-matrix, so none skipped), and the fold watermark reached the
    // last assigned lsn.
    constexpr std::uint64_t kTotal = kAppenders * kAppendsPerThread;
    EXPECT_EQ(log.next_lsn(), kTotal + 1);
    EXPECT_EQ(folder.folded_records(), kTotal);
    EXPECT_EQ(folder.skipped_records(), 0u);
    EXPECT_EQ(folder.fold_watermark(), kTotal);

    const ckpt::CheckpointStatus status = manager.status();
    EXPECT_GE(status.writes, 1u)
        << "the background checkpointer never ran";
    EXPECT_EQ(status.failures, 0u) << status.last_error;
    EXPECT_FALSE(status.compaction_failed) << status.last_error;
    EXPECT_LE(status.last_watermark, kTotal);
    log.Close();
  }

  // Cold recovery of whatever the concurrent run left behind must be
  // clean and bounded.
  ckpt::RecoverOptions options;
  options.ckpt_dir = ckpt_dir;
  options.wal_dir = wal_dir;
  options.seed_model = TinySeed;
  const ckpt::RecoveryResult result = ckpt::Recover(options);
  EXPECT_FALSE(result.info.degraded_history);
  EXPECT_EQ(result.info.skipped_records, 0u);
  const wal::ReplayResult replay = wal::ReplayLog(wal_dir);
  std::size_t past_watermark = 0;
  for (const wal::RecoveredRecord& record : replay.records) {
    if (record.lsn > result.info.watermark) ++past_watermark;
  }
  EXPECT_EQ(result.info.replayed_records, past_watermark);
  fs::remove_all(root);
}

}  // namespace
}  // namespace cfsf
