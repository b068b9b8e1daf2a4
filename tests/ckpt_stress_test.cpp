// Stress-tier test (ctest label `stress`, run under TSan by the
// sanitizer presets): the whole checkpointed-ingestion pipeline under
// concurrency — parallel appenders, the DeltaFolder's background fold
// thread, the CheckpointManager's background checkpoint+compact thread,
// and a reader hammering the snapshot/status surfaces and predicting
// through the shared active model — followed by a full consistency
// audit and a cold recovery of whatever the run left on disk.  A second
// test races FoldOnce against FoldOnce and PublishNow and checks that
// generations still go live in fold order.  The last two check that
// Stop() wakes both background loops at once and that a Stop() racing
// a loop's first wait is never lost.
#include <gtest/gtest.h>

#include <algorithm>
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

// At most 20 ratings per user of kItems: at least 600 unrated cells
// are left to fold.
std::unique_ptr<core::CfsfModel> TinySeed() {
  data::SyntheticConfig dconfig;
  dconfig.num_users = kUsers;
  dconfig.num_items = kItems;
  dconfig.min_ratings_per_user = 8;
  dconfig.max_ratings_per_user = 20;
  dconfig.seed = 77;
  core::CfsfConfig config;
  config.num_clusters = 4;
  config.top_m_items = 12;
  config.top_k_users = 6;
  auto model = std::make_unique<core::CfsfModel>(config);
  model->Fit(data::GenerateSynthetic(dconfig));
  return model;
}

// The first `count` cells `seed` leaves unrated, item-major.
std::vector<matrix::RatingTriple> FreshCells(const core::CfsfModel& seed,
                                             std::size_t count) {
  std::vector<matrix::RatingTriple> fresh;
  for (matrix::ItemId item = 0; item < kItems; ++item) {
    for (matrix::UserId user = 0; user < kUsers; ++user) {
      if (fresh.size() < count &&
          !seed.train().GetRating(user, item).has_value()) {
        fresh.push_back(matrix::RatingTriple{
            user, item, static_cast<matrix::Rating>(1 + fresh.size() % 5),
            0});
      }
    }
  }
  return fresh;
}

// Every append lands on a cell the seed leaves unrated, so each fold
// grows the matrix and the concurrent checkpoints save a matrix that
// grows.
TEST(CkptStressTest, ConcurrentAppendFoldCheckpointCompactAndRead) {
  const std::string root =
      (fs::path(::testing::TempDir()) / "cfsf_ckpt_stress").string();
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string wal_dir = root + "/wal";
  const std::string ckpt_dir = root + "/ckpt";
  constexpr std::uint64_t kTotal = kAppenders * kAppendsPerThread;

  {
    const std::shared_ptr<core::CfsfModel> seed = TinySeed();
    const std::size_t seed_ratings = seed->train().num_ratings();
    const std::vector<matrix::RatingTriple> fresh = FreshCells(*seed, kTotal);
    ASSERT_EQ(fresh.size(), kTotal);

    wal::WalOptions wal_options;
    wal_options.max_segment_bytes =
        wal::kSegmentHeaderBytes + 16 * wal::kRecordBytes;
    wal::WriteAheadLog log(wal_dir, wal_options);
    serve::ModelGeneration models;
    serve::DeltaFolder folder(log, models, seed);
    folder.PublishNow();
    ckpt::CheckpointOptions ckpt_options;
    ckpt_options.dir = ckpt_dir;
    ckpt_options.keep_last = 2;
    ckpt_options.interval = std::chrono::milliseconds(5);
    ckpt::CheckpointManager manager(folder, log, ckpt_options);

    folder.Start();
    manager.Start();

    // Appenders: the fresh cells dealt round-robin, each record with a
    // unique request id, so dedup tables churn while nothing actually
    // dedups.
    std::vector<std::thread> appenders;
    for (std::size_t t = 0; t < kAppenders; ++t) {
      appenders.emplace_back([&, t] {
        for (std::size_t i = 0; i < kAppendsPerThread; ++i) {
          const matrix::RatingTriple& record = fresh[i * kAppenders + t];
          const wal::AppendAck ack =
              log.Append(record, /*require_durable=*/true,
                         /*request_id=*/1 + t * kAppendsPerThread + i);
          ASSERT_GE(log.durable_lsn(), ack.lsn);
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
    // in-matrix, so none skipped), the fold watermark reached the last
    // assigned lsn, and the served matrix grew by one cell per record.
    EXPECT_EQ(log.next_lsn(), kTotal + 1);
    EXPECT_EQ(folder.folded_records(), kTotal);
    EXPECT_EQ(folder.skipped_records(), 0u);
    EXPECT_EQ(folder.fold_watermark(), kTotal);
    EXPECT_EQ(models.Active()->model().train().num_ratings(),
              seed_ratings + kTotal);

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

// Every fold of a fresh cell grows the matrix, so with publishes in
// fold order the served generation's rating count never falls.  Several
// threads fold, one republishes the folder's model and one appends at a
// steady pace, while readers spin on the active generation; once
// everything is folded, the served model must be the one the folder
// would checkpoint.  The spinning readers keep the generation's lock
// contended, which is what lets an install that lost the folder's
// order land late.
TEST(DeltaFolderStress, ConcurrentFoldsAndPublishesInstallInFoldOrder) {
  constexpr std::size_t kFolders = 3;
  constexpr std::size_t kReaders = 2;
  constexpr std::size_t kFreshCells = 480;
  const std::string dir =
      (fs::path(::testing::TempDir()) / "cfsf_fold_order_stress").string();
  fs::remove_all(dir);
  {
    const std::shared_ptr<core::CfsfModel> seed = TinySeed();
    const std::size_t seed_ratings = seed->train().num_ratings();
    const std::vector<matrix::RatingTriple> fresh =
        FreshCells(*seed, kFreshCells);
    ASSERT_EQ(fresh.size(), kFreshCells);

    wal::WriteAheadLog log(dir);
    serve::ModelGeneration models;
    serve::DeltaFolder folder(log, models, seed);
    folder.PublishNow();

    std::atomic<bool> appending{true};
    std::atomic<std::size_t> decreases{0};
    std::atomic<std::size_t> samples{0};
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      for (const matrix::RatingTriple& record : fresh) {
        log.Append(record, /*require_durable=*/true);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      appending.store(false, std::memory_order_release);
    });
    for (std::size_t f = 0; f < kFolders; ++f) {
      threads.emplace_back([&] {
        while (appending.load(std::memory_order_acquire)) {
          folder.FoldOnce();
          std::this_thread::yield();
        }
      });
    }
    threads.emplace_back([&] {
      while (appending.load(std::memory_order_acquire)) {
        folder.PublishNow();
        std::this_thread::yield();
      }
    });
    for (std::size_t r = 0; r < kReaders; ++r) {
      threads.emplace_back([&] {
        std::size_t highest = 0;
        while (appending.load(std::memory_order_acquire)) {
          const std::size_t ratings =
              models.Active()->model().train().num_ratings();
          if (ratings < highest) decreases.fetch_add(1);
          highest = std::max(highest, ratings);
          samples.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    folder.FoldOnce();  // whatever the last appends left

    EXPECT_EQ(decreases.load(), 0u)
        << "the served generation lost ratings in " << decreases.load()
        << " of " << samples.load() << " samples";
    EXPECT_GT(samples.load(), 0u);
    EXPECT_GT(folder.publishes(), 2u);
    EXPECT_EQ(folder.folded_records(), kFreshCells);
    EXPECT_EQ(folder.fold_watermark(), kFreshCells);
    const serve::FoldSnapshot snapshot = folder.Snapshot();
    EXPECT_EQ(&models.Active()->model(), snapshot.model.get())
        << "the served generation is not the folder's last model";
    EXPECT_EQ(models.Active()->model().train().num_ratings(),
              seed_ratings + kFreshCells);
  }
  fs::remove_all(dir);
}

// Median wall time of Stop() over `cycles` cycles of Start(), a pause
// long enough for the loop to park in its wait, and Stop().
template <typename BackgroundLoop>
double MedianStopMs(BackgroundLoop& loop, int cycles) {
  std::vector<double> stop_ms;
  for (int i = 0; i < cycles; ++i) {
    loop.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const auto start = std::chrono::steady_clock::now();
    loop.Stop();
    stop_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::nth_element(stop_ms.begin(), stop_ms.begin() + cycles / 2,
                   stop_ms.end());
  return stop_ms[cycles / 2];
}

// Stop() must not wait out a timer: a loop parked in its wait, for the
// next ack or for an hour-away checkpoint, wakes at once.
TEST(IngestionLoopStress, StopWakesAParkedLoopAtOnce) {
  const std::string root =
      (fs::path(::testing::TempDir()) / "cfsf_loop_stop_prompt").string();
  fs::remove_all(root);
  {
    wal::WriteAheadLog log(root + "/wal");
    serve::ModelGeneration models;
    serve::DeltaFolder folder(log, models, TinySeed());
    ckpt::CheckpointOptions ckpt_options;
    ckpt_options.dir = root + "/ckpt";
    ckpt_options.interval = std::chrono::hours(1);
    ckpt::CheckpointManager manager(folder, log, ckpt_options);
    EXPECT_LT(MedianStopMs(folder, 20), 5.0);
    EXPECT_LT(MedianStopMs(manager, 20), 5.0);
  }
  fs::remove_all(root);
}

// Stop() right after Start() lands before, during or after the loop's
// first wait: first beside an appender, so it also races acks and
// folds, then with no ack left to end a wait, where a lost wake hangs
// the test until ctest's timeout.
TEST(IngestionLoopStress, StopRacingTheFirstWaitIsNeverLost) {
  const std::string root =
      (fs::path(::testing::TempDir()) / "cfsf_loop_stop_race").string();
  fs::remove_all(root);
  {
    wal::WriteAheadLog log(root + "/wal");
    serve::ModelGeneration models;
    serve::DeltaFolder folder(log, models, TinySeed());
    ckpt::CheckpointOptions ckpt_options;
    ckpt_options.dir = root + "/ckpt";
    ckpt_options.interval = std::chrono::hours(1);
    ckpt::CheckpointManager manager(folder, log, ckpt_options);
    const auto start_stop = [&](int cycles) {
      for (int i = 0; i < cycles; ++i) {
        folder.Start();
        manager.Start();
        manager.Stop();
        folder.Stop();
      }
    };

    std::atomic<bool> appending{true};
    std::thread appender([&] {
      for (std::uint32_t i = 0; appending.load(std::memory_order_acquire);
           ++i) {
        log.Append(matrix::RatingTriple{i % kUsers, i % kItems,
                                        static_cast<matrix::Rating>(1 + i % 5),
                                        0},
                   /*require_durable=*/true);
        // Append holds the log's lock across its fsync; a pause lets the
        // folder's waits and Stop()'s wake take it between appends.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    start_stop(500);
    appending.store(false, std::memory_order_release);
    appender.join();
    start_stop(500);
    folder.FoldOnce();  // whatever a Stop() left

    // Every acked record folded exactly once across the folder's 1000
    // threads.
    EXPECT_EQ(folder.folded_records(), log.next_lsn() - 1);
    EXPECT_EQ(folder.fold_watermark(), log.next_lsn() - 1);
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace cfsf
