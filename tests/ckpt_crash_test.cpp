// Fault-tier tests (ctest label `fault`) for checkpointed recovery —
// the crash half of the bounded-replay contract:
//
//   * whole-loop kill-recover harness: a forked child runs the real
//     ingest pipeline — durable appends with request ids, DeltaFolder
//     folds, CheckpointManager checkpoints (bundle, manifest, GC, WAL
//     compaction) — and is SIGKILLed at seeded points,
//     including deliberately mid-checkpoint.  Recovery must then lose
//     zero acked records, replay only the WAL suffix past the chosen
//     watermark, and absorb a request-id retry without a double fold;
//   * randomized corruption sweep over checkpoint manifests and
//     bundles: any single damaged file must fall down the recovery
//     ladder to a state that still covers every appended record —
//     never a crash, never a silently wrong model;
//   * armed failpoints: "model_io.load.open" and "model_io.load.read"
//     fail the newest checkpoint's load, and recovery falls back to the
//     previous one; "ckpt.write" and "ckpt.manifest" abort a
//     checkpoint without ever referencing it; "wal.compact" fail-stops
//     compaction while checkpoints keep working and the log stays
//     intact; "serve.fold" fails a fold, whose records the next fold
//     and checkpoint still carry.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

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
#include "obs/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "serve/delta_folder.hpp"
#include "serve/model_generation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wal/compact.hpp"
#include "wal/format.hpp"
#include "wal/log.hpp"
#include "wal/replay.hpp"

namespace cfsf {
namespace {

namespace fs = std::filesystem;

using obs::FailPointRegistry;
using obs::ScopedFailPoint;

constexpr std::uint32_t kUsers = 30;
constexpr std::uint32_t kItems = 40;

// Pipe event vocabulary: plain values are acked lsns; these two bracket
// every CheckpointNow call so the driver can aim kills mid-checkpoint.
constexpr std::uint64_t kCkptBegin = 0xFFFFFFFF00000001ull;
constexpr std::uint64_t kCkptEnd = 0xFFFFFFFF00000002ull;

// Deterministic rating keyed by lsn; cells are unique for
// lsn < kUsers * kItems, so every acked record is independently
// checkable in the recovered model.
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
  // The kill-recover harness forks mid-test; a child must never submit
  // to ThreadPool::Shared() — its worker threads do not survive fork()
  // and pool.Wait() would deadlock.  Serial fit keeps every child (and
  // the in-parent audits that would warm the pool up) off that path.
  config.parallel = false;
  auto model = std::make_unique<core::CfsfModel>(config);
  model->Fit(data::GenerateSynthetic(dconfig));
  return model;
}

void ExpectFoldedUpTo(const core::CfsfModel& model, std::uint64_t upto) {
  for (std::uint64_t lsn = 1; lsn <= upto; ++lsn) {
    const matrix::RatingTriple want = RecordForLsn(lsn);
    const auto got = model.train().GetRating(want.user, want.item);
    ASSERT_TRUE(got.has_value()) << "acked lsn " << lsn << " lost";
    EXPECT_FLOAT_EQ(*got, want.value) << "acked lsn " << lsn << " corrupted";
  }
}

class CkptCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPointRegistry::Global().DisarmAll();
    root_ = (fs::path(::testing::TempDir()) /
             ("cfsf_ckpt_crash_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
    wal_dir_ = root_ + "/wal";
    ckpt_dir_ = root_ + "/ckpt";
  }
  void TearDown() override {
    FailPointRegistry::Global().DisarmAll();
    fs::remove_all(root_);
  }

  std::string root_;
  std::string wal_dir_;
  std::string ckpt_dir_;
};

// ------------------------------------------------- kill-recover ------

struct KillOutcome {
  std::uint64_t highest_acked = 0;
  bool killed_mid_checkpoint = false;
};

// One forked run of the whole pipeline, one seeded SIGKILL, one full
// recovery audit.  Returns what the iteration observed so the driver
// can report coverage.
KillOutcome RunWholeLoopIteration(const std::string& wal_dir,
                                  const std::string& ckpt_dir,
                                  std::uint64_t seed) {
  fs::remove_all(wal_dir);
  fs::remove_all(ckpt_dir);
  util::Rng rng(seed);
  // Every third iteration aims at a checkpoint: wait for the Nth
  // kCkptBegin, then kill inside the jitter window — the kill lands in
  // the bundle write, the manifest write, GC or compaction.  The rest
  // kill after a seeded number of events, which mostly lands
  // mid-append / mid-fold.
  const bool aim_at_checkpoint = seed % 3 == 0;
  const std::size_t kill_after =
      aim_at_checkpoint ? static_cast<std::size_t>(rng.NextInt(1, 5))
                        : static_cast<std::size_t>(rng.NextInt(3, 80));
  const auto jitter_us = static_cast<useconds_t>(rng.NextBounded(700));

  int pipe_fd[2];
  if (::pipe(pipe_fd) != 0) {
    ADD_FAILURE() << "pipe() failed";
    return {};
  }
  const pid_t child = ::fork();
  if (child < 0) {
    ADD_FAILURE() << "fork() failed";
    ::close(pipe_fd[0]);
    ::close(pipe_fd[1]);
    return {};
  }

  if (child == 0) {
    // The real pipeline, miniaturized: 3-record segments so compaction
    // has segments to remove, a fold every 5 appends, a checkpoint
    // (with GC + compaction) every 11.  Every ack is durable before it
    // goes down the pipe.  Bounded loop; ~654 events max never fills
    // the pipe buffer.
    ::close(pipe_fd[0]);
    auto emit = [&](std::uint64_t value) {
      if (::write(pipe_fd[1], &value, sizeof(value)) != sizeof(value)) {
        ::_exit(3);
      }
    };
    try {
      wal::WalOptions wal_options;
      wal_options.max_segment_bytes =
          wal::kSegmentHeaderBytes + 3 * wal::kRecordBytes;
      ckpt::RecoverOptions recover_options;
      recover_options.ckpt_dir = ckpt_dir;
      recover_options.wal_dir = wal_dir;
      recover_options.wal_options = wal_options;
      recover_options.seed_model = TinySeed;
      ckpt::RecoveryResult recovered = ckpt::Recover(recover_options);

      serve::ModelGeneration models;
      serve::DeltaFolder folder(*recovered.log, models,
                                std::move(recovered.model),
                                recovered.log->next_lsn() - 1);
      ckpt::CheckpointOptions ckpt_options;
      ckpt_options.dir = ckpt_dir;
      ckpt_options.keep_last = 2;
      ckpt::CheckpointManager manager(folder, *recovered.log, ckpt_options);

      for (std::uint64_t i = 1; i <= 600; ++i) {
        const std::uint64_t lsn = recovered.log->next_lsn();
        const wal::AppendAck ack = recovered.log->Append(
            RecordForLsn(lsn), /*require_durable=*/true,
            /*request_id=*/lsn);
        if (ack.lsn != lsn || ack.deduplicated) ::_exit(5);
        emit(lsn);
        if (lsn % 5 == 0) folder.FoldOnce();
        if (lsn % 11 == 0) {
          emit(kCkptBegin);
          manager.CheckpointNow();
          emit(kCkptEnd);
        }
      }
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(0);
  }

  ::close(pipe_fd[1]);
  KillOutcome outcome;
  std::size_t events = 0;
  std::size_t checkpoints_begun = 0;
  bool inside_checkpoint = false;
  std::uint64_t value = 0;
  auto consume = [&](std::uint64_t v) {
    if (v == kCkptBegin) {
      ++checkpoints_begun;
      inside_checkpoint = true;
    } else if (v == kCkptEnd) {
      inside_checkpoint = false;
    } else {
      outcome.highest_acked = v;
    }
  };
  while (::read(pipe_fd[0], &value, sizeof(value)) == sizeof(value)) {
    consume(value);
    ++events;
    if (aim_at_checkpoint ? checkpoints_begun >= kill_after
                          : events >= kill_after) {
      break;
    }
  }
  ::usleep(jitter_us);
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  // Acks that raced the kill are just as durable: drain them first.
  while (::read(pipe_fd[0], &value, sizeof(value)) == sizeof(value)) {
    consume(value);
  }
  ::close(pipe_fd[0]);
  outcome.killed_mid_checkpoint = inside_checkpoint;
  if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    ADD_FAILURE() << "seed " << seed << ": pipeline child failed with exit "
                  << WEXITSTATUS(status);
    return outcome;
  }

  // Recovery audit.  (1) The ladder must produce a model — a crash here
  // is an automatic failure.
  ckpt::RecoverOptions options;
  options.ckpt_dir = ckpt_dir;
  options.wal_dir = wal_dir;
  options.seed_model = TinySeed;
  ckpt::RecoveryResult result;
  try {
    result = ckpt::Recover(options);
  } catch (const util::Error& e) {
    ADD_FAILURE() << "seed " << seed << ": recovery threw: " << e.what();
    return outcome;
  }

  // (2) Zero acked-record loss: every acked lsn's cell reads back.
  ExpectFoldedUpTo(*result.model, outcome.highest_acked);

  // (3) Bounded replay: the suffix recovery folded is exactly the
  // records past the watermark (independent read-only count), and
  // compaction never outran the chosen starting point.
  const wal::ReplayResult replay = wal::ReplayLog(wal_dir);
  std::size_t past_watermark = 0;
  for (const wal::RecoveredRecord& rec : replay.records) {
    if (rec.lsn > result.info.watermark) ++past_watermark;
  }
  EXPECT_EQ(result.info.replayed_records, past_watermark)
      << "seed " << seed << ": replay was not bounded by the watermark";
  EXPECT_EQ(result.info.skipped_records, 0u) << "seed " << seed;
  EXPECT_FALSE(result.info.degraded_history)
      << "seed " << seed << ": compaction removed records the chosen "
      << "checkpoint does not cover (watermark " << result.info.watermark
      << ", log starts at " << replay.first_lsn << ")";
  EXPECT_GE(replay.records.empty() ? result.log->next_lsn() - 1
                                   : replay.records.back().lsn,
            outcome.highest_acked)
      << "seed " << seed << ": an acked record vanished from the log";

  // (4) Idempotency across the crash: a client retry of the last acked
  // write is absorbed — original lsn, nothing new appended, nothing
  // handed to the folder a second time.
  if (outcome.highest_acked > 0) {
    const std::uint64_t before = result.log->next_lsn();
    const wal::AppendAck retry =
        result.log->Append(RecordForLsn(outcome.highest_acked),
                           /*require_durable=*/true,
                           /*request_id=*/outcome.highest_acked);
    EXPECT_TRUE(retry.deduplicated)
        << "seed " << seed << ": retry after crash was double-applied";
    EXPECT_EQ(retry.lsn, outcome.highest_acked) << "seed " << seed;
    EXPECT_EQ(result.log->next_lsn(), before) << "seed " << seed;
    std::vector<wal::AckedRecord> drained;
    EXPECT_EQ(result.log->DrainAcked(&drained), 0u)
        << "seed " << seed << ": a deduplicated retry reached the folder "
        << "(double fold)";
  }
  return outcome;
}

TEST_F(CkptCrashTest, WholeLoopKillRecoverLosesNothingAndReplaysBounded) {
  // >= 40 seeded whole-loop kills (acceptance floor); a third aim
  // specifically inside CheckpointNow, covering the bundle write, the
  // manifest write, GC and compaction.
  constexpr std::uint64_t kIterations = 48;
  std::uint64_t total_acked = 0;
  std::size_t mid_checkpoint_kills = 0;
  for (std::uint64_t seed = 1; seed <= kIterations; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const KillOutcome outcome =
        RunWholeLoopIteration(wal_dir_, ckpt_dir_, 0xCB0C0DE0 + seed);
    total_acked += outcome.highest_acked;
    if (outcome.killed_mid_checkpoint) ++mid_checkpoint_kills;
    if (HasFatalFailure()) return;
  }
  // The harness must actually have exercised the pipeline: real acks,
  // and a healthy share of kills landing inside a checkpoint.
  EXPECT_GT(total_acked, kIterations);
  EXPECT_GE(mid_checkpoint_kills, 4u)
      << "the seeded schedule stopped hitting checkpoints mid-write; "
      << "retune the aim-at-checkpoint seeds";
}

// ---------------------------------------------- corruption sweep ------

// Builds a healthy two-checkpoint state with a compacted WAL; returns
// the number of records appended.
std::uint64_t BuildGoldenState(const std::string& wal_dir,
                               const std::string& ckpt_dir) {
  wal::WalOptions wal_options;
  wal_options.max_segment_bytes =
      wal::kSegmentHeaderBytes + 3 * wal::kRecordBytes;
  wal::WriteAheadLog log(wal_dir, wal_options);
  serve::ModelGeneration models;
  serve::DeltaFolder folder(log, models, TinySeed());
  ckpt::CheckpointOptions options;
  options.dir = ckpt_dir;
  options.keep_last = 2;
  ckpt::CheckpointManager manager(folder, log, options);
  std::uint64_t lsn = 0;
  for (int batch = 0; batch < 2; ++batch) {
    for (int i = 0; i < 12; ++i) {
      log.Append(RecordForLsn(++lsn), /*require_durable=*/true);
    }
    folder.FoldOnce();
    manager.CheckpointNow();
  }
  // A few records past the newest watermark, so recovery always has a
  // suffix to replay.
  for (int i = 0; i < 5; ++i) {
    log.Append(RecordForLsn(++lsn), /*require_durable=*/true);
  }
  log.Close();
  return lsn;
}

TEST_F(CkptCrashTest, CorruptionSweepFallsDownTheLadderNeverWrong) {
  const std::string golden_wal = root_ + "/golden_wal";
  const std::string golden_ckpt = root_ + "/golden_ckpt";
  const std::uint64_t total = BuildGoldenState(golden_wal, golden_ckpt);
  const std::vector<std::uint64_t> ids = ckpt::ListCheckpointIds(golden_ckpt);
  ASSERT_EQ(ids.size(), 2u);

  util::Rng rng(0xC0 + 0xDE);
  for (int trial = 0; trial < 48; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    fs::remove_all(wal_dir_);
    fs::remove_all(ckpt_dir_);
    fs::copy(golden_wal, wal_dir_, fs::copy_options::recursive);
    fs::copy(golden_ckpt, ckpt_dir_, fs::copy_options::recursive);

    // Victim: newest manifest / newest bundle / older manifest.
    // Damage: single bit flip or truncation.
    const fs::path root(ckpt_dir_);
    fs::path victim;
    switch (rng.NextBounded(3)) {
      case 0: victim = root / ckpt::ManifestFileName(ids.back()); break;
      case 1: victim = root / ckpt::ModelFileName(ids.back()); break;
      default: victim = root / ckpt::ManifestFileName(ids.front()); break;
    }
    const auto size = fs::file_size(victim);
    if (rng.NextBounded(2) == 0) {
      const auto offset = static_cast<std::streamoff>(rng.NextBounded(size));
      std::fstream file(victim,
                        std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(file.good());
      file.seekg(offset);
      char byte = 0;
      file.get(byte);
      byte = static_cast<char>(byte ^ (1 << rng.NextBounded(8)));
      file.seekp(offset);
      file.put(byte);
    } else {
      fs::resize_file(victim, rng.NextBounded(size));  // [0, size)
    }

    // Never a crash; and because compaction is bounded by the *minimum*
    // retained watermark, whichever rung the ladder lands on still
    // covers every appended record.
    ckpt::RecoverOptions options;
    options.ckpt_dir = ckpt_dir_;
    options.wal_dir = wal_dir_;
    options.seed_model = TinySeed;
    ckpt::RecoveryResult result;
    try {
      result = ckpt::Recover(options);
    } catch (const util::Error& e) {
      ADD_FAILURE() << "recovery threw on single-file damage to "
                    << victim.filename().string() << ": " << e.what();
      continue;
    }
    EXPECT_FALSE(result.info.degraded_history);
    ExpectFoldedUpTo(*result.model, total);
    if (HasFatalFailure()) return;
  }
}

// ------------------------------------------------ armed failpoints ----

TEST_F(CkptCrashTest, LoadFaultFallsBackToThePreviousCheckpoint) {
  // A load fault is not retried: the checkpoint ladder absorbs it.  The
  // newest checkpoint's bundle cannot be read, so recovery takes the
  // older one and replays the longer WAL suffix that compaction kept.
  const std::string golden_wal = root_ + "/golden_wal";
  const std::string golden_ckpt = root_ + "/golden_ckpt";
  const std::uint64_t total = BuildGoldenState(golden_wal, golden_ckpt);
  const std::vector<std::uint64_t> ids = ckpt::ListCheckpointIds(golden_ckpt);
  ASSERT_EQ(ids.size(), 2u);
  ckpt::Manifest older;
  ckpt::Manifest newer;
  ASSERT_TRUE(ckpt::ReadManifestFile(
      (fs::path(golden_ckpt) / ckpt::ManifestFileName(ids.front())).string(),
      &older));
  ASSERT_TRUE(ckpt::ReadManifestFile(
      (fs::path(golden_ckpt) / ckpt::ManifestFileName(ids.back())).string(),
      &newer));
  ASSERT_LT(older.watermark_lsn, newer.watermark_lsn);

  for (const char* point : {"model_io.load.open", "model_io.load.read"}) {
    SCOPED_TRACE(point);
    fs::remove_all(wal_dir_);
    fs::remove_all(ckpt_dir_);
    fs::copy(golden_wal, wal_dir_, fs::copy_options::recursive);
    fs::copy(golden_ckpt, ckpt_dir_, fs::copy_options::recursive);
    ckpt::RecoverOptions options;
    options.ckpt_dir = ckpt_dir_;
    options.wal_dir = wal_dir_;
    options.seed_model = TinySeed;
    ckpt::RecoveryResult result;
    {
      ScopedFailPoint fp(point, "once");
      result = ckpt::Recover(options);
      EXPECT_EQ(FailPointRegistry::Global().TripCount(point), 1u);
    }
    EXPECT_EQ(result.info.source, "checkpoint");
    EXPECT_EQ(result.info.checkpoint_id, ids.front());
    EXPECT_EQ(result.info.fallbacks, 1u);
    EXPECT_EQ(result.info.watermark, older.watermark_lsn);
    EXPECT_EQ(result.info.replayed_records, total - older.watermark_lsn);
    EXPECT_FALSE(result.info.degraded_history);
    ExpectFoldedUpTo(*result.model, total);
  }
}

struct Pipeline {
  explicit Pipeline(const std::string& wal_dir, const std::string& ckpt_dir)
      : log(wal_dir,
            [] {
              wal::WalOptions options;
              options.max_segment_bytes =
                  wal::kSegmentHeaderBytes + 3 * wal::kRecordBytes;
              return options;
            }()),
        folder(log, models, TinySeed()) {
    ckpt::CheckpointOptions options;
    options.dir = ckpt_dir;
    options.keep_last = 2;
    manager =
        std::make_unique<ckpt::CheckpointManager>(folder, log, options);
  }

  void Ingest(std::uint64_t records) {
    for (std::uint64_t i = 0; i < records; ++i) {
      log.Append(RecordForLsn(log.next_lsn()), /*require_durable=*/true);
    }
    folder.FoldOnce();
  }

  wal::WriteAheadLog log;
  serve::ModelGeneration models;
  serve::DeltaFolder folder;
  std::unique_ptr<ckpt::CheckpointManager> manager;
};

TEST_F(CkptCrashTest, CheckpointWriteFaultLeavesThePreviousCheckpointLive) {
  Pipeline pipeline(wal_dir_, ckpt_dir_);
  pipeline.Ingest(6);
  EXPECT_EQ(pipeline.manager->CheckpointNow(), 1u);
  pipeline.Ingest(6);
  {
    ScopedFailPoint fp("ckpt.write", "once");
    EXPECT_THROW(pipeline.manager->CheckpointNow(), util::IoError);
  }
  EXPECT_EQ(pipeline.manager->status().failures, 1u);
  // No manifest committed the failed checkpoint, so recovery (run
  // against a copy of the WAL, so the live pipeline keeps its log)
  // still uses checkpoint 1.
  EXPECT_EQ(ckpt::ListCheckpointIds(ckpt_dir_),
            (std::vector<std::uint64_t>{1}));
  const std::string wal_copy = root_ + "/wal_copy";
  fs::copy(wal_dir_, wal_copy, fs::copy_options::recursive);
  ckpt::RecoverOptions options;
  options.ckpt_dir = ckpt_dir_;
  options.wal_dir = wal_copy;
  options.seed_model = TinySeed;
  {
    const ckpt::RecoveryResult result = ckpt::Recover(options);
    EXPECT_EQ(result.info.source, "checkpoint");
    EXPECT_EQ(result.info.checkpoint_id, 1u);
    ExpectFoldedUpTo(*result.model, 12);
  }
  // The next attempt succeeds with a fresh id; checkpointing is not
  // fail-stop.
  EXPECT_EQ(pipeline.manager->CheckpointNow(), 3u);
}

TEST_F(CkptCrashTest, ManifestFaultNeverReferencesTheOrphanBundle) {
  Pipeline pipeline(wal_dir_, ckpt_dir_);
  pipeline.Ingest(6);
  EXPECT_EQ(pipeline.manager->CheckpointNow(), 1u);
  pipeline.Ingest(6);
  {
    ScopedFailPoint fp("ckpt.manifest", "once");
    EXPECT_THROW(pipeline.manager->CheckpointNow(), util::IoError);
  }
  // The bundle may exist, but nothing points at it: recovery (run
  // against a copy of the WAL, so the live pipeline keeps its log)
  // uses checkpoint 1.
  EXPECT_EQ(ckpt::ListCheckpointIds(ckpt_dir_),
            (std::vector<std::uint64_t>{1}));
  const std::string wal_copy = root_ + "/wal_copy";
  fs::copy(wal_dir_, wal_copy, fs::copy_options::recursive);
  ckpt::RecoverOptions options;
  options.ckpt_dir = ckpt_dir_;
  options.wal_dir = wal_copy;
  options.seed_model = TinySeed;
  {
    const ckpt::RecoveryResult result = ckpt::Recover(options);
    EXPECT_EQ(result.info.source, "checkpoint");
    EXPECT_EQ(result.info.checkpoint_id, 1u);
    ExpectFoldedUpTo(*result.model, 12);
  }
  // A later successful checkpoint's GC sweeps the orphan bundle.
  const fs::path orphan = fs::path(ckpt_dir_) / ckpt::ModelFileName(2);
  EXPECT_TRUE(fs::exists(orphan));
  pipeline.Ingest(6);
  EXPECT_GT(pipeline.manager->CheckpointNow(), 2u);
  EXPECT_FALSE(fs::exists(orphan)) << "orphan bundle was never GC'd";
}

TEST_F(CkptCrashTest, FailedFoldLosesNoRecordOnceALaterFoldIsCheckpointed) {
  // A fold that throws keeps its batch: the next fold applies it first,
  // and the watermark never passes it, so a checkpoint taken after that
  // fold, and a recovery from it, still hold every acked record.
  const auto failures = [] {
    return obs::MetricsRegistry::Global().GetCounter(obs::names::kWalFoldFailures).Value();
  };
  {
    wal::WriteAheadLog log(wal_dir_);
    serve::ModelGeneration models;
    serve::DeltaFolder folder(log, models, TinySeed());
    ckpt::CheckpointOptions options;
    options.dir = ckpt_dir_;
    ckpt::CheckpointManager manager(folder, log, options);
    for (std::uint64_t lsn = 1; lsn <= 3; ++lsn) {
      log.Append(RecordForLsn(lsn), /*require_durable=*/true);
    }
    const std::uint64_t failures_before = failures();
    {
      ScopedFailPoint fp("serve.fold", "once");
      EXPECT_THROW(folder.FoldOnce(), obs::InjectedFault);
    }
    EXPECT_EQ(failures(), failures_before + 1);
    EXPECT_EQ(folder.fold_watermark(), 0u);
    EXPECT_EQ(folder.folded_records(), 0u);
    EXPECT_EQ(folder.publishes(), 0u);

    log.Append(RecordForLsn(4), /*require_durable=*/true);
    EXPECT_EQ(folder.FoldOnce(), 4u);
    EXPECT_EQ(folder.fold_watermark(), 4u);
    EXPECT_EQ(folder.folded_records(), 4u);
    ExpectFoldedUpTo(*folder.Snapshot().model, 4);
    EXPECT_EQ(manager.CheckpointNow(), 1u);
  }
  ckpt::RecoverOptions options;
  options.ckpt_dir = ckpt_dir_;
  options.wal_dir = wal_dir_;
  options.seed_model = TinySeed;
  const ckpt::RecoveryResult result = ckpt::Recover(options);
  EXPECT_EQ(result.info.source, "checkpoint");
  EXPECT_EQ(result.info.watermark, 4u);
  EXPECT_EQ(result.info.replayed_records, 0u);
  ExpectFoldedUpTo(*result.model, 4);
}

TEST_F(CkptCrashTest, CompactFaultFailStopsCompactionButNotCheckpoints) {
  Pipeline pipeline(wal_dir_, ckpt_dir_);
  pipeline.Ingest(9);
  const std::size_t records_before =
      wal::ReplayLog(wal_dir_).records.size();
  {
    ScopedFailPoint fp("wal.compact", "once");
    EXPECT_EQ(pipeline.manager->CheckpointNow(), 1u)
        << "a compaction fault must not fail the checkpoint";
  }
  ckpt::CheckpointStatus status = pipeline.manager->status();
  EXPECT_TRUE(status.compaction_failed);
  EXPECT_EQ(status.compacted_segments, 0u);
  // Fail-stop: the log is intact and never compacted again, while
  // checkpoints keep the replay bound.
  EXPECT_EQ(wal::ReplayLog(wal_dir_).records.size(), records_before);
  pipeline.Ingest(9);
  EXPECT_EQ(pipeline.manager->CheckpointNow(), 2u);
  status = pipeline.manager->status();
  EXPECT_TRUE(status.compaction_failed);
  EXPECT_EQ(status.compacted_segments, 0u);
  EXPECT_EQ(wal::ReplayLog(wal_dir_).records.size(), records_before + 9);
  EXPECT_EQ(wal::ReplayLog(wal_dir_).first_lsn, 1u)
      << "a fail-stopped compactor removed segments";
}

}  // namespace
}  // namespace cfsf
