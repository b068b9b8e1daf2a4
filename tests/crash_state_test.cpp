// Crash-state test (ctest label `fault`): does every acked rating
// survive a power cut, wherever it lands?
//
// The kill-recover harnesses (wal_crash_test, ckpt_crash_test) cannot
// see a missing fsync, because the page cache survives a SIGKILL.  This
// test instead records, through util::SetDurableObserver, every durable
// operation of a short single-threaded run (ingest, fold, checkpoint, GC,
// WAL compaction), from the creation of the log and checkpoint
// directories on.  After each recorded operation it builds, in a scratch
// directory, every state a power cut may leave under this model (Pillai
// et al., "All File Systems Are Not Created Equal", OSDI 2014):
//
//   * a file keeps the bytes it held at its last fsync; the bytes
//     written since are either all lost or all kept (one choice for
//     every file of the state);
//   * a create, rename, unlink or mkdir is certain to survive only once
//     its directory has been fsynced — until then, any subset of the
//     directory's pending operations may have survived.
//
// Each state is recovered with ckpt::Recover, which must bring back
// every record whose Append had returned exactly once and in lsn order,
// never flag degraded_history, and yield a model that predicts
// bit-identically to the seed folded with the records it holds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/recover.hpp"
#include "core/cfsf.hpp"
#include "data/synthetic.hpp"
#include "matrix/types.hpp"
#include "serve/delta_folder.hpp"
#include "serve/model_generation.hpp"
#include "util/durable_file.hpp"
#include "util/error.hpp"
#include "wal/format.hpp"
#include "wal/log.hpp"

namespace cfsf {
namespace {

namespace fs = std::filesystem;
using Kind = util::DurableOp::Kind;

constexpr std::uint32_t kUsers = 30;
constexpr std::uint32_t kItems = 40;
constexpr std::size_t kRounds = 3;
constexpr std::size_t kRecordsPerRound = 12;
// The header plus 8 frames: 36 records fill 5 segments, and compaction
// has whole segments to delete.
constexpr std::uint64_t kSegmentBytes =
    wal::kSegmentHeaderBytes + 8 * wal::kRecordBytes;
// Correct code never has more than a create and a rename waiting for a
// directory fsync; this only bounds the enumeration.
constexpr std::size_t kMaxPending = 12;

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

// Ratings for cells the seed leaves unrated, so each one is checkable
// in the recovered matrix.
std::vector<matrix::RatingTriple> FreshRecords(const core::CfsfModel& seed) {
  std::vector<matrix::RatingTriple> records;
  for (matrix::ItemId item = 0; item < kItems; ++item) {
    for (matrix::UserId user = 0; user < kUsers; ++user) {
      if (records.size() < kRounds * kRecordsPerRound &&
          !seed.train().GetRating(user, item).has_value()) {
        records.push_back(matrix::RatingTriple{
            user, item, static_cast<matrix::Rating>(1 + records.size() % 5),
            static_cast<matrix::Timestamp>(1000000000 + records.size())});
      }
    }
  }
  return records;
}

std::string Normal(std::string_view path) {
  if (path.empty()) return {};
  fs::path normal = fs::path(path).lexically_normal();
  if (!normal.has_filename()) normal = normal.parent_path();
  return normal.string();
}

struct Op {
  Kind kind;
  std::string path;
  std::string target;
  std::string bytes;
};

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kCreate: return "create";
    case Kind::kWrite: return "write";
    case Kind::kFsync: return "fsync";
    case Kind::kRename: return "rename";
    case Kind::kUnlink: return "unlink";
    case Kind::kDirFsync: return "dir-fsync";
    case Kind::kMkdir: return "mkdir";
  }
  return "?";
}

// A crash state: path relative to the root -> the file's bytes, or
// nullptr for a directory.
using State = std::map<std::string, const std::string*>;

// The file system as the model sees it after a prefix of the recorded
// operations: per directory, the entries its last fsync made durable,
// the live entries, and the changes still pending between the two; per
// file, its synced and its written bytes.
class ModelFs {
 public:
  explicit ModelFs(std::string root) : root_(std::move(root)) {
    dirs_[root_];
  }

  void Apply(const Op& op) {
    const fs::path path(op.path);
    switch (op.kind) {
      case Kind::kMkdir:
        Link(path, kDirectory);
        dirs_[op.path];
        break;
      case Kind::kCreate:
        ASSERT_EQ(Live(path).count(Name(path)), 0u)
            << "truncating an existing file is not modelled: " << op.path;
        files_.emplace_back();
        Link(path, static_cast<int>(files_.size() - 1));
        break;
      case Kind::kWrite:
        files_.at(Node(path)).written += op.bytes;
        break;
      case Kind::kFsync: {
        File& file = files_.at(Node(path));
        file.synced = file.written;
        break;
      }
      case Kind::kRename: {
        ASSERT_EQ(fs::path(op.target).parent_path(), path.parent_path())
            << "a rename across directories is not modelled";
        Dir& dir = dirs_.at(path.parent_path().string());
        const int node = dir.live.at(Name(path));
        const std::string to = Name(fs::path(op.target));
        dir.live.erase(Name(path));
        dir.live[to] = node;
        dir.pending.push_back(Change{Name(path), to, node});
        break;
      }
      case Kind::kUnlink: {
        Dir& dir = dirs_.at(path.parent_path().string());
        dir.live.erase(Name(path));
        dir.pending.push_back(Change{Name(path), "", 0});
        break;
      }
      case Kind::kDirFsync: {
        Dir& dir = dirs_.at(op.path);
        dir.durable = dir.live;
        dir.pending.clear();
        break;
      }
    }
  }

  std::size_t pending() const {
    std::size_t count = 0;
    for (const auto& [name, dir] : dirs_) count += dir.pending.size();
    return count;
  }

  // The state in which exactly the pending changes selected by `mask`
  // survived (bit i = the i-th pending change, directories in path
  // order), with every file's unsynced bytes kept or lost.
  State StateFor(std::uint64_t mask, bool keep_unsynced) const {
    std::map<std::string, std::map<std::string, int>> entries;
    std::size_t bit = 0;
    for (const auto& [dir_path, dir] : dirs_) {
      std::map<std::string, int>& survived = entries[dir_path];
      survived = dir.durable;
      for (const Change& change : dir.pending) {
        if ((mask >> bit++ & 1) == 0) continue;
        if (!change.remove.empty()) survived.erase(change.remove);
        if (!change.add.empty()) survived[change.add] = change.node;
      }
    }
    State state;
    const std::function<void(const std::string&, const std::string&)> walk =
        [&](const std::string& dir_path, const std::string& relative) {
          for (const auto& [name, node] : entries.at(dir_path)) {
            const std::string child = relative + "/" + name;
            if (node == kDirectory) {
              state[child] = nullptr;
              walk((fs::path(dir_path) / name).string(), child);
            } else {
              const File& file = files_.at(node);
              state[child] = keep_unsynced ? &file.written : &file.synced;
            }
          }
        };
    walk(root_, "");
    return state;
  }

 private:
  static constexpr int kDirectory = -1;
  struct Change {
    std::string remove;  // name unlinked (an unlink, a rename's source)
    std::string add;     // name linked (a create, mkdir, rename's target)
    int node = 0;        // file index, or kDirectory
  };
  struct Dir {
    std::map<std::string, int> durable;
    std::map<std::string, int> live;
    std::vector<Change> pending;
  };
  struct File {
    std::string synced;
    std::string written;
  };

  static std::string Name(const fs::path& path) {
    return path.filename().string();
  }
  std::map<std::string, int>& Live(const fs::path& path) {
    return dirs_.at(path.parent_path().string()).live;
  }
  std::size_t Node(const fs::path& path) {
    return static_cast<std::size_t>(Live(path).at(Name(path)));
  }
  void Link(const fs::path& path, int node) {
    Dir& dir = dirs_.at(path.parent_path().string());
    dir.live[Name(path)] = node;
    dir.pending.push_back(Change{"", Name(path), node});
  }

  std::string root_;
  std::map<std::string, Dir> dirs_;
  std::vector<File> files_;
};

std::string Signature(const State& state) {
  std::string signature;
  for (const auto& [path, bytes] : state) {
    signature += path;
    if (bytes == nullptr) {
      signature += '/';
    } else {
      signature += '=';
      signature += std::to_string(std::hash<std::string>{}(*bytes));
    }
    signature += '\n';
  }
  return signature;
}

void Write(const State& state, const std::string& out) {
  fs::create_directories(out);
  for (const auto& [path, bytes] : state) {
    if (bytes == nullptr) {
      fs::create_directories(out + path);
    } else {
      std::ofstream file(out + path, std::ios::binary);
      file.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
    }
  }
}

struct Recording {
  std::vector<Op> ops;
  // acked_after[k]: the number of recorded operations when the Append of
  // lsn k + 1 returned.
  std::vector<std::size_t> acked_after;
};

// The recorded run: {append 12, fold, checkpoint} three times.
Recording Record(const std::string& run_root, std::size_t keep_last,
                 const std::vector<matrix::RatingTriple>& records) {
  Recording recording;
  util::SetDurableObserver([&recording](const util::DurableOp& op) {
    recording.ops.push_back(Op{op.kind, Normal(op.path), Normal(op.target),
                               std::string(op.bytes)});
  });
  {
    wal::WalOptions wal_options;
    wal_options.max_segment_bytes = kSegmentBytes;
    wal::WriteAheadLog log(run_root + "/wal", wal_options);
    serve::ModelGeneration models;
    serve::DeltaFolder folder(log, models, TinySeed());
    ckpt::CheckpointOptions ckpt_options;
    ckpt_options.dir = run_root + "/ckpt";
    ckpt_options.keep_last = keep_last;
    ckpt::CheckpointManager manager(folder, log, ckpt_options);
    for (std::size_t next = 0; next < records.size();) {
      for (std::size_t k = 0; k < kRecordsPerRound; ++k) {
        log.Append(records[next++]);
        recording.acked_after.push_back(recording.ops.size());
      }
      folder.FoldOnce();
      EXPECT_NE(manager.CheckpointNow(), 0u);
    }
    const ckpt::CheckpointStatus status = manager.status();
    EXPECT_EQ(status.failures, 0u) << status.last_error;
    EXPECT_FALSE(status.compaction_failed) << status.last_error;
    EXPECT_GT(status.compacted_segments, 0u)
        << "compaction never deleted a segment";
  }
  util::SetDurableObserver(nullptr);
  return recording;
}

// Sample pairs whose predictions must come back bit for bit.
std::vector<std::pair<matrix::UserId, matrix::ItemId>> SamplePairs() {
  std::vector<std::pair<matrix::UserId, matrix::ItemId>> pairs;
  for (std::uint32_t k = 0; k < 12; ++k) {
    pairs.emplace_back((k * 7) % kUsers, (k * 11 + 3) % kItems);
  }
  return pairs;
}

class CrashStateTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    base_ = (fs::path(::testing::TempDir()) /
             ("cfsf_crash_state_keep" + std::to_string(GetParam())))
                .string();
    fs::remove_all(base_);
    fs::create_directories(base_ + "/run");
    seed_ = TinySeed();
    records_ = FreshRecords(*seed_);
    ASSERT_EQ(records_.size(), kRounds * kRecordsPerRound);
  }
  void TearDown() override {
    util::SetDurableObserver(nullptr);
    fs::remove_all(base_);
  }

  // Recovers the state written under `dir`, `acked` records having been
  // acknowledged when the power failed.
  void CheckRecovery(const std::string& dir, std::size_t acked) {
    ckpt::RecoverOptions options;
    options.ckpt_dir = dir + "/ckpt";
    options.wal_dir = dir + "/wal";
    options.wal_options.max_segment_bytes = kSegmentBytes;
    options.seed_model = TinySeed;
    ckpt::RecoveryResult result;
    try {
      result = ckpt::Recover(options);
    } catch (const util::Error& e) {
      FAIL() << "recovery threw: " << e.what();
    }
    const ckpt::RecoveryInfo& info = result.info;
    const std::uint64_t last = result.log->next_lsn() - 1;
    ASSERT_FALSE(info.degraded_history)
        << "recovered from " << info.source << " " << info.checkpoint_id
        << " (watermark " << info.watermark
        << ") past records compaction deleted";
    ASSERT_GE(last, acked) << "acked records lost: the log ends at lsn "
                           << last << ", " << acked << " were acked";
    ASSERT_LE(last, records_.size());
    ASSERT_LE(info.watermark, last)
        << "checkpoint " << info.checkpoint_id << " covers lsns the log "
        << "never held";
    ASSERT_EQ(info.skipped_records, 0u);
    ASSERT_EQ(info.watermark + info.replayed_records, last)
        << "watermark and replayed suffix do not cover lsns 1.." << last
        << " exactly once";

    const core::CfsfModel& model = *result.model;
    ASSERT_EQ(model.train().num_ratings(),
              seed_->train().num_ratings() + last);
    for (std::uint64_t lsn = 1; lsn <= last; ++lsn) {
      const matrix::RatingTriple& want = records_[lsn - 1];
      const auto got = model.train().GetRating(want.user, want.item);
      ASSERT_TRUE(got.has_value()) << "lsn " << lsn << " missing";
      ASSERT_EQ(*got, want.value) << "lsn " << lsn << " corrupted";
    }
    std::vector<double>& expected = expected_[last];
    if (expected.empty()) {
      const std::unique_ptr<core::CfsfModel> folded = seed_->WithRatings(
          std::span(records_.data(), static_cast<std::size_t>(last)));
      for (const auto& [user, item] : SamplePairs()) {
        expected.push_back(folded->Predict(user, item));
      }
    }
    std::size_t k = 0;
    for (const auto& [user, item] : SamplePairs()) {
      ASSERT_EQ(model.Predict(user, item), expected[k++])
          << "prediction for (" << user << ", " << item << ")";
    }
  }

  std::string base_;
  std::unique_ptr<core::CfsfModel> seed_;
  std::vector<matrix::RatingTriple> records_;
  std::map<std::uint64_t, std::vector<double>> expected_;
};

TEST_P(CrashStateTest, EveryPowerCutStateRecoversEveryAckedRecordOnce) {
  const std::string run_root = Normal(base_ + "/run");
  const Recording recording = Record(run_root, GetParam(), records_);
  ASSERT_FALSE(HasFailure());

  ModelFs model(run_root);
  std::set<std::string> seen;
  std::size_t states = 0;     // every state the model allows
  std::size_t recovered = 0;  // the distinct ones, each recovered once
  std::size_t acked = 0;
  for (std::size_t i = 0; i < recording.ops.size(); ++i) {
    const Op& op = recording.ops[i];
    model.Apply(op);
    ASSERT_FALSE(HasFatalFailure());
    while (acked < recording.acked_after.size() &&
           recording.acked_after[acked] <= i + 1) {
      ++acked;
    }
    const std::size_t pending = model.pending();
    ASSERT_LE(pending, kMaxPending)
        << "directory operations pile up without a directory fsync";
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << pending);
         ++mask) {
      for (const bool keep_unsynced : {false, true}) {
        const State state = model.StateFor(mask, keep_unsynced);
        ++states;
        if (!seen.insert(std::to_string(acked) + "\n" + Signature(state))
                 .second) {
          continue;
        }
        ++recovered;
        SCOPED_TRACE(::testing::Message()
                     << "power cut after operation " << i << " ("
                     << KindName(op.kind) << " " << op.path << "), "
                     << acked << " acked, pending changes kept: mask "
                     << mask << " of " << pending << ", unsynced bytes "
                     << (keep_unsynced ? "kept" : "lost"));
        const std::string dir = base_ + "/state";
        fs::remove_all(dir);
        Write(state, dir);
        CheckRecovery(dir, acked);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_EQ(acked, records_.size());
  std::printf(
      "crash-state: keep_last %zu: %zu crash points, %zu states, %zu "
      "distinct ones recovered\n",
      GetParam(), recording.ops.size(), states, recovered);
}

INSTANTIATE_TEST_SUITE_P(
    Checkpoints, CrashStateTest, ::testing::Values(1, 2),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "KeepLast" + std::to_string(info.param);
    });

}  // namespace
}  // namespace cfsf
