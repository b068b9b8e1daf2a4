#include "ckpt/checkpoint_manager.hpp"

#include <algorithm>
#include <filesystem>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/manifest.hpp"
#include "core/model_io.hpp"
#include "obs/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/durable_file.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "wal/compact.hpp"

namespace cfsf::ckpt {

namespace {

namespace fs = std::filesystem;

struct CkptMetrics {
  obs::Counter& writes;
  obs::Counter& write_failures;
  obs::Counter& compact_failures;
  obs::Gauge& last_id;
  obs::Gauge& watermark;

  static CkptMetrics& Instance() {
    static CkptMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return CkptMetrics{
          registry.GetCounter(obs::names::kCkptWrites),
          registry.GetCounter(obs::names::kCkptWriteFailures),
          registry.GetCounter(obs::names::kCkptCompactFailures),
          registry.GetGauge(obs::names::kCkptLastId),
          registry.GetGauge(obs::names::kCkptWatermark),
      };
    }();
    return metrics;
  }
};

}  // namespace

CheckpointManager::CheckpointManager(serve::DeltaFolder& folder,
                                     wal::WriteAheadLog& log,
                                     const CheckpointOptions& options)
    : folder_(folder), log_(log), options_(options) {
  CFSF_REQUIRE(!options_.dir.empty(), "CheckpointManager: dir required");
  CFSF_REQUIRE(options_.keep_last >= 1,
               "CheckpointManager: keep_last must be >= 1");
  util::CreateDirectoriesDurably(options_.dir);
  // Resume numbering past whatever a previous process left behind, and
  // adopt the newest readable manifest so the first background attempt
  // does not rewrite an identical checkpoint.
  const std::vector<std::uint64_t> ids = ListCheckpointIds(options_.dir);
  util::MutexLock lock(&mutex_);
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    Manifest manifest;
    const std::string path =
        (fs::path(options_.dir) / ManifestFileName(*it)).string();
    if (ReadManifestFile(path, &manifest)) {
      last_id_ = manifest.id;
      last_watermark_ = manifest.watermark_lsn;
      break;
    }
  }
  if (!ids.empty()) next_id_ = ids.back() + 1;
}

CheckpointManager::~CheckpointManager() { Stop(); }

std::uint64_t CheckpointManager::CheckpointNow() {
  util::MutexLock io_lock(&io_mutex_);

  // Nothing folded since the last checkpoint: rewriting an identical
  // bundle buys no replay bound and burns I/O.  (A first checkpoint is
  // always worth writing — it seeds the fallback ladder.)
  const serve::FoldSnapshot snapshot = folder_.Snapshot();
  std::uint64_t id = 0;
  {
    util::MutexLock lock(&mutex_);
    if (last_id_ != 0 && snapshot.watermark <= last_watermark_) return 0;
    id = next_id_++;
  }

  CkptMetrics& metrics = CkptMetrics::Instance();
  const fs::path root(options_.dir);
  const std::string model_path = (root / ModelFileName(id)).string();
  try {
    CFSF_FAILPOINT("ckpt.write");
    // Step 2: the bundle.  SaveModel returns once it is durable; the
    // read-back proves the saved bytes are intact, so no manifest ever
    // names a checkpoint that cannot actually recover.
    core::SaveModel(*snapshot.model, model_path);
    const core::VerifyReport report = core::VerifyModel(model_path);

    CFSF_FAILPOINT("ckpt.manifest");
    Manifest manifest;
    manifest.id = id;
    manifest.watermark_lsn = snapshot.watermark;
    manifest.generation = folder_.publishes();
    manifest.model_bytes = report.file_bytes;
    // Step 3, the commit point: recovery sees this checkpoint from here.
    WriteManifestFile(options_.dir, manifest);
  } catch (const util::Error& e) {
    // Leave any orphan bundle for the next GC pass; nothing references
    // it, so recovery is unaffected.
    metrics.write_failures.Increment();
    util::MutexLock lock(&mutex_);
    ++failures_;
    last_error_ = e.what();
    throw;
  }

  metrics.writes.Increment();
  metrics.last_id.Set(static_cast<double>(id));
  metrics.watermark.Set(static_cast<double>(snapshot.watermark));
  {
    util::MutexLock lock(&mutex_);
    ++writes_;
    last_id_ = id;
    last_watermark_ = snapshot.watermark;
  }

  const std::uint64_t compact_below = GarbageCollect(snapshot.watermark);

  {
    util::MutexLock lock(&mutex_);
    if (compaction_failed_) return id;
  }
  try {
    const wal::CompactResult compacted =
        wal::CompactWal(log_.dir(), compact_below);
    if (compacted.removed_segments > 0) {
      util::MutexLock lock(&mutex_);
      compacted_segments_ += compacted.removed_segments;
    }
  } catch (const util::Error& e) {
    // Fail-stop: a half-trusted directory state must not be retried
    // blindly.  Checkpoints keep the replay bound; the log just stops
    // shrinking until an operator looks.
    metrics.compact_failures.Increment();
    CFSF_LOG_WARN << "ckpt: wal compaction fail-stopped: " << e.what();
    util::MutexLock lock(&mutex_);
    compaction_failed_ = true;
    last_error_ = e.what();
  }
  return id;
}

std::uint64_t CheckpointManager::GarbageCollect(
    std::uint64_t newest_watermark) {
  // Retained = the newest keep_last ids.  The compaction bound is the
  // minimum watermark over retained readable manifests: the oldest
  // fallback candidate must still find every record past *its*
  // watermark in the log, or falling back would silently lose the gap.
  const std::vector<std::uint64_t> ids = ListCheckpointIds(options_.dir);
  const std::size_t keep = std::min(options_.keep_last, ids.size());
  const fs::path root(options_.dir);
  std::uint64_t min_watermark = newest_watermark;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint64_t id = ids[i];
    const bool retained = i + keep >= ids.size();
    if (retained) {
      Manifest manifest;
      if (ReadManifestFile((root / ManifestFileName(id)).string(),
                           &manifest)) {
        min_watermark = std::min(min_watermark, manifest.watermark_lsn);
      } else {
        // Unreadable retained manifest: recovery would skip it down the
        // ladder, so its (unknown) watermark must not bound compaction
        // upward — be conservative and keep everything.
        min_watermark = 0;
      }
      continue;
    }
    // Manifest first: once its unlink is durable the bundle is an
    // orphan, which the sweep below removes, so neither a crash nor a
    // power cut leaves a manifest pointing into the void.  Best-effort:
    // a failure leaves the checkpoint for the next pass.
    try {
      util::RemoveFileDurably(options_.dir, ManifestFileName(id));
    } catch (const util::IoError&) {
    }
  }
  // Orphan bundles — retired above, or a failed checkpoint's model that
  // never got its manifest.  Nothing references them.
  std::error_code iter_ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(root, iter_ec)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kSuffix = ".model";
    if (name.size() <= kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    std::uint64_t id = 0;
    const std::string as_manifest =
        name.substr(0, name.size() - kSuffix.size()) + ".manifest";
    if (!ParseManifestFileName(as_manifest, &id)) continue;
    std::error_code exists_ec;
    if (!fs::exists(root / as_manifest, exists_ec)) {
      try {
        util::RemoveFileDurably(options_.dir, name);
      } catch (const util::IoError&) {
        // Best-effort, like the pass above.
      }
    }
  }
  return min_watermark;
}

void CheckpointManager::Start() {
  {
    util::MutexLock lock(&mutex_);
    if (running_) return;
    running_ = true;
    stop_ = false;
  }
  thread_ = std::thread(&CheckpointManager::Loop, this);
}

void CheckpointManager::Stop() {
  {
    util::MutexLock lock(&mutex_);
    if (!running_) return;
    stop_ = true;
    stop_cv_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
  util::MutexLock lock(&mutex_);
  running_ = false;
}

void CheckpointManager::Loop() {
  // Each attempt is due `interval` after the previous one started.
  auto next = std::chrono::steady_clock::now() + options_.interval;
  for (;;) {
    {
      util::MutexLock lock(&mutex_);
      // True means notified (Stop) or a spurious wake-up; false means
      // the deadline passed.
      while (!stop_ && stop_cv_.WaitUntil(lock, next)) {
      }
      if (stop_) return;
    }
    next = std::chrono::steady_clock::now() + options_.interval;
    try {
      CheckpointNow();
    } catch (const util::Error&) {
      // Already counted in failures_/ckpt.write.failures; the next
      // attempt retries with a fresh id.
    }
  }
}

CheckpointStatus CheckpointManager::status() const {
  util::MutexLock lock(&mutex_);
  CheckpointStatus status;
  status.last_id = last_id_;
  status.last_watermark = last_watermark_;
  status.writes = writes_;
  status.failures = failures_;
  status.compacted_segments = compacted_segments_;
  status.compaction_failed = compaction_failed_;
  status.last_error = last_error_;
  return status;
}

}  // namespace cfsf::ckpt
