#include "ckpt/recover.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>
#include <vector>

#include "ckpt/manifest.hpp"
#include "core/model_io.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace cfsf::ckpt {

namespace fs = std::filesystem;

RecoveryResult Recover(const RecoverOptions& options) {
  CFSF_REQUIRE(!options.wal_dir.empty(), "Recover: wal_dir required");
  CFSF_REQUIRE(options.seed_model != nullptr, "Recover: seed_model required");

  const auto started = std::chrono::steady_clock::now();
  RecoveryResult result;
  RecoveryInfo& info = result.info;

  // Rung 1: checkpoints, newest manifest first — a manifest is written
  // only after its bundle verified, so it is the commit point and no
  // other pointer is consulted.  Trust nothing unverified all the same:
  // every rejection is a counted fallback, never a crash — the
  // candidate below (finally the seed) is always a correct, if older,
  // starting point.
  if (!options.ckpt_dir.empty()) {
    const fs::path root(options.ckpt_dir);
    const std::vector<std::uint64_t> ids = ListCheckpointIds(options.ckpt_dir);
    for (auto id = ids.rbegin(); id != ids.rend(); ++id) {
      Manifest manifest;
      if (!ReadManifestFile((root / ManifestFileName(*id)).string(),
                            &manifest)) {
        ++info.fallbacks;
        continue;
      }
      const std::string model_path = (root / ModelFileName(*id)).string();
      try {
        const core::VerifyReport report = core::VerifyModel(model_path);
        if (report.file_bytes != manifest.model_bytes) {
          throw util::IoError("ckpt: bundle size " +
                              std::to_string(report.file_bytes) +
                              " != manifest " +
                              std::to_string(manifest.model_bytes));
        }
        result.model = core::LoadModel(model_path);
      } catch (const util::Error& e) {
        CFSF_LOG_WARN << "ckpt: skipping checkpoint " << *id << ": "
                      << e.what();
        ++info.fallbacks;
        continue;
      }
      info.source = "checkpoint";
      info.checkpoint_id = manifest.id;
      info.watermark = manifest.watermark_lsn;
      break;
    }
  }

  // Rung 2: the seed — watermark 0, full replay of whatever the log
  // still holds.
  if (result.model == nullptr) {
    result.model = options.seed_model();
    CFSF_REQUIRE(result.model != nullptr, "Recover: seed_model returned null");
    info.source = "seed";
  }

  // Replay the suffix.  The WAL's own open already repaired the torn
  // tail; everything it hands back is durable.
  std::vector<wal::RecoveredRecord> records;
  result.log = std::make_unique<wal::WriteAheadLog>(
      options.wal_dir, options.wal_options, &records);

  const std::uint64_t first_available =
      records.empty() ? result.log->next_lsn() : records.front().lsn;
  info.degraded_history = info.watermark + 1 < first_available;
  if (info.degraded_history) {
    CFSF_LOG_WARN << "ckpt: recovery from " << info.source
                  << " (watermark " << info.watermark
                  << ") but the log starts at lsn " << first_available
                  << " — compaction has removed records this starting "
                     "point does not cover";
  }

  // The suffix folds as one batch, in lsn order, through the same
  // WithRatings the live DeltaFolder uses.
  const core::CfsfModel& start = *result.model;
  std::vector<matrix::RatingTriple> suffix;
  for (const wal::RecoveredRecord& rec : records) {
    if (rec.lsn <= info.watermark) continue;  // already inside the bundle
    const matrix::RatingTriple& r = rec.record;
    if (r.user < start.NumUsers() && r.item < start.NumItems()) {
      suffix.push_back(r);
    } else {
      ++info.skipped_records;
    }
  }
  info.replayed_records = suffix.size();
  if (!suffix.empty()) result.model = result.model->WithRatings(suffix);

  info.recovery_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - started)
                         .count();

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter(obs::names::kCkptRecoveryReplayedRecords)
      .Increment(info.replayed_records);
  registry.GetCounter(obs::names::kCkptRecoveryFallbacks)
      .Increment(info.fallbacks);
  registry.GetGauge(obs::names::kCkptRecoveryUs).Set(info.recovery_us);
  return result;
}

}  // namespace cfsf::ckpt
