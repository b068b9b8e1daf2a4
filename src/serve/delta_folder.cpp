#include "serve/delta_folder.hpp"

#include <algorithm>
#include <utility>

#include "obs/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/timer.hpp"
#include "util/backoff.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace cfsf::serve {

namespace {

// Minimum spacing of the skipped-records warning log line.
constexpr std::chrono::seconds kSkipWarnInterval{10};

struct FoldMetrics {
  obs::Counter& folded;
  obs::Counter& skipped;
  obs::Counter& publishes;
  obs::Counter& failures;
  obs::Gauge& staleness_us;
  obs::Histogram& fold_latency_us;

  static FoldMetrics& Instance() {
    static FoldMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return FoldMetrics{
          registry.GetCounter(obs::names::kWalFoldedRecords),
          registry.GetCounter(obs::names::kWalFoldSkipped),
          registry.GetCounter(obs::names::kWalFoldPublishes),
          registry.GetCounter(obs::names::kWalFoldFailures),
          registry.GetGauge(obs::names::kWalStalenessUs),
          registry.GetHistogram(obs::names::kWalFoldLatencyUs,
                                obs::LatencyBucketsUs()),
      };
    }();
    return metrics;
  }
};

}  // namespace

DeltaFolder::DeltaFolder(wal::WriteAheadLog& log, ModelGeneration& models,
                         std::shared_ptr<core::CfsfModel> model,
                         const DeltaFolderOptions& options)
    : log_(log), models_(models), options_(options), model_(std::move(model)) {
  CFSF_REQUIRE(model_ != nullptr, "DeltaFolder: model required");
  util::MutexLock lock(&mutex_);
  watermark_ = options_.initial_watermark;
}

DeltaFolder::~DeltaFolder() { Stop(); }

std::uint64_t DeltaFolder::PublishNow() {
  std::shared_ptr<core::CfsfModel> model;
  {
    util::MutexLock lock(&mutex_);
    model = model_;
    ++publishes_;
  }
  FoldMetrics::Instance().publishes.Increment();
  return models_.Install(std::move(model));
}

std::size_t DeltaFolder::FoldOnce() {
  FoldMetrics& metrics = FoldMetrics::Instance();
  std::vector<matrix::RatingTriple> ratings;
  std::shared_ptr<core::CfsfModel> published;
  std::size_t drained = 0;
  std::size_t skipped = 0;
  std::uint64_t skipped_total = 0;
  bool warn_skipped = false;
  std::chrono::steady_clock::time_point oldest_ack;
  {
    util::MutexLock lock(&mutex_);
    // Drained under the lock, behind what a failed fold left: every batch
    // is in lsn order, so a re-rated cell keeps its later rating.
    log_.DrainAcked(&unfolded_);
    if (unfolded_.empty()) return 0;
    oldest_ack = unfolded_.front().acked_at;
    ratings.reserve(unfolded_.size());
    for (const wal::AckedRecord& acked : unfolded_) {
      oldest_ack = std::min(oldest_ack, acked.acked_at);
      const matrix::RatingTriple& r = acked.record;
      if (r.user < model_->NumUsers() && r.item < model_->NumItems()) {
        ratings.push_back(r);
      } else {
        // Out-of-range ids are durable but not foldable: a fold never
        // enrols (CfsfModel::WithNewUser is a separate path).
        ++skipped;
      }
    }
    if (!ratings.empty()) {
      try {
        CFSF_FAILPOINT("serve.fold");
        obs::ScopedTimer fold_timer(metrics.fold_latency_us);
        model_ = model_->WithRatings(ratings);
      } catch (...) {
        // The batch stays in unfolded_ and the watermark below it, so
        // the next cycle folds it first and no checkpoint can pass it.
        metrics.failures.Increment();
        throw;
      }
      published = model_;
      ++publishes_;
    }
    folded_ += ratings.size();
    skipped_ += skipped;
    // Drained is drained: a skipped record is permanently unfoldable
    // against this model, so the watermark advances over it — the
    // backlog is surfaced below, not replayed forever.
    watermark_ = std::max(watermark_, unfolded_.back().lsn);
    drained = unfolded_.size();
    unfolded_.clear();
    if (skipped > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (last_skip_warn_.time_since_epoch().count() == 0 ||
          now - last_skip_warn_ >= kSkipWarnInterval) {
        last_skip_warn_ = now;
        warn_skipped = true;
        skipped_total = skipped_;
      }
    }
  }
  metrics.folded.Increment(ratings.size());
  metrics.skipped.Increment(skipped);
  if (warn_skipped) {
    CFSF_LOG_WARN << "delta folder: " << skipped
                  << " record(s) outside the model's dimensions this "
                     "batch ("
                  << skipped_total
                  << " total); they are durable but will never fold — "
                     "enrol the users/items or expect a stale backlog";
  }
  if (published != nullptr) {
    models_.Install(std::move(published));
    metrics.publishes.Increment();
    metrics.staleness_us.Set(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - oldest_ack)
                                 .count());
  }
  return drained;
}

void DeltaFolder::Start() {
  {
    util::MutexLock lock(&mutex_);
    if (running_) return;
    running_ = true;
    stop_ = false;
  }
  thread_ = std::thread(&DeltaFolder::Loop, this);
}

void DeltaFolder::Stop() {
  {
    util::MutexLock lock(&mutex_);
    if (!running_) return;
    stop_ = true;
  }
  if (thread_.joinable()) thread_.join();
  util::MutexLock lock(&mutex_);
  running_ = false;
}

void DeltaFolder::Loop() {
  for (;;) {
    {
      util::MutexLock lock(&mutex_);
      if (stop_) return;
    }
    try {
      FoldOnce();
    } catch (const util::Error&) {
      // A fold failure (e.g. an injected fault inside WithRatings) must
      // not kill the thread.  The model is untouched, and the failed
      // batch stays in the folder, which folds it first next cycle;
      // until then the watermark stays below it, so no checkpoint
      // covers it.
    }
    util::SleepFor(options_.poll_interval);
  }
}

FoldSnapshot DeltaFolder::Snapshot() const {
  util::MutexLock lock(&mutex_);
  return FoldSnapshot{model_, watermark_};
}

std::uint64_t DeltaFolder::fold_watermark() const {
  util::MutexLock lock(&mutex_);
  return watermark_;
}

std::uint64_t DeltaFolder::folded_records() const {
  util::MutexLock lock(&mutex_);
  return folded_;
}

std::uint64_t DeltaFolder::skipped_records() const {
  util::MutexLock lock(&mutex_);
  return skipped_;
}

std::uint64_t DeltaFolder::publishes() const {
  util::MutexLock lock(&mutex_);
  return publishes_;
}

}  // namespace cfsf::serve
