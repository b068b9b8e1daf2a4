#include "serve/delta_folder.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/timer.hpp"
#include "util/backoff.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace cfsf::serve {

namespace {

struct FoldMetrics {
  obs::Counter& folded;
  obs::Counter& skipped;
  obs::Counter& publishes;
  obs::Gauge& staleness_us;
  obs::Histogram& fold_latency_us;

  static FoldMetrics& Instance() {
    static FoldMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return FoldMetrics{
          registry.GetCounter(obs::names::kWalFoldedRecords),
          registry.GetCounter(obs::names::kWalFoldSkipped),
          registry.GetCounter(obs::names::kWalFoldPublishes),
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
  std::vector<wal::AckedRecord> batch;
  log_.DrainAcked(&batch);
  if (batch.empty()) return 0;

  FoldMetrics& metrics = FoldMetrics::Instance();
  std::vector<matrix::RatingTriple> ratings;
  ratings.reserve(batch.size());
  std::shared_ptr<core::CfsfModel> published;
  std::size_t skipped = 0;
  std::uint64_t skipped_total = 0;
  bool warn_skipped = false;
  auto oldest_ack = batch.front().acked_at;
  {
    util::MutexLock lock(&mutex_);
    for (const wal::AckedRecord& acked : batch) {
      oldest_ack = std::min(oldest_ack, acked.acked_at);
      const matrix::RatingTriple& r = acked.record;
      if (r.user < model_->NumUsers() && r.item < model_->NumItems()) {
        ratings.push_back(r);
      } else {
        // Out-of-range ids are durable but not foldable; cold-start
        // enrolment (CfsfModel::AddUser) is a separate path.
        ++skipped;
      }
    }
    if (!ratings.empty()) {
      // Drained in lsn order, so a re-rated cell keeps its later rating.
      obs::ScopedTimer fold_timer(metrics.fold_latency_us);
      model_ = model_->WithRatings(ratings);
      published = model_;
      ++publishes_;
    }
    folded_ += ratings.size();
    skipped_ += skipped;
    // Drained is drained: a skipped record is permanently unfoldable
    // against this model, so the watermark advances over it — the
    // backlog is surfaced below, not replayed forever.
    watermark_ = std::max(watermark_, batch.back().lsn);
    if (skipped > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (last_skip_warn_.time_since_epoch().count() == 0 ||
          now - last_skip_warn_ >= options_.skip_warn_interval) {
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
  return batch.size();
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
      // not kill the thread; the model is untouched, and the records of
      // this batch are lost to the fold but remain in the log for the
      // next boot's replay.
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
