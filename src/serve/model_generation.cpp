#include "serve/model_generation.hpp"

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace cfsf::serve {

namespace {

struct SwapMetrics {
  obs::Counter& swaps;
  obs::Gauge& generation;

  static const SwapMetrics& Get() {
    static const SwapMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return SwapMetrics{
          registry.GetCounter(obs::names::kServeSwapCount),
          registry.GetGauge(obs::names::kServeGeneration),
      };
    }();
    return metrics;
  }
};

}  // namespace

std::uint64_t ModelGeneration::Install(std::shared_ptr<core::CfsfModel> model) {
  const SwapMetrics& metrics = SwapMetrics::Get();
  std::uint64_t generation = 0;
  {
    util::MutexLock lock(&mutex_);
    generation = next_generation_++;
    active_ =
        std::make_shared<const ServableModel>(std::move(model), generation);
    // Set under the lock, so concurrent installs leave the gauge at the
    // id that is actually active.
    metrics.generation.Set(static_cast<double>(generation));
  }
  metrics.swaps.Increment();
  return generation;
}

std::shared_ptr<const ServableModel> ModelGeneration::Active() const {
  util::MutexLock lock(&mutex_);
  return active_;
}

std::uint64_t ModelGeneration::ActiveGeneration() const {
  util::MutexLock lock(&mutex_);
  return active_ ? active_->generation() : 0;
}

}  // namespace cfsf::serve
