#include "serve/model_generation.hpp"

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/failpoint.hpp"

namespace cfsf::serve {

namespace {

struct SwapMetrics {
  obs::Counter& swaps;
  obs::Counter& failures;
  obs::Gauge& generation;

  static const SwapMetrics& Get() {
    static const SwapMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return SwapMetrics{
          registry.GetCounter(obs::names::kServeSwapCount),
          registry.GetCounter(obs::names::kServeSwapFailures),
          registry.GetGauge(obs::names::kServeGeneration),
      };
    }();
    return metrics;
  }
};

}  // namespace

std::uint64_t ModelGeneration::Install(std::shared_ptr<core::CfsfModel> model) {
  std::uint64_t generation = 0;
  {
    util::MutexLock lock(&mutex_);
    generation = next_generation_++;
    active_ = std::make_shared<const ServableModel>(
        std::move(model), ladder_options_, generation);
  }
  SwapMetrics::Get().swaps.Increment();
  SwapMetrics::Get().generation.Set(static_cast<double>(generation));
  return generation;
}

std::uint64_t ModelGeneration::LoadAndSwap(
    const std::string& path, const core::LoadRetryOptions& retry) {
  try {
    // The audit catches bit rot before the (more expensive) full load
    // even starts; both are off the request path.
    CFSF_FAILPOINT("serve.swap.load");
    core::VerifyModel(path);
    auto model = core::LoadModelWithRetry(path, retry);
    return Install(std::move(model));
  } catch (...) {
    SwapMetrics::Get().failures.Increment();
    throw;
  }
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
