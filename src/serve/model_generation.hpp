// Hot model swap — the active model generation behind an atomic
// shared_ptr swap.
//
// The paper's offline/online split means serving processes periodically
// receive a freshly fitted bundle from the backend.  ModelGeneration
// makes that replacement downtime-free: the expensive part (CRC audit +
// LoadModelWithRetry + smoothing reconstruction) runs on the swapping
// thread, completely off the request path; only the final pointer swap
// takes the lock, and in-flight requests keep the generation they
// grabbed alive through shared ownership until the last one drains.
//
//   swap thread:  VerifyModel → LoadModelWithRetry → build ladder → swap
//   request path: Active() — one shared_ptr copy under a short lock
//
// A failed load (corrupt bundle, injected fault after retries) leaves
// the previous generation serving and is counted in serve.swap.failures;
// a successful swap bumps serve.swap.count and the serve.generation
// gauge.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/cfsf_model.hpp"
#include "core/model_io.hpp"
#include "robust/fallback.hpp"
#include "util/mutex.hpp"

namespace cfsf::serve {

/// One immutable generation: the fitted model plus the degradation
/// ladder wrapped around it.  Requests hold it by shared_ptr, so a
/// generation outlives its replacement until the last request finishes.
/// The model itself is shared too: the DeltaFolder keeps the model it
/// last published as the base of its next fold and its checkpoints.
class ServableModel {
 public:
  ServableModel(std::shared_ptr<core::CfsfModel> model,
                const robust::FallbackOptions& ladder_options,
                std::uint64_t generation)
      : model_(std::move(model)),
        ladder_(*model_, ladder_options),
        generation_(generation) {}

  const robust::FallbackPredictor& ladder() const { return ladder_; }
  const core::CfsfModel& model() const { return *model_; }
  std::uint64_t generation() const { return generation_; }

 private:
  std::shared_ptr<core::CfsfModel> model_;  // declared before ladder_: the
                                            // ladder references *model_
  robust::FallbackPredictor ladder_;
  std::uint64_t generation_;
};

class ModelGeneration {
 public:
  /// `ladder_options` applies to every generation's FallbackPredictor.
  explicit ModelGeneration(const robust::FallbackOptions& ladder_options = {})
      : ladder_options_(ladder_options) {}

  /// Installs an already-fitted in-memory model (tests, first boot from
  /// a fit in the same process, fold publishes).  Returns the new
  /// generation id.
  std::uint64_t Install(std::shared_ptr<core::CfsfModel> model)
      CFSF_EXCLUDES(mutex_);

  /// Loads `path` (CRC-audited via VerifyModel, transient faults
  /// absorbed by LoadModelWithRetry) and swaps it in.  Runs entirely off
  /// the request path; throws util::IoError on an unloadable bundle, in
  /// which case the previous generation keeps serving untouched.
  /// Returns the new generation id.
  std::uint64_t LoadAndSwap(const std::string& path,
                            const core::LoadRetryOptions& retry = {})
      CFSF_EXCLUDES(mutex_);

  /// The active generation; nullptr before the first Install/LoadAndSwap.
  std::shared_ptr<const ServableModel> Active() const CFSF_EXCLUDES(mutex_);

  /// Id of the active generation (0 when none).
  std::uint64_t ActiveGeneration() const CFSF_EXCLUDES(mutex_);

 private:
  const robust::FallbackOptions ladder_options_;
  mutable util::Mutex mutex_;
  std::shared_ptr<const ServableModel> active_ CFSF_GUARDED_BY(mutex_);
  std::uint64_t next_generation_ CFSF_GUARDED_BY(mutex_) = 1;
};

}  // namespace cfsf::serve
