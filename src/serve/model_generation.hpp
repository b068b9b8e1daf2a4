// The active model generation behind an atomic shared_ptr swap.
//
// In CFSF the offline phase builds the model and the online phase
// changes it only by inserting ratings (Section IV-A).  So a generation
// becomes active in exactly one way, Install, and has exactly two
// sources: the model `cfsf_cli serve` boots or recovers (ckpt::Recover),
// and each model a DeltaFolder folds and publishes.  Building the model
// happens off the request path; Install only wraps it in the
// degradation ladder and swaps the pointer under a short lock.  In-flight
// requests keep the generation they grabbed alive through shared
// ownership until the last one drains.
//
//   publisher:    fit / Recover / WithRatings → Install
//   request path: Active() — one shared_ptr copy under a short lock
//
// Every Install bumps serve.swap.count and sets the serve.generation
// gauge to the new id.
#pragma once

#include <cstdint>
#include <memory>

#include "core/cfsf_model.hpp"
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
                std::uint64_t generation)
      : model_(std::move(model)), ladder_(*model_), generation_(generation) {}

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
  /// Makes `model` the active generation — the only way one becomes
  /// active.  Returns the new generation id (1 for the first).
  std::uint64_t Install(std::shared_ptr<core::CfsfModel> model)
      CFSF_EXCLUDES(mutex_);

  /// The active generation; nullptr before the first Install.
  std::shared_ptr<const ServableModel> Active() const CFSF_EXCLUDES(mutex_);

  /// Id of the active generation (0 when none).
  std::uint64_t ActiveGeneration() const CFSF_EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_;
  std::shared_ptr<const ServableModel> active_ CFSF_GUARDED_BY(mutex_);
  std::uint64_t next_generation_ CFSF_GUARDED_BY(mutex_) = 1;
};

}  // namespace cfsf::serve
