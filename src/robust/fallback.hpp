// Graceful-degradation prediction ladder.
//
// A serving process must answer every (user, item) query — even when the
// full CFSF path cannot produce an estimate (an injected or real fault,
// a malformed input row, an expired latency budget).  The ladder steps
// down through progressively cheaper, progressively cruder estimators,
// mirroring how the paper's own fusion already blends SIR′/SUR′/SUIR′
// and how SF-style fusion falls back when a component has no evidence:
//
//   rung 0  full CFSF fusion     Eq. 14 over the local M×K matrix
//   rung 1  SIR′-only            item-based estimate straight off the GIS
//                                row — no top-K user selection, so it
//                                skips the expensive online step entirely
//   rung 2  user mean            r̄_u (global mean for unseen users)
//   rung 3  global mean          always available, O(1)
//
// A per-call Deadline (steady-clock budget) is checked between rungs:
// once the budget is spent, the remaining expensive rungs are skipped
// and the call resolves from the mean rungs.  PredictBatchWithLadder
// threads one shared batch Deadline through every query on top of the
// per-call budgets, so a batch stops descending tiers as soon as its
// budget is spent instead of burning a fresh budget per query.
// DegradationPolicy::kThrow turns the ladder off — faults and deadline
// overruns surface to the caller as exceptions (today's behaviour);
// kFallback degrades instead.
//
// Every degradation is counted in the process-wide MetricsRegistry:
//   robust.fallback.sir / robust.fallback.user_mean /
//   robust.fallback.global_mean / robust.deadline_overruns
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "core/cfsf_model.hpp"
#include "eval/predictor.hpp"
#include "matrix/types.hpp"
#include "util/attrs.hpp"
#include "util/error.hpp"

namespace cfsf::robust {

/// Thrown under DegradationPolicy::kThrow when the per-call budget
/// expires before a prediction was produced.
class DeadlineExceeded : public util::Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : util::Error(what) {}
};

/// A steady-clock budget for one call.  Default-constructed deadlines are
/// unlimited; After(0) is already expired.
class Deadline {
 public:
  Deadline() = default;  // unlimited

  static Deadline After(std::chrono::microseconds budget) {
    Deadline d;
    d.limited_ = true;
    d.at_ = std::chrono::steady_clock::now() + budget;
    return d;
  }

  bool unlimited() const { return !limited_; }

  bool Expired() const {
    return limited_ && std::chrono::steady_clock::now() >= at_;
  }

  /// The tighter of two deadlines — how a batch-level budget combines
  /// with a per-call one (whichever expires first wins).
  static Deadline EarlierOf(Deadline a, Deadline b) {
    if (a.unlimited()) return b;
    if (b.unlimited()) return a;
    return a.at_ <= b.at_ ? a : b;
  }

 private:
  bool limited_ = false;
  std::chrono::steady_clock::time_point at_{};
};

enum class DegradationPolicy {
  kThrow,     // propagate faults/overruns as exceptions
  kFallback,  // step down the ladder, always answer
};

/// Which rung produced the answer.
enum class PredictionRung { kFull, kSir, kUserMean, kGlobalMean };

inline const char* ToString(PredictionRung rung) {
  switch (rung) {
    case PredictionRung::kFull: return "full";
    case PredictionRung::kSir: return "sir";
    case PredictionRung::kUserMean: return "user_mean";
    case PredictionRung::kGlobalMean: return "global_mean";
  }
  return "unknown";
}

struct LadderResult {
  double value = 0.0;
  PredictionRung rung = PredictionRung::kFull;
  /// True when at least one rung was skipped because the deadline had
  /// expired (also counted in robust.deadline_overruns).
  bool deadline_overrun = false;
};

struct FallbackOptions {
  DegradationPolicy policy = DegradationPolicy::kFallback;
  /// Per-call budget; zero = unlimited.
  std::chrono::microseconds budget{0};
  /// Every rung's output is clamped into [clamp_lo, clamp_hi] (the
  /// rating scale); set clamp_lo > clamp_hi to disable.
  double clamp_lo = 1.0;
  double clamp_hi = 5.0;
};

/// Serving wrapper: a Predictor whose Predict never throws under
/// kFallback (given a fitted model) and never exceeds its budget by more
/// than one rung's work.  Stateless apart from the wrapped model, so one
/// instance may serve concurrent callers.
class FallbackPredictor : public eval::Predictor {
 public:
  /// `model` must outlive the predictor; Fit forwards to it.
  explicit FallbackPredictor(core::CfsfModel& model,
                             FallbackOptions options = {})
      : model_(model), options_(options) {}

  std::string Name() const override { return "CFSF+Fallback"; }

  void Fit(const matrix::RatingMatrix& train) override { model_.Fit(train); }

  /// Ladder prediction under the configured per-call budget.
  double Predict(matrix::UserId user, matrix::ItemId item) const
      CFSF_HOT_PATH override;

  /// Serial ladder loop with no batch deadline: each query gets only
  /// its own per-call budget.  (The wrapped model's parallel batch path
  /// does not apply per-query deadlines, so the wrapper deliberately
  /// trades batch throughput for bounded per-query behaviour.)  Callers
  /// that budget the whole batch use PredictBatchWithLadder.
  std::vector<double> PredictBatch(
      std::span<const std::pair<matrix::UserId, matrix::ItemId>> queries)
      const CFSF_HOT_PATH override;

  /// The full ladder with an explicit deadline, for callers that manage
  /// budgets themselves.  `floor` is the best rung the call may serve
  /// from — the serving stack's circuit breaker passes kSir/kUserMean/
  /// kGlobalMean to pin a degraded tier.  Honoured under kFallback;
  /// kThrow always attempts rung 0.
  LadderResult PredictWithLadder(matrix::UserId user, matrix::ItemId item,
                                 Deadline deadline,
                                 PredictionRung floor =
                                     PredictionRung::kFull) const
      CFSF_HOT_PATH;

  /// Batch ladder under one shared deadline (plus each query's per-call
  /// budget); the serving stack's deadline-propagation path.
  std::vector<LadderResult> PredictBatchWithLadder(
      std::span<const std::pair<matrix::UserId, matrix::ItemId>> queries,
      Deadline batch_deadline,
      PredictionRung floor = PredictionRung::kFull) const CFSF_HOT_PATH;

  const FallbackOptions& options() const { return options_; }

 private:
  double Clamp(double value) const;

  core::CfsfModel& model_;
  FallbackOptions options_;
};

}  // namespace cfsf::robust
