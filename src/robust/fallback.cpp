#include "robust/fallback.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace cfsf::robust {

namespace {

// Ladder instrumentation, resolved once against the global registry.
// Names are documented in docs/ROBUSTNESS.md.
struct LadderMetrics {
  obs::Counter& fallback_sir;
  obs::Counter& fallback_user_mean;
  obs::Counter& fallback_global_mean;
  obs::Counter& deadline_overruns;

  static const LadderMetrics& Get() {
    static const LadderMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return LadderMetrics{
          registry.GetCounter(obs::names::kRobustFallbackSir),
          registry.GetCounter(obs::names::kRobustFallbackUserMean),
          registry.GetCounter(obs::names::kRobustFallbackGlobalMean),
          registry.GetCounter(obs::names::kRobustDeadlineOverruns),
      };
    }();
    return metrics;
  }
};

}  // namespace

double FallbackPredictor::Clamp(double value) const {
  if (options_.clamp_lo > options_.clamp_hi) return value;
  return std::clamp(value, options_.clamp_lo, options_.clamp_hi);
}

LadderResult FallbackPredictor::PredictWithLadder(matrix::UserId user,
                                                 matrix::ItemId item,
                                                 Deadline deadline,
                                                 PredictionRung floor) const {
  if (options_.policy == DegradationPolicy::kThrow) {
    // No ladder: surface overruns and faults to the caller unchanged.
    if (deadline.Expired()) {
      LadderMetrics::Get().deadline_overruns.Increment();
      throw DeadlineExceeded("prediction deadline expired before rung 0");
    }
    return LadderResult{Clamp(model_.Predict(user, item)),
                        PredictionRung::kFull, false};
  }

  const auto& metrics = LadderMetrics::Get();
  LadderResult result;
  const bool in_domain =
      user < model_.NumUsers() && item < model_.NumItems();

  if (in_domain) {
    // Rung 0: full fusion (skipped when the floor pins a cheaper tier).
    if (floor <= PredictionRung::kFull) {
      if (deadline.Expired()) {
        result.deadline_overrun = true;
      } else {
        try {
          result.value = Clamp(model_.Predict(user, item));
          result.rung = PredictionRung::kFull;
          return result;
        } catch (const util::Error&) {
          // Fall through to the next rung.
        }
      }
    }
    // Rung 1: SIR′-only — no top-K selection, just the GIS row.
    if (floor <= PredictionRung::kSir) {
      if (deadline.Expired()) {
        if (!result.deadline_overrun) {
          result.deadline_overrun = true;
        }
      } else {
        try {
          if (const auto sir = model_.PredictSirOnly(user, item)) {
            if (result.deadline_overrun) metrics.deadline_overruns.Increment();
            metrics.fallback_sir.Increment();
            result.value = Clamp(*sir);
            result.rung = PredictionRung::kSir;
            return result;
          }
        } catch (const util::Error&) {
          // Fall through to the mean rungs.
        }
      }
    }
  }

  if (result.deadline_overrun) metrics.deadline_overruns.Increment();

  // Rungs 2/3: O(1) anchors, never skipped — a serving process always
  // answers.
  if (user < model_.NumUsers() && floor <= PredictionRung::kUserMean) {
    metrics.fallback_user_mean.Increment();
    result.value = Clamp(model_.train().UserMean(user));
    result.rung = PredictionRung::kUserMean;
  } else {
    metrics.fallback_global_mean.Increment();
    result.value = Clamp(model_.train().GlobalMean());
    result.rung = PredictionRung::kGlobalMean;
  }
  return result;
}

double FallbackPredictor::Predict(matrix::UserId user,
                                  matrix::ItemId item) const {
  const Deadline deadline = options_.budget.count() > 0
                                ? Deadline::After(options_.budget)
                                : Deadline();
  return PredictWithLadder(user, item, deadline).value;
}

std::vector<LadderResult> FallbackPredictor::PredictBatchWithLadder(
    std::span<const std::pair<matrix::UserId, matrix::ItemId>> queries,
    Deadline batch_deadline, PredictionRung floor) const {
  std::vector<LadderResult> out;
  out.reserve(queries.size());
  for (const auto& [user, item] : queries) {
    const Deadline per_call = options_.budget.count() > 0
                                  ? Deadline::After(options_.budget)
                                  : Deadline();
    out.push_back(PredictWithLadder(
        user, item, Deadline::EarlierOf(per_call, batch_deadline), floor));
  }
  return out;
}

std::vector<double> FallbackPredictor::PredictBatch(
    std::span<const std::pair<matrix::UserId, matrix::ItemId>> queries) const {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const auto& result : PredictBatchWithLadder(queries, Deadline())) {
    out.push_back(result.value);
  }
  return out;
}

}  // namespace cfsf::robust
