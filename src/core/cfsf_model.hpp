// CfsfModel — the paper's primary contribution (Algorithm 1).
//
// Offline (Fit):
//   1. GIS — global item similarity, descending-sorted, thresholded (Eq. 5)
//   2. K-means user clusters under PCC (Eq. 6)
//   3. Cluster smoothing of unrated cells (Eq. 7–8) and per-user
//      iCluster affinity lists (Eq. 9)
//
// Online (Predict):
//   4. top-M similar items straight off the GIS row
//   5. top-K like-minded users from the iCluster candidate pool, ranked
//      by the smoothing-aware weighted PCC (Eq. 10–11); optionally cached
//      per active user
//   6. SIR′ / SUR′ / SUIR′ over the local M×K matrix (Eq. 12–13), fused
//      with λ and δ (Eq. 14)
//
// Extensions beyond the paper's evaluation: batch/parallel prediction,
// top-N recommendation, incremental rating insertion with GIS row
// refresh, and optional exponential time-decay weighting.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "clustering/kmeans.hpp"
#include "clustering/smoothing.hpp"
#include "core/cfsf_config.hpp"
#include "eval/predictor.hpp"
#include "eval/degradable.hpp"
#include "similarity/item_similarity.hpp"
#include "util/attrs.hpp"
#include "util/mutex.hpp"

namespace cfsf::core {

/// The three estimators of Eq. 12 for one (user, item) query, before and
/// after fusion.  Exposed for tests and the ablation bench.
struct FusionBreakdown {
  std::optional<double> sir;   // SIR′
  std::optional<double> sur;   // SUR′
  std::optional<double> suir;  // SUIR′
  double fused = 0.0;          // SR′ (Eq. 14, renormalised over available parts)
};

/// A selected like-minded user with their Eq. 10 similarity.
struct SelectedUser {
  matrix::UserId user = 0;
  double similarity = 0.0;
};

class CfsfModel : public eval::Predictor, public eval::DegradableModel {
 public:
  explicit CfsfModel(const CfsfConfig& config = {});

  std::string Name() const override { return "CFSF"; }

  /// Runs the offline phase.  May be called again to refit.
  void Fit(const matrix::RatingMatrix& train) override;

  /// Reassembles a fitted model from persisted offline artefacts without
  /// re-running K-means or the GIS build: the smoothing/iCluster state is
  /// deterministically rebuilt from the saved cluster assignments.  Used
  /// by core/model_io.hpp.  (Returned by pointer: the model owns a mutex
  /// and is therefore not movable.)
  static std::unique_ptr<CfsfModel> Restore(const CfsfConfig& config,
                                            matrix::RatingMatrix train,
                                            sim::GlobalItemSimilarity gis,
                                            std::vector<std::uint32_t> assignments);

  /// Online prediction (Algorithm 1, lines 10–15).
  double Predict(matrix::UserId user, matrix::ItemId item) const
      CFSF_HOT_PATH override;

  /// Predict with the per-component breakdown.
  FusionBreakdown PredictDetailed(matrix::UserId user,
                                  matrix::ItemId item) const CFSF_HOT_PATH;

  /// SIR′ alone, straight off the GIS row (Eq. 12, first line) — no top-K
  /// user selection, so it skips the expensive online step entirely.
  /// This is the degraded serving path (robust::FallbackPredictor rung 1)
  /// and works regardless of config.use_sir.  nullopt when the active
  /// user has no evidence on the item's top-M similar items.
  std::optional<double> PredictSirOnly(matrix::UserId user,
                                       matrix::ItemId item) const;

  // eval::DegradableModel — the graceful-degradation ladder's view.
  std::size_t NumUsers() const override { return train_.num_users(); }
  std::size_t NumItems() const override { return train_.num_items(); }
  double PredictFull(matrix::UserId user, matrix::ItemId item) const override {
    return Predict(user, item);
  }
  std::optional<double> PredictDegraded(matrix::UserId user,
                                        matrix::ItemId item) const override {
    return PredictSirOnly(user, item);
  }
  double UserMeanOf(matrix::UserId user) const override {
    return train_.UserMean(user);
  }
  double GlobalMeanOf() const override { return train_.GlobalMean(); }

  /// Batch prediction, parallelised over distinct users (each worker
  /// selects that user's top-K once and reuses it for all their items).
  /// Overrides the Predictor default (a serial Predict loop) — this is
  /// the path eval::Evaluate and the bench sweeps drive.
  std::vector<double> PredictBatch(
      std::span<const std::pair<matrix::UserId, matrix::ItemId>> queries)
      const CFSF_HOT_PATH override;

  /// Top-N recommendation: highest predicted unrated items for `user`,
  /// score descending, then item id ascending.  Exact: each score is
  /// bit-identical to Predict, and the list equals ranking every unrated
  /// item.  SUIR′ and the Eq. 14 blend run only on candidates whose upper
  /// bound can still reach the list (see docs/ALGORITHM.md).
  struct Recommendation {
    matrix::ItemId item = 0;
    double score = 0.0;
  };
  std::vector<Recommendation> RecommendTopN(matrix::UserId user,
                                            std::size_t n) const CFSF_HOT_PATH;

  /// The online phase's user-selection step (Section IV-E2), exposed for
  /// tests/diagnostics.  Results are similarity-descending.
  std::vector<SelectedUser> SelectTopKUsers(matrix::UserId user) const;

  /// Incremental update (future-work extension): a new model with
  /// `ratings` folded in — one matrix merge (a later triple for the same
  /// cell wins), one RefreshItems over the touched items, and smoothing
  /// rebuilt through Restore() under the existing cluster assignments
  /// (K-means is not re-run; call Fit() for that).  The result equals
  /// Restore(config, merged matrix, GlobalItemSimilarity::Build(merged
  /// matrix), same assignments) bit for bit, so one batch also equals the
  /// same records folded one at a time.
  std::unique_ptr<CfsfModel> WithRatings(
      std::span<const matrix::RatingTriple> ratings) const;

  /// WithRatings of one rating, adopted in place; drops stale caches.
  void InsertRating(matrix::UserId user, matrix::ItemId item,
                    matrix::Rating value, matrix::Timestamp timestamp = 0);

  /// Cold start: registers a brand-new user from their initial ratings —
  /// the paper's online enrolment ("CFSF requires him or her to rate a
  /// certain number of items and then inserts a record in the item-user
  /// matrix").  The user is assigned to their most affine existing
  /// cluster (Eq. 9), the touched GIS rows are refreshed, and the
  /// smoothing state is rebuilt; K-means is not re-run.  Returns the new
  /// user's id.  `ratings` must be non-empty with valid item ids.
  matrix::UserId AddUser(
      std::span<const std::pair<matrix::ItemId, matrix::Rating>> ratings);

  // Introspection for benches/tests.
  const CfsfConfig& config() const { return config_; }
  const matrix::RatingMatrix& train() const { return train_; }
  const sim::GlobalItemSimilarity& gis() const { return gis_; }
  const cluster::ClusterModel& cluster_model() const { return clusters_; }
  bool fitted() const { return fitted_; }

  /// Number of cached user-selection entries currently alive.
  std::size_t CacheSize() const CFSF_EXCLUDES(cache_mutex_);
  void ClearCache() const CFSF_EXCLUDES(cache_mutex_);

 private:
  struct Components;

  /// Smoothing and iCluster lists (Eq. 7–9) of train_ under
  /// `assignments`, plus the latest timestamp and an empty neighbour
  /// cache — the set-up Fit, Restore and AddUser share.
  void BuildClusters(std::span<const std::uint32_t> assignments,
                     std::size_t num_clusters,
                     obs::PhaseProfiler* profiler = nullptr);
  std::vector<SelectedUser> ComputeTopKUsers(matrix::UserId user) const;
  std::shared_ptr<const std::vector<SelectedUser>> TopKUsersCached(
      matrix::UserId user) const;
  std::optional<double> SirEstimate(
      matrix::UserId user, matrix::ItemId item,
      std::span<const sim::Neighbor> top_items) const;
  // The fusion in three steps, run in this order by every online path:
  // SIR′ with SUR′, then SUIR′, then the Eq. 14 blend.
  FusionBreakdown SirSurEstimates(matrix::UserId user, matrix::ItemId item,
                                  std::span<const sim::Neighbor> top_items,
                                  std::span<const SelectedUser> neighbors) const;
  std::optional<double> SuirEstimate(
      matrix::ItemId item, std::span<const sim::Neighbor> top_items,
      std::span<const SelectedUser> neighbors) const;
  double Blend(const FusionBreakdown& parts, double user_mean) const;
  /// Steps 2–3 on `parts` (which holds step 1), plus the cfsf.predict
  /// fail point and the component counters: the end of every full fusion.
  void CompleteFusion(matrix::UserId user, matrix::ItemId item,
                      std::span<const sim::Neighbor> top_items,
                      std::span<const SelectedUser> neighbors,
                      FusionBreakdown& parts) const;
  FusionBreakdown PredictWithNeighbors(
      matrix::UserId user, matrix::ItemId item,
      std::span<const SelectedUser> neighbors) const;
  /// The largest value term SUIR′ can read among `neighbors`' cells;
  /// nullopt when none participates.
  std::optional<double> SuirTermBound(
      std::span<const SelectedUser> neighbors) const;
  double TimeDecayWeight(matrix::UserId user, matrix::ItemId item) const;

  CfsfConfig config_;
  bool fitted_ = false;
  matrix::RatingMatrix train_;
  sim::GlobalItemSimilarity gis_;
  cluster::ClusterModel clusters_;
  matrix::Timestamp latest_timestamp_ = 0;

  // Per-user neighbour cache ("caching intermediate results", Fig. 5).
  // The vector (slots and the shared_ptr values in them) is guarded; the
  // pointed-to selection lists are immutable once published, so readers
  // may use them after the lock is released.
  mutable util::Mutex cache_mutex_;
  mutable std::vector<std::shared_ptr<const std::vector<SelectedUser>>> cache_
      CFSF_GUARDED_BY(cache_mutex_);
};

}  // namespace cfsf::core
