// Cluster smoothing and iCluster affinity (Sections IV-D).
//
// Given K-means assignments, a ClusterModel holds
//  * each cluster's members, ascending, and its rating columns — the
//    original ratings of item i by the cluster's members (about 0.5 MB at
//    paper scale: C×Q+1 offsets plus one entry per rating);
//  * Δr_{C,i} — the mean mean-centred rating of item i inside cluster C
//    (Eq. 8), with documented fallbacks when no cluster member rated i
//    (the column is empty);
//  * the smoothed dense matrix — Eq. 7 fills every unrated cell with
//    r̄_u + Δr_{C(u),i};
//  * per-user original-rating masks — Eq. 11's provenance bit;
//  * per-user iCluster lists — clusters ordered by descending Eq. 9
//    similarity, which drive the top-K candidate pool in the online phase.
//
// The online top-K selection (CfsfModel) computes Eq. 10 one cluster at a
// time from the members, the columns and the Eq. 8 table: every smoothed
// cell of a member v is r̄_v + Δr_{C,i}, every original cell is in a
// column.  The dense matrix and masks serve the fusion (Eqs. 12–13).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "clustering/kmeans.hpp"
#include "matrix/dense_matrix.hpp"
#include "matrix/rating_matrix.hpp"

namespace cfsf::obs {
class PhaseProfiler;
}  // namespace cfsf::obs

namespace cfsf::cluster {

/// One entry of a user's iCluster list.
struct ClusterAffinity {
  std::uint32_t cluster = 0;
  float similarity = 0.0F;

  friend bool operator==(const ClusterAffinity&, const ClusterAffinity&) = default;
};

/// One original rating in a cluster column: the rater's position in
/// Members(cluster) and the rating, verbatim.
struct ClusterRating {
  std::uint32_t member = 0;
  matrix::Rating value = 0.0F;

  friend bool operator==(const ClusterRating&, const ClusterRating&) = default;
};

class ClusterModel {
 public:
  ClusterModel() = default;

  /// Builds the member lists and cluster columns, deviations, the smoothed
  /// matrix and iCluster lists.
  /// `assignments` must map every user of `matrix` to [0, num_clusters).
  ///
  /// `deviation_shrinkage` is an empirical-Bayes refinement of Eq. 8: the
  /// cluster deviation is shrunk toward the item's global deviation with
  /// this many pseudo-observations,
  ///   Δ = (Σ_{u∈C,i}(r_{u,i} − r̄_u) + m·Δ_global,i) / (|C_{u',i}| + m).
  /// At the paper's scale a cluster of ~17 users covers an item with only
  /// 1–2 raters, so the raw Eq. 8 estimate is extremely noisy; m=0
  /// reproduces Eq. 8 verbatim (the ablation bench compares both).
  /// `profiler`, when given, records the build's two stages as phases
  /// "smoothing" (Eq. 7–8) and "icluster" (Eq. 9) — CfsfModel::Fit feeds
  /// them into the cfsf.fit.* gauges (docs/OBSERVABILITY.md).
  static ClusterModel Build(const matrix::RatingMatrix& matrix,
                            std::span<const std::uint32_t> assignments,
                            std::size_t num_clusters, bool parallel = true,
                            double deviation_shrinkage = 0.0,
                            obs::PhaseProfiler* profiler = nullptr);

  std::size_t num_clusters() const { return num_clusters_; }
  std::size_t num_users() const { return assignments_.size(); }
  std::size_t num_items() const { return deviations_.cols(); }

  std::uint32_t ClusterOf(matrix::UserId user) const;
  /// ClusterOf for every user, in user order.
  const std::vector<std::uint32_t>& assignments() const { return assignments_; }
  std::span<const std::size_t> cluster_sizes() const { return cluster_sizes_; }

  /// The users of `cluster`, ascending.
  std::span<const matrix::UserId> Members(std::uint32_t cluster) const;

  /// The original ratings of `item` by `cluster`'s members, ascending by
  /// member position (and so by user id).
  std::span<const ClusterRating> ClusterColumn(std::uint32_t cluster,
                                               matrix::ItemId item) const;

  /// Δr_{C,i} (Eq. 8).  Fallback chain when |C_{u',i}| = 0: the global
  /// mean-centred deviation of item i over all its raters; 0 if the item
  /// is entirely unrated.
  double ClusterDeviation(std::uint32_t cluster, matrix::ItemId item) const;

  /// True iff at least one member of `cluster` rated `item` (i.e. the
  /// deviation came from Eq. 8 proper, not a fallback): the column is
  /// non-empty.
  bool ClusterHasRating(std::uint32_t cluster, matrix::ItemId item) const {
    return !ClusterColumn(cluster, item).empty();
  }

  /// Dense smoothed profile of `user` (Eq. 7): original ratings where they
  /// exist, r̄_u + Δr_{C(u),i} elsewhere.
  std::span<const double> SmoothedProfile(matrix::UserId user) const;

  /// mask[i] != 0 iff the user's rating of i is original (Eq. 11).
  std::span<const std::uint8_t> OriginalMask(matrix::UserId user) const;

  /// The user's mean rating used for smoothing (original r̄_u).
  double UserMean(matrix::UserId user) const { return user_means_[user]; }

  /// iCluster: clusters sorted by descending Eq. 9 similarity to `user`.
  std::span<const ClusterAffinity> IClusterOf(matrix::UserId user) const;

  /// Eq. 9 for an arbitrary sparse profile (used to fold a brand-new user
  /// into an existing model without re-clustering).  Build computes every
  /// user's C affinities in one pass over the row instead; the values are
  /// bit-identical to this.
  double AffinityOf(std::span<const matrix::Entry> row, double row_mean,
                    std::uint32_t cluster) const;

  /// Structural validation sweep against the matrix the model was built
  /// from: assignment/size totals, member lists ascending and agreeing
  /// with the assignments, every cluster column holding exactly its
  /// members' ratings of the item in ascending member position, finite
  /// deviations and smoothed cells,
  /// original ratings preserved verbatim with the provenance mask set
  /// exactly on them, iCluster lists covering every cluster once in
  /// descending Eq. 9 order with affinities in [-1, 1].  Throws
  /// util::InvariantError on violation.
  void DebugValidate(const matrix::RatingMatrix& matrix) const;

 private:
  std::size_t num_clusters_ = 0;
  std::vector<std::uint32_t> assignments_;
  std::vector<std::size_t> cluster_sizes_;
  std::vector<std::uint32_t> member_offsets_;  // num_clusters + 1
  std::vector<matrix::UserId> members_;        // P, cluster-major
  std::vector<std::uint32_t> column_offsets_;  // num_clusters × Q + 1
  std::vector<ClusterRating> columns_;         // one per rating, cluster-major
  matrix::DenseMatrix deviations_;             // num_clusters × Q (Eq. 8 + fallback)
  matrix::DenseMatrix smoothed_;               // P × Q (Eq. 7)
  std::vector<std::uint8_t> original_mask_;    // P × Q
  std::vector<double> user_means_;             // r̄_u
  std::vector<std::vector<ClusterAffinity>> icluster_;
};

}  // namespace cfsf::cluster
