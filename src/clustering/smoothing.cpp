#include "clustering/smoothing.hpp"

#include <algorithm>
#include <cmath>

#include "obs/timer.hpp"
#include "parallel/parallel_for.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace cfsf::cluster {

namespace {

/// Eq. 9 from its accumulators; 0 when either side has no variance.
double Affinity(double dot, double sq_c, double sq_u) {
  const double denom = std::sqrt(sq_c) * std::sqrt(sq_u);
  return denom > 0.0 ? dot / denom : 0.0;
}

}  // namespace

ClusterModel ClusterModel::Build(const matrix::RatingMatrix& matrix,
                                 std::span<const std::uint32_t> assignments,
                                 std::size_t num_clusters, bool parallel,
                                 double deviation_shrinkage,
                                 obs::PhaseProfiler* profiler) {
  CFSF_REQUIRE(deviation_shrinkage >= 0.0,
               "deviation_shrinkage must be non-negative");
  const std::size_t p = matrix.num_users();
  const std::size_t q = matrix.num_items();
  CFSF_REQUIRE(assignments.size() == p,
               "assignments size must equal the user count");
  CFSF_REQUIRE(num_clusters > 0, "num_clusters must be positive");
  for (const auto a : assignments) {
    CFSF_REQUIRE(a < num_clusters, "assignment references a missing cluster");
  }

  ClusterModel model;
  model.num_clusters_ = num_clusters;
  model.assignments_.assign(assignments.begin(), assignments.end());
  model.cluster_sizes_.assign(num_clusters, 0);
  for (const auto a : assignments) ++model.cluster_sizes_[a];

  model.user_means_.resize(p);
  for (std::size_t u = 0; u < p; ++u) {
    model.user_means_[u] = matrix.UserMean(static_cast<matrix::UserId>(u));
  }

  if (profiler != nullptr) profiler->Begin("smoothing");

  // --- Members and cluster columns --------------------------------------
  // Counting sorts over ascending user ids, so each cluster lists its
  // members ascending and each (c, i) column its raters in ascending
  // member position.
  model.member_offsets_.assign(num_clusters + 1, 0);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    model.member_offsets_[c + 1] =
        model.member_offsets_[c] + static_cast<std::uint32_t>(model.cluster_sizes_[c]);
  }
  model.members_.resize(p);
  std::vector<std::uint32_t> position(p);
  {
    std::vector<std::uint32_t> next(model.member_offsets_.begin(),
                                    model.member_offsets_.end() - 1);
    for (std::size_t u = 0; u < p; ++u) {
      const std::uint32_t c = assignments[u];
      position[u] = next[c] - model.member_offsets_[c];
      model.members_[next[c]++] = static_cast<matrix::UserId>(u);
    }
  }
  CFSF_REQUIRE(matrix.num_ratings() < UINT32_MAX,
               "cluster columns index ratings with 32-bit offsets");
  model.column_offsets_.assign(num_clusters * q + 1, 0);
  for (std::size_t u = 0; u < p; ++u) {
    const std::size_t base = assignments[u] * q;
    for (const auto& e : matrix.UserRow(static_cast<matrix::UserId>(u))) {
      ++model.column_offsets_[base + e.index + 1];
    }
  }
  for (std::size_t k = 0; k < num_clusters * q; ++k) {
    model.column_offsets_[k + 1] += model.column_offsets_[k];
  }
  model.columns_.resize(matrix.num_ratings());

  // --- Eq. 8: per-cluster per-item mean-centred deviations -------------
  // Filled in the same pass as the columns: each (c, i) sum, like the
  // global fallback's sum for i, adds its raters in ascending user order.
  model.deviations_ = matrix::DenseMatrix(num_clusters, q);
  std::vector<double> global_dev(q, 0.0);
  {
    std::vector<std::uint32_t> next(model.column_offsets_.begin(),
                                    model.column_offsets_.end() - 1);
    for (std::size_t u = 0; u < p; ++u) {
      const std::uint32_t c = assignments[u];
      const double mean_u = model.user_means_[u];
      for (const auto& e : matrix.UserRow(static_cast<matrix::UserId>(u))) {
        const double dev = e.value - mean_u;
        model.columns_[next[c * q + e.index]++] = ClusterRating{position[u], e.value};
        model.deviations_(c, e.index) += dev;
        global_dev[e.index] += dev;
      }
    }
  }
  for (std::size_t i = 0; i < q; ++i) {
    const std::size_t raters = matrix.ItemCol(static_cast<matrix::ItemId>(i)).size();
    if (raters > 0) global_dev[i] /= static_cast<double>(raters);
  }
  for (std::size_t c = 0; c < num_clusters; ++c) {
    for (std::size_t i = 0; i < q; ++i) {
      const std::size_t count = model.ClusterColumn(static_cast<std::uint32_t>(c),
                                                    static_cast<matrix::ItemId>(i)).size();
      // Shrunk Eq. 8 (see header); exact Eq. 8 when shrinkage is 0.
      model.deviations_(c, i) =
          count == 0 ? global_dev[i]
                     : (model.deviations_(c, i) + deviation_shrinkage * global_dev[i]) /
                           (static_cast<double>(count) + deviation_shrinkage);
    }
  }

  // --- Eq. 7: smoothed dense matrix + provenance masks -----------------
  model.smoothed_ = matrix::DenseMatrix(p, q);
  model.original_mask_.assign(p * q, 0);
  par::ForOptions options;
  options.serial = !parallel;
  par::ParallelFor(
      0, p,
      [&](std::size_t u) {
        const std::uint32_t c = model.assignments_[u];
        const double mean_u = model.user_means_[u];
        auto row = model.smoothed_.Row(u);
        for (std::size_t i = 0; i < q; ++i) {
          row[i] = mean_u + model.deviations_(c, i);
        }
        for (const auto& e : matrix.UserRow(static_cast<matrix::UserId>(u))) {
          row[e.index] = e.value;
          model.original_mask_[u * q + e.index] = 1;
        }
      },
      options);

  // --- Eq. 9: iCluster lists -------------------------------------------
  // One pass over each user's row feeds all C affinities.  The deviations
  // are read item-major, so an item's C values sit side by side.  Each
  // accumulator adds the same terms in the same order as AffinityOf, so
  // every affinity is bit-identical to it.
  if (profiler != nullptr) profiler->Begin("icluster");
  std::vector<double> deviations_by_item(q * num_clusters);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    for (std::size_t i = 0; i < q; ++i) {
      deviations_by_item[i * num_clusters + c] = model.deviations_(c, i);
    }
  }
  model.icluster_.assign(p, {});
  par::ParallelFor(
      0, p,
      [&](std::size_t u) {
        std::vector<double> dot(num_clusters, 0.0);
        std::vector<double> sq_c(num_clusters, 0.0);
        double sq_u = 0.0;
        const double mean_u = model.user_means_[u];
        for (const auto& e : matrix.UserRow(static_cast<matrix::UserId>(u))) {
          const double du = e.value - mean_u;
          const double* dc = &deviations_by_item[e.index * num_clusters];
          for (std::size_t c = 0; c < num_clusters; ++c) {
            dot[c] += dc[c] * du;
            sq_c[c] += dc[c] * dc[c];
          }
          sq_u += du * du;
        }
        auto& list = model.icluster_[u];
        list.reserve(num_clusters);
        for (std::size_t c = 0; c < num_clusters; ++c) {
          list.push_back(ClusterAffinity{
              static_cast<std::uint32_t>(c),
              static_cast<float>(Affinity(dot[c], sq_c[c], sq_u))});
        }
        std::sort(list.begin(), list.end(),
                  [](const ClusterAffinity& a, const ClusterAffinity& b) {
                    if (a.similarity != b.similarity) {
                      return a.similarity > b.similarity;
                    }
                    return a.cluster < b.cluster;
                  });
      },
      options);

  if (profiler != nullptr) profiler->End();
  return model;
}

std::uint32_t ClusterModel::ClusterOf(matrix::UserId user) const {
  CFSF_ASSERT(user < assignments_.size(), "user id out of range");
  return assignments_[user];
}

double ClusterModel::ClusterDeviation(std::uint32_t cluster,
                                      matrix::ItemId item) const {
  CFSF_ASSERT(cluster < num_clusters_ && item < num_items(),
              "ClusterDeviation index out of range");
  return deviations_(cluster, item);
}

std::span<const matrix::UserId> ClusterModel::Members(std::uint32_t cluster) const {
  CFSF_ASSERT(cluster < num_clusters_, "cluster id out of range");
  return {members_.data() + member_offsets_[cluster],
          members_.data() + member_offsets_[cluster + 1]};
}

std::span<const ClusterRating> ClusterModel::ClusterColumn(
    std::uint32_t cluster, matrix::ItemId item) const {
  CFSF_ASSERT(cluster < num_clusters_ && item < num_items(),
              "ClusterColumn index out of range");
  const std::size_t k = cluster * num_items() + item;
  return {columns_.data() + column_offsets_[k],
          columns_.data() + column_offsets_[k + 1]};
}

std::span<const double> ClusterModel::SmoothedProfile(matrix::UserId user) const {
  CFSF_ASSERT(user < num_users(), "user id out of range");
  return smoothed_.Row(user);
}

std::span<const std::uint8_t> ClusterModel::OriginalMask(
    matrix::UserId user) const {
  CFSF_ASSERT(user < num_users(), "user id out of range");
  return {original_mask_.data() + user * num_items(), num_items()};
}

std::span<const ClusterAffinity> ClusterModel::IClusterOf(
    matrix::UserId user) const {
  CFSF_ASSERT(user < icluster_.size(), "user id out of range");
  return icluster_[user];
}

double ClusterModel::AffinityOf(std::span<const matrix::Entry> row,
                                double row_mean, std::uint32_t cluster) const {
  CFSF_ASSERT(cluster < num_clusters_, "cluster id out of range");
  // Eq. 9: correlate the cluster's deviations with the user's deviations
  // over the items the user rated.
  double dot = 0.0;
  double sq_c = 0.0;
  double sq_u = 0.0;
  for (const auto& e : row) {
    const double dc = deviations_(cluster, e.index);
    const double du = e.value - row_mean;
    dot += dc * du;
    sq_c += dc * dc;
    sq_u += du * du;
  }
  return Affinity(dot, sq_c, sq_u);
}

void ClusterModel::DebugValidate(const matrix::RatingMatrix& matrix) const {
  const std::size_t p = num_users();
  const std::size_t q = num_items();
  CFSF_VALIDATE(p == matrix.num_users() && q == matrix.num_items(),
                "ClusterModel shape must match the source matrix");
  CFSF_VALIDATE(deviations_.rows() == num_clusters_, "Eq. 8 table shape");
  CFSF_VALIDATE(smoothed_.rows() == p && smoothed_.cols() == q,
                "smoothed matrix shape");
  CFSF_VALIDATE(cluster_sizes_.size() == num_clusters_, "cluster size table");
  CFSF_VALIDATE(icluster_.size() == p, "iCluster table size");
  CFSF_VALIDATE(user_means_.size() == p, "user mean table size");
  CFSF_VALIDATE(original_mask_.size() == p * q, "provenance mask size");
  CFSF_VALIDATE(member_offsets_.size() == num_clusters_ + 1 &&
                    members_.size() == p,
                "member list size");
  CFSF_VALIDATE(column_offsets_.size() == num_clusters_ * q + 1 &&
                    column_offsets_.back() == columns_.size() &&
                    columns_.size() == matrix.num_ratings(),
                "cluster column index size");

  // Cluster assignment totals (every user in exactly one cluster).
  std::vector<std::size_t> counted(num_clusters_, 0);
  for (const auto a : assignments_) {
    CFSF_VALIDATE(a < num_clusters_, "assignment references a missing cluster");
    ++counted[a];
  }
  std::size_t total = 0;
  for (std::size_t c = 0; c < num_clusters_; ++c) {
    CFSF_VALIDATE(counted[c] == cluster_sizes_[c],
                  "cluster_sizes must match the assignment counts");
    total += cluster_sizes_[c];
  }
  CFSF_VALIDATE(total == p, "cluster sizes must sum to the user count");

  // Members: each cluster lists exactly its users, ascending.
  std::vector<std::uint32_t> position(p, 0);
  CFSF_VALIDATE(member_offsets_[0] == 0, "member offsets must start at 0");
  for (std::size_t c = 0; c < num_clusters_; ++c) {
    CFSF_VALIDATE(member_offsets_[c] <= member_offsets_[c + 1] &&
                      member_offsets_[c + 1] <= p,
                  "member offsets must be non-decreasing and in range");
    const auto members = Members(static_cast<std::uint32_t>(c));
    CFSF_VALIDATE(members.size() == cluster_sizes_[c],
                  "member list must match the cluster size");
    for (std::size_t j = 0; j < members.size(); ++j) {
      CFSF_VALIDATE(members[j] < p && assignments_[members[j]] == c,
                    "member list names a user of another cluster");
      CFSF_VALIDATE(j == 0 || members[j - 1] < members[j],
                    "member list must be strictly ascending");
      position[members[j]] = static_cast<std::uint32_t>(j);
    }
  }

  // Columns: walking the rows in user order must meet every (c, i) column
  // entry in turn, each the rater's member position and rating verbatim.
  CFSF_VALIDATE(column_offsets_[0] == 0, "column offsets must start at 0");
  for (std::size_t k = 0; k < num_clusters_ * q; ++k) {
    CFSF_VALIDATE(column_offsets_[k] <= column_offsets_[k + 1],
                  "column offsets must be non-decreasing");
  }
  std::vector<std::uint32_t> next(column_offsets_.begin(), column_offsets_.end() - 1);
  for (std::size_t u = 0; u < p; ++u) {
    const std::size_t base = assignments_[u] * q;
    for (const auto& e : matrix.UserRow(static_cast<matrix::UserId>(u))) {
      const std::size_t k = base + e.index;
      CFSF_VALIDATE(next[k] < column_offsets_[k + 1] &&
                        columns_[next[k]] == (ClusterRating{position[u], e.value}),
                    "cluster column must list its members' ratings in order");
      ++next[k];
    }
  }
  for (std::size_t k = 0; k < num_clusters_ * q; ++k) {
    CFSF_VALIDATE(next[k] == column_offsets_[k + 1],
                  "cluster column holds a rating the matrix does not");
  }

  for (std::size_t c = 0; c < num_clusters_; ++c) {
    for (std::size_t i = 0; i < q; ++i) {
      CFSF_VALIDATE(std::isfinite(deviations_(c, i)),
                    "Eq. 8 deviation must be finite");
    }
  }

  for (std::size_t u = 0; u < p; ++u) {
    CFSF_VALIDATE(std::isfinite(user_means_[u]), "user mean must be finite");
    const auto profile = SmoothedProfile(static_cast<matrix::UserId>(u));
    const auto mask = OriginalMask(static_cast<matrix::UserId>(u));
    std::size_t originals = 0;
    for (std::size_t i = 0; i < q; ++i) {
      CFSF_VALIDATE(std::isfinite(profile[i]),
                    "smoothed rating must be finite (Eq. 7)");
      originals += mask[i] != 0 ? 1 : 0;
    }
    const auto row = matrix.UserRow(static_cast<matrix::UserId>(u));
    CFSF_VALIDATE(originals == row.size(),
                  "provenance mask must flag exactly the original ratings");
    for (const auto& e : row) {
      CFSF_VALIDATE(mask[e.index] != 0,
                    "original rating missing from the provenance mask");
      CFSF_VALIDATE(profile[e.index] == static_cast<double>(e.value),
                    "Eq. 7 must preserve original ratings verbatim");
    }

    // iCluster: a permutation of all clusters in descending Eq. 9 order.
    const auto list = IClusterOf(static_cast<matrix::UserId>(u));
    CFSF_VALIDATE(list.size() == num_clusters_,
                  "iCluster list must rank every cluster");
    std::vector<bool> seen(num_clusters_, false);
    for (std::size_t k = 0; k < list.size(); ++k) {
      CFSF_VALIDATE(list[k].cluster < num_clusters_,
                    "iCluster entry references a missing cluster");
      CFSF_VALIDATE(!seen[list[k].cluster], "iCluster list repeats a cluster");
      seen[list[k].cluster] = true;
      CFSF_VALIDATE(std::isfinite(list[k].similarity),
                    "Eq. 9 affinity must be finite");
      CFSF_VALIDATE(list[k].similarity >= -1.0F - 1e-5F &&
                        list[k].similarity <= 1.0F + 1e-5F,
                    "Eq. 9 affinity outside [-1, 1]");
      CFSF_VALIDATE(k == 0 || list[k - 1].similarity >= list[k].similarity,
                    "iCluster list must be affinity-descending");
    }
  }
}

}  // namespace cfsf::cluster
