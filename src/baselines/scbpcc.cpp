#include "baselines/scbpcc.hpp"

#include <algorithm>
#include <vector>

#include "similarity/kernels.hpp"
#include "util/error.hpp"

namespace cfsf::baselines {

ScbpccPredictor::ScbpccPredictor(const ScbpccConfig& config) : config_(config) {
  CFSF_REQUIRE(config.epsilon >= 0.0 && config.epsilon <= 1.0,
               "SCBPCC epsilon must be in [0,1]");
  CFSF_REQUIRE(config.top_k_users > 0, "SCBPCC needs K > 0");
}

void ScbpccPredictor::Fit(const matrix::RatingMatrix& train) {
  train_ = train;
  cluster::KMeansConfig kconfig;
  kconfig.num_clusters = std::min(config_.num_clusters, train.num_users());
  kconfig.max_iterations = config_.kmeans_max_iterations;
  kconfig.seed = config_.seed;
  kconfig.parallel = config_.parallel;
  const auto kmeans = cluster::RunKMeans(train_, kconfig);
  clusters_ = cluster::ClusterModel::Build(train_, kmeans.assignments,
                                           kconfig.num_clusters,
                                           config_.parallel,
                                           config_.deviation_shrinkage);
}

double ScbpccPredictor::Predict(matrix::UserId user, matrix::ItemId item) const {
  const auto active_row = train_.UserRow(user);
  const double active_mean = train_.UserMean(user);

  // Candidate set: members of the pre-selected most-affine clusters, or
  // every user when preselection is disabled.  Recomputed per prediction —
  // SCBPCC has no result cache.
  struct Scored {
    matrix::UserId user;
    double similarity;
  };
  std::vector<Scored> scored;
  scored.reserve(train_.num_users());
  auto consider = [&](matrix::UserId candidate) {
    if (candidate == user) return;
    const double sim = sim::SmoothingAwarePcc(
        active_row, active_mean, clusters_.SmoothedProfile(candidate),
        clusters_.OriginalMask(candidate), clusters_.UserMean(candidate),
        config_.epsilon);
    if (sim > 0.0) scored.push_back(Scored{candidate, sim});
  };
  if (config_.preselect_clusters == 0) {
    for (std::size_t c = 0; c < train_.num_users(); ++c) {
      consider(static_cast<matrix::UserId>(c));
    }
  } else {
    std::size_t taken = 0;
    for (const auto& affinity : clusters_.IClusterOf(user)) {
      for (const auto candidate : clusters_.Members(affinity.cluster)) {
        consider(candidate);
      }
      if (++taken >= config_.preselect_clusters) break;
    }
  }

  const std::size_t k = std::min(config_.top_k_users, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [](const Scored& a, const Scored& b) {
                      if (a.similarity != b.similarity) {
                        return a.similarity > b.similarity;
                      }
                      return a.user < b.user;
                    });

  // Mean-centred weighted average over the smoothed ratings of the top-K,
  // with Eq. 11 provenance weights.
  double num = 0.0;
  double den = 0.0;
  for (std::size_t t = 0; t < k; ++t) {
    const auto neighbor = scored[t].user;
    const double rating = clusters_.SmoothedProfile(neighbor)[item];
    const bool original = clusters_.OriginalMask(neighbor)[item] != 0;
    const double w = sim::ProvenanceWeight(original, config_.epsilon) *
                     scored[t].similarity;
    num += w * (rating - clusters_.UserMean(neighbor));
    den += w;
  }
  if (den <= 0.0) return active_mean;
  return active_mean + num / den;
}

}  // namespace cfsf::baselines
