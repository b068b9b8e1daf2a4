// Unit tests for cfsf::cluster — K-means under PCC and the smoothing /
// iCluster model (Eqs. 6–9).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include "clustering/kmeans.hpp"
#include "clustering/smoothing.hpp"
#include "data/synthetic.hpp"
#include "util/error.hpp"

namespace cfsf::cluster {
namespace {

matrix::RatingMatrix TwoCampMatrix() {
  // Two obvious taste camps over 6 items: camp A loves items 0-2, camp B
  // loves items 3-5.
  matrix::RatingMatrixBuilder b(8, 6);
  for (matrix::UserId u = 0; u < 4; ++u) {
    b.Add(u, 0, 5); b.Add(u, 1, 4); b.Add(u, 2, 5);
    b.Add(u, 3, 1); b.Add(u, 4, 2); b.Add(u, 5, 1);
  }
  for (matrix::UserId u = 4; u < 8; ++u) {
    b.Add(u, 0, 1); b.Add(u, 1, 2); b.Add(u, 2, 1);
    b.Add(u, 3, 5); b.Add(u, 4, 4); b.Add(u, 5, 5);
  }
  return b.Build();
}

// -------------------------------------------------------------- kmeans ----

TEST(KMeans, SeparatesObviousCamps) {
  const auto m = TwoCampMatrix();
  KMeansConfig config;
  config.num_clusters = 2;
  const auto result = RunKMeans(m, config);
  ASSERT_EQ(result.assignments.size(), 8u);
  // All of camp A share a cluster, all of camp B the other.
  for (std::size_t u = 1; u < 4; ++u) {
    EXPECT_EQ(result.assignments[u], result.assignments[0]);
  }
  for (std::size_t u = 5; u < 8; ++u) {
    EXPECT_EQ(result.assignments[u], result.assignments[4]);
  }
  EXPECT_NE(result.assignments[0], result.assignments[4]);
}

TEST(KMeans, DeterministicPerSeed) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 60;
  dconfig.num_items = 80;
  dconfig.min_ratings_per_user = 10;
  dconfig.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(dconfig);
  KMeansConfig config;
  config.num_clusters = 5;
  const auto a = RunKMeans(m, config);
  const auto b = RunKMeans(m, config);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(KMeans, ParallelMatchesSerial) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 40;
  dconfig.num_items = 50;
  dconfig.min_ratings_per_user = 8;
  dconfig.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(dconfig);
  KMeansConfig config;
  config.num_clusters = 4;
  config.parallel = false;
  const auto serial = RunKMeans(m, config);
  config.parallel = true;
  const auto parallel = RunKMeans(m, config);
  EXPECT_EQ(serial.assignments, parallel.assignments);
}

TEST(KMeans, ClusterSizesSumToUsers) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 50;
  dconfig.num_items = 40;
  dconfig.min_ratings_per_user = 8;
  dconfig.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(dconfig);
  KMeansConfig config;
  config.num_clusters = 7;
  const auto result = RunKMeans(m, config);
  std::size_t total = 0;
  for (const auto s : result.cluster_sizes) total += s;
  EXPECT_EQ(total, m.num_users());
  // No empty clusters after repair on this data.
  for (const auto s : result.cluster_sizes) EXPECT_GT(s, 0u);
}

TEST(KMeans, AssignmentsAreLocallyOptimal) {
  const auto m = TwoCampMatrix();
  KMeansConfig config;
  config.num_clusters = 2;
  const auto result = RunKMeans(m, config);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const double own = UserCentroidPcc(
        m, static_cast<matrix::UserId>(u),
        result.centroids.Row(result.assignments[u]),
        result.centroid_means[result.assignments[u]]);
    for (std::size_t c = 0; c < config.num_clusters; ++c) {
      const double other =
          UserCentroidPcc(m, static_cast<matrix::UserId>(u),
                          result.centroids.Row(c), result.centroid_means[c]);
      EXPECT_GE(own + 1e-9, other);
    }
  }
}

TEST(KMeans, SingleClusterTakesEverybody) {
  const auto m = TwoCampMatrix();
  KMeansConfig config;
  config.num_clusters = 1;
  const auto result = RunKMeans(m, config);
  for (const auto a : result.assignments) EXPECT_EQ(a, 0u);
  EXPECT_EQ(result.cluster_sizes[0], 8u);
}

TEST(KMeans, RejectsInvalidConfigs) {
  const auto m = TwoCampMatrix();
  KMeansConfig config;
  config.num_clusters = 0;
  EXPECT_THROW(RunKMeans(m, config), util::ConfigError);
  config.num_clusters = 9;  // more clusters than the 8 users
  EXPECT_THROW(RunKMeans(m, config), util::ConfigError);
}

TEST(KMeans, CentroidCellsAreClusterMeans) {
  const auto m = TwoCampMatrix();
  KMeansConfig config;
  config.num_clusters = 2;
  const auto result = RunKMeans(m, config);
  const auto camp_a = result.assignments[0];
  // Item 0 mean within camp A is exactly 5.
  EXPECT_NEAR(result.centroids(camp_a, 0), 5.0, 1e-12);
  EXPECT_NEAR(result.centroids(camp_a, 3), 1.0, 1e-12);
}

// ------------------------------------------------------- cluster model ----

ClusterModel TwoCampModel(const matrix::RatingMatrix& m) {
  KMeansConfig config;
  config.num_clusters = 2;
  const auto result = RunKMeans(m, config);
  return ClusterModel::Build(m, result.assignments, 2);
}

TEST(ClusterModel, Eq8DeviationsByHand) {
  // Hand-checkable: 2 users in one cluster.
  //        i0 i1
  // u0      5  1   (mean 3)
  // u1      4  2   (mean 3)
  matrix::RatingMatrixBuilder b(2, 2);
  b.Add(0, 0, 5); b.Add(0, 1, 1);
  b.Add(1, 0, 4); b.Add(1, 1, 2);
  const auto m = b.Build();
  const std::vector<std::uint32_t> assignments{0, 0};
  const auto model = ClusterModel::Build(m, assignments, 1);
  // Δ(C0, i0) = ((5-3)+(4-3))/2 = 1.5 ; Δ(C0, i1) = -1.5.
  EXPECT_NEAR(model.ClusterDeviation(0, 0), 1.5, 1e-12);
  EXPECT_NEAR(model.ClusterDeviation(0, 1), -1.5, 1e-12);
  EXPECT_TRUE(model.ClusterHasRating(0, 0));
}

TEST(ClusterModel, Eq7SmoothedCells) {
  //        i0 i1 i2
  // u0      5  -  1   (mean 3)    cluster 0
  // u1      4  2  -   (mean 3)    cluster 0
  matrix::RatingMatrixBuilder b(2, 3);
  b.Add(0, 0, 5); b.Add(0, 2, 1);
  b.Add(1, 0, 4); b.Add(1, 1, 2);
  const auto m = b.Build();
  const std::vector<std::uint32_t> assignments{0, 0};
  const auto model = ClusterModel::Build(m, assignments, 1);
  // Original cells pass through.
  EXPECT_DOUBLE_EQ(model.SmoothedProfile(0)[0], 5.0);
  // u0 unrated i1: r̄_u0 + Δ(C0, i1) = 3 + (2-3)/1 = 2.
  EXPECT_NEAR(model.SmoothedProfile(0)[1], 2.0, 1e-12);
  // u1 unrated i2: 3 + (1-3)/1 = 1.
  EXPECT_NEAR(model.SmoothedProfile(1)[2], 1.0, 1e-12);
  // Masks reflect provenance.
  EXPECT_NE(model.OriginalMask(0)[0], 0);
  EXPECT_EQ(model.OriginalMask(0)[1], 0);
}

TEST(ClusterModel, FallbackToGlobalDeviation) {
  // Item 1 is rated only by cluster 1; cluster 0's deviation for it must
  // fall back to the global item deviation, and ClusterHasRating is false.
  matrix::RatingMatrixBuilder b(2, 2);
  b.Add(0, 0, 5);               // user 0 (cluster 0)
  b.Add(1, 0, 1); b.Add(1, 1, 4);  // user 1 (cluster 1), mean 2.5
  const auto m = b.Build();
  const std::vector<std::uint32_t> assignments{0, 1};
  const auto model = ClusterModel::Build(m, assignments, 2);
  EXPECT_FALSE(model.ClusterHasRating(0, 1));
  // Global deviation of i1: (4 - 2.5)/1 = 1.5.
  EXPECT_NEAR(model.ClusterDeviation(0, 1), 1.5, 1e-12);
}

TEST(ClusterModel, EntirelyUnratedItemDeviatesZero) {
  matrix::RatingMatrixBuilder b(2, 2);
  b.Add(0, 0, 5);
  b.Add(1, 0, 1);
  const auto m = b.Build();
  const std::vector<std::uint32_t> assignments{0, 0};
  const auto model = ClusterModel::Build(m, assignments, 1);
  EXPECT_DOUBLE_EQ(model.ClusterDeviation(0, 1), 0.0);
  // Smoothed value = user mean + 0.
  EXPECT_DOUBLE_EQ(model.SmoothedProfile(0)[1], m.UserMean(0));
}

TEST(ClusterModel, DeviationShrinkagePullsTowardGlobal) {
  matrix::RatingMatrixBuilder b(3, 1);
  b.Add(0, 0, 5);  // cluster 0; user mean 5 → dev 0 (single rating)
  b.Add(1, 0, 1);
  b.Add(2, 0, 3);
  const auto m = b.Build();
  const std::vector<std::uint32_t> assignments{0, 1, 1};
  const auto raw = ClusterModel::Build(m, assignments, 2, true, 0.0);
  const auto shrunk = ClusterModel::Build(m, assignments, 2, true, 100.0);
  // Heavy shrinkage pushes both clusters to (almost) the global deviation.
  EXPECT_NEAR(shrunk.ClusterDeviation(0, 0), shrunk.ClusterDeviation(1, 0),
              0.05);
  (void)raw;
}

TEST(ClusterModel, IClusterSortedAndComplete) {
  const auto m = TwoCampMatrix();
  const auto model = TwoCampModel(m);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto ic = model.IClusterOf(static_cast<matrix::UserId>(u));
    ASSERT_EQ(ic.size(), 2u);
    EXPECT_GE(ic[0].similarity, ic[1].similarity);
    std::set<std::uint32_t> clusters{ic[0].cluster, ic[1].cluster};
    EXPECT_EQ(clusters.size(), 2u);
  }
}

TEST(ClusterModel, IClusterPrefersOwnCamp) {
  const auto m = TwoCampMatrix();
  const auto model = TwoCampModel(m);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto ic = model.IClusterOf(static_cast<matrix::UserId>(u));
    EXPECT_EQ(ic[0].cluster, model.ClusterOf(static_cast<matrix::UserId>(u)))
        << "user " << u << " should be most affine to their own camp";
  }
}

TEST(ClusterModel, AffinityOfExternalProfile) {
  const auto m = TwoCampMatrix();
  const auto model = TwoCampModel(m);
  // A brand-new camp-A-style profile (loves items 0-2).
  const std::vector<matrix::Entry> row{{0, 5.0F}, {1, 5.0F}, {3, 1.0F}};
  const double mean = 11.0 / 3.0;
  const auto camp_a = model.ClusterOf(0);
  const auto camp_b = model.ClusterOf(4);
  EXPECT_GT(model.AffinityOf(row, mean, camp_a),
            model.AffinityOf(row, mean, camp_b));
}

TEST(ClusterModel, SmoothedMatrixCoversEveryCell) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 40;
  dconfig.num_items = 60;
  dconfig.min_ratings_per_user = 8;
  dconfig.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(dconfig);
  KMeansConfig config;
  config.num_clusters = 4;
  const auto kmeans = RunKMeans(m, config);
  const auto model = ClusterModel::Build(m, kmeans.assignments, 4);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto profile = model.SmoothedProfile(static_cast<matrix::UserId>(u));
    for (const double v : profile) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ClusterModel, OriginalMaskMatchesMatrix) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 30;
  dconfig.num_items = 40;
  dconfig.min_ratings_per_user = 8;
  dconfig.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(dconfig);
  KMeansConfig config;
  config.num_clusters = 3;
  const auto kmeans = RunKMeans(m, config);
  const auto model = ClusterModel::Build(m, kmeans.assignments, 3);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto mask = model.OriginalMask(static_cast<matrix::UserId>(u));
    std::size_t set_bits = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) {
        ++set_bits;
        EXPECT_TRUE(m.HasRating(static_cast<matrix::UserId>(u),
                                static_cast<matrix::ItemId>(i)));
      }
    }
    EXPECT_EQ(set_bits, m.UserRatingCount(static_cast<matrix::UserId>(u)));
  }
}

TEST(ClusterModel, ParallelMatchesSerial) {
  const auto m = TwoCampMatrix();
  const std::vector<std::uint32_t> assignments{0, 0, 0, 0, 1, 1, 1, 1};
  const auto a = ClusterModel::Build(m, assignments, 2, /*parallel=*/true);
  const auto b = ClusterModel::Build(m, assignments, 2, /*parallel=*/false);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto pa = a.SmoothedProfile(static_cast<matrix::UserId>(u));
    const auto pb = b.SmoothedProfile(static_cast<matrix::UserId>(u));
    for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
  }
}

TEST(ClusterModel, IClusterEqualsAffinityOfForEveryUser) {
  // Build computes all C affinities of a user in one pass over the row;
  // each must equal AffinityOf bit for bit, in the same order.  The two
  // extra users cover an empty row and a zero-variance row.
  data::SyntheticConfig config;
  config.num_users = 80;
  config.num_items = 60;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto base = data::GenerateSynthetic(config);
  matrix::RatingMatrixBuilder b(base.num_users() + 2, base.num_items());
  for (const auto& t : base.ToTriples()) b.Add(t);
  const auto flat = static_cast<matrix::UserId>(base.num_users() + 1);
  for (matrix::ItemId i = 0; i < 5; ++i) b.Add(flat, i, 4.0F);
  const auto m = b.Build();

  KMeansConfig kconfig;
  kconfig.num_clusters = 7;
  std::vector<std::uint32_t> assignments = RunKMeans(base, kconfig).assignments;
  assignments.push_back(0);
  assignments.push_back(3);
  for (const double shrinkage : {0.0, 2.0}) {
    const auto model = ClusterModel::Build(m, assignments, 7, true, shrinkage);
    for (matrix::UserId u = 0; u < m.num_users(); ++u) {
      std::vector<ClusterAffinity> want;
      for (std::uint32_t c = 0; c < 7; ++c) {
        want.push_back(ClusterAffinity{
            c, static_cast<float>(model.AffinityOf(m.UserRow(u), m.UserMean(u), c))});
      }
      std::sort(want.begin(), want.end(),
                [](const ClusterAffinity& x, const ClusterAffinity& y) {
                  if (x.similarity != y.similarity) return x.similarity > y.similarity;
                  return x.cluster < y.cluster;
                });
      const auto got = model.IClusterOf(u);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "user " << u << ", shrinkage " << shrinkage;
    }
  }
}

// Members(c) must be c's users ascending, and every (c, i) column the
// ratings of i by those members, as (member position, value) in ascending
// position; DebugValidate must accept the index.
void ExpectColumnsMatchMatrix(const matrix::RatingMatrix& m,
                              std::span<const std::uint32_t> assignments,
                              std::size_t num_clusters) {
  const auto model = ClusterModel::Build(m, assignments, num_clusters);
  EXPECT_NO_THROW(model.DebugValidate(m));
  for (std::uint32_t c = 0; c < num_clusters; ++c) {
    std::vector<matrix::UserId> want_members;
    for (matrix::UserId u = 0; u < m.num_users(); ++u) {
      if (assignments[u] == c) want_members.push_back(u);
    }
    const auto members = model.Members(c);
    ASSERT_EQ(std::vector<matrix::UserId>(members.begin(), members.end()), want_members)
        << "cluster " << c;
    for (matrix::ItemId i = 0; i < m.num_items(); ++i) {
      std::vector<ClusterRating> want;
      for (std::uint32_t j = 0; j < want_members.size(); ++j) {
        if (const auto r = m.GetRating(want_members[j], i)) {
          want.push_back(ClusterRating{j, *r});
        }
      }
      const auto column = model.ClusterColumn(c, i);
      ASSERT_EQ(std::vector<ClusterRating>(column.begin(), column.end()), want)
          << "cluster " << c << ", item " << i;
      EXPECT_EQ(model.ClusterHasRating(c, i), !want.empty());
    }
  }
}

TEST(ClusterModel, ClusterColumnsMatchMatrix) {
  // Cluster 2 is empty (the assignments skip its id), item 5 is unrated
  // and user 3 has no ratings.
  matrix::RatingMatrixBuilder b(7, 6);
  b.Add(0, 0, 5); b.Add(0, 2, 3);
  b.Add(1, 0, 1); b.Add(1, 1, 4); b.Add(1, 4, 2);
  b.Add(2, 1, 2); b.Add(2, 3, 5);
  b.Add(4, 0, 4); b.Add(4, 3, 1); b.Add(4, 4, 3);
  b.Add(5, 2, 2); b.Add(5, 4, 5);
  b.Add(6, 0, 3); b.Add(6, 1, 1);
  const auto m = b.Build();
  const std::vector<std::uint32_t> assignments{1, 0, 3, 1, 0, 3, 1};
  ExpectColumnsMatchMatrix(m, assignments, 4);

  data::SyntheticConfig config;
  config.num_users = 80;
  config.num_items = 60;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto synthetic = data::GenerateSynthetic(config);
  KMeansConfig kconfig;
  kconfig.num_clusters = 7;
  ExpectColumnsMatchMatrix(synthetic, RunKMeans(synthetic, kconfig).assignments, 7);
}

TEST(ClusterModel, ValidatesInputs) {
  const auto m = TwoCampMatrix();
  const std::vector<std::uint32_t> bad_size{0, 0};
  EXPECT_THROW(ClusterModel::Build(m, bad_size, 2), util::ConfigError);
  const std::vector<std::uint32_t> bad_cluster{0, 0, 0, 0, 1, 1, 1, 9};
  EXPECT_THROW(ClusterModel::Build(m, bad_cluster, 2), util::ConfigError);
  const std::vector<std::uint32_t> ok(8, 0);
  EXPECT_THROW(ClusterModel::Build(m, ok, 1, true, -1.0), util::ConfigError);
}

}  // namespace
}  // namespace cfsf::cluster
