// Unit tests for cfsf::sim — kernels (Eqs. 5, 6, 10, 11, 13), the GIS and
// the user-user similarity matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <vector>

#include "data/synthetic.hpp"
#include "similarity/item_similarity.hpp"
#include "similarity/kernels.hpp"
#include "similarity/user_similarity.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cfsf::sim {
namespace {

using matrix::Entry;

// ------------------------------------------------------------- kernels ----

TEST(Pearson, PerfectPositiveCorrelation) {
  const std::vector<Entry> a{{0, 1}, {1, 2}, {2, 3}};
  const std::vector<Entry> b{{0, 2}, {1, 4}, {2, 6}};
  const auto r = PearsonSparse(a, b, 2.0, 4.0);
  EXPECT_NEAR(r.value, 1.0, 1e-12);
  EXPECT_EQ(r.overlap, 3u);
}

TEST(Pearson, PerfectNegativeCorrelation) {
  const std::vector<Entry> a{{0, 1}, {1, 2}, {2, 3}};
  const std::vector<Entry> b{{0, 3}, {1, 2}, {2, 1}};
  const auto r = PearsonSparse(a, b, 2.0, 2.0);
  EXPECT_NEAR(r.value, -1.0, 1e-12);
}

TEST(Pearson, PartialOverlapMerges) {
  const std::vector<Entry> a{{0, 5}, {2, 3}, {4, 1}};
  const std::vector<Entry> b{{1, 4}, {2, 2}, {4, 4}, {7, 1}};
  const auto r = PearsonSparse(a, b, 3.0, 3.0);
  EXPECT_EQ(r.overlap, 2u);  // items 2 and 4
  // By hand: devs a: (0, -2), b: (-1, 1) → dot=-2, |a|=2, |b|=sqrt(2).
  EXPECT_NEAR(r.value, -2.0 / (2.0 * std::sqrt(2.0)), 1e-12);
}

TEST(Pearson, NoOverlapIsZero) {
  const std::vector<Entry> a{{0, 5}};
  const std::vector<Entry> b{{1, 4}};
  const auto r = PearsonSparse(a, b, 5.0, 4.0);
  EXPECT_EQ(r.overlap, 0u);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
}

TEST(Pearson, ZeroVarianceIsZero) {
  // All deviations of `a` vanish on the overlap.
  const std::vector<Entry> a{{0, 3}, {1, 3}};
  const std::vector<Entry> b{{0, 1}, {1, 5}};
  const auto r = PearsonSparse(a, b, 3.0, 3.0);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_EQ(r.overlap, 2u);
}

TEST(Pearson, EmptyInputs) {
  const std::vector<Entry> empty;
  const std::vector<Entry> b{{0, 1}};
  EXPECT_DOUBLE_EQ(PearsonSparse(empty, b, 0, 0).value, 0.0);
  EXPECT_DOUBLE_EQ(PearsonSparse(empty, empty, 0, 0).value, 0.0);
}

TEST(Cosine, IdenticalVectorsAreOne) {
  const std::vector<Entry> a{{0, 2}, {3, 4}};
  const auto r = CosineSparse(a, a);
  EXPECT_NEAR(r.value, 1.0, 1e-12);
  EXPECT_EQ(r.overlap, 2u);
}

TEST(Cosine, OrthogonalSupportIsZero) {
  const std::vector<Entry> a{{0, 2}};
  const std::vector<Entry> b{{1, 2}};
  EXPECT_DOUBLE_EQ(CosineSparse(a, b).value, 0.0);
}

TEST(Cosine, IgnoresMeansUnlikePearson) {
  // Both users rate everything high vs low: cosine says similar, PCC says
  // anti-correlated — the diversity argument for PCC in Section IV-B.
  const std::vector<Entry> a{{0, 5}, {1, 4}};
  const std::vector<Entry> b{{0, 2}, {1, 3}};
  EXPECT_GT(CosineSparse(a, b).value, 0.9);
  EXPECT_LT(PearsonSparse(a, b, 4.5, 2.5).value, 0.0);
}

TEST(Significance, ShrinksSmallOverlaps) {
  EXPECT_DOUBLE_EQ(SignificanceWeight(0.8, 10, 50), 0.8 * 10 / 50.0);
  EXPECT_DOUBLE_EQ(SignificanceWeight(0.8, 50, 50), 0.8);
  EXPECT_DOUBLE_EQ(SignificanceWeight(0.8, 500, 50), 0.8);
  EXPECT_THROW(SignificanceWeight(0.8, 10, 0), util::ConfigError);
}

TEST(CrossWeight, MatchesEq13) {
  // Eq. 13: si·su / sqrt(si² + su²)
  EXPECT_NEAR(CrossWeight(0.6, 0.8), 0.6 * 0.8 / 1.0, 1e-12);
  EXPECT_NEAR(CrossWeight(1.0, 1.0), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(CrossWeight, ZeroInputs) {
  EXPECT_DOUBLE_EQ(CrossWeight(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(CrossWeight(0.5, 0.0), 0.0);
}

TEST(CrossWeight, SymmetricAndBounded) {
  for (double x : {0.1, 0.4, 0.9}) {
    for (double y : {0.2, 0.7}) {
      EXPECT_DOUBLE_EQ(CrossWeight(x, y), CrossWeight(y, x));
      EXPECT_LE(CrossWeight(x, y), std::min(x, y));
      EXPECT_GT(CrossWeight(x, y), 0.0);
    }
  }
}

TEST(ProvenanceWeight, Eq11Semantics) {
  // w is the smoothed-rating weight (see the interpretation note).
  EXPECT_DOUBLE_EQ(ProvenanceWeight(/*is_original=*/true, 0.35), 0.65);
  EXPECT_DOUBLE_EQ(ProvenanceWeight(/*is_original=*/false, 0.35), 0.35);
}

TEST(SmoothingAwarePcc, AllOriginalMatchesPlainPcc) {
  // With every candidate cell original and any w, Eq. 10 reduces to PCC up
  // to the constant weight, which cancels between numerator/denominator...
  // except w² in the candidate norm: with a single constant weight c,
  // num ~ c, den ~ sqrt(c²)·|a| = c·|a| — so it cancels exactly.
  const std::vector<Entry> active{{0, 5}, {1, 3}, {2, 1}};
  const std::vector<double> profile{4.0, 3.0, 2.0, 9.0};
  const std::vector<std::uint8_t> mask{1, 1, 1, 1};
  const double got = SmoothingAwarePcc(active, 3.0, profile, mask, 3.0, 0.35);
  const std::vector<Entry> candidate{{0, 4}, {1, 3}, {2, 2}, {3, 9}};
  const double want = PearsonSparse(active, candidate, 3.0, 3.0).value;
  EXPECT_NEAR(got, want, 1e-12);
}

TEST(SmoothingAwarePcc, WeightsChangeResultWhenMixed) {
  // Asymmetric deviations so the w ↔ 1-w swap is visible: the original
  // cell carries a deviation of 2, the smoothed one only -1.
  const std::vector<Entry> active{{0, 5}, {1, 1}};
  const std::vector<double> profile{5.0, 2.0};
  const std::vector<std::uint8_t> mixed{1, 0};
  const double w_lo = SmoothingAwarePcc(active, 3.0, profile, mixed, 3.0, 0.1);
  const double w_hi = SmoothingAwarePcc(active, 3.0, profile, mixed, 3.0, 0.9);
  EXPECT_GT(std::abs(w_lo - w_hi), 1e-3);
}

TEST(SmoothingAwarePcc, ValidatesInputs) {
  const std::vector<Entry> active{{0, 5}};
  const std::vector<double> profile{4.0};
  const std::vector<std::uint8_t> short_mask;  // size mismatch
  EXPECT_THROW(SmoothingAwarePcc(active, 3.0, profile, short_mask, 3.0, 0.5),
               util::ConfigError);
  const std::vector<std::uint8_t> mask{1};
  EXPECT_THROW(SmoothingAwarePcc(active, 3.0, profile, mask, 3.0, 1.5),
               util::ConfigError);
}

TEST(SmoothingAwarePcc, EmptyActiveRowIsZero) {
  const std::vector<Entry> active;
  const std::vector<double> profile{1.0, 2.0};
  const std::vector<std::uint8_t> mask{1, 1};
  EXPECT_DOUBLE_EQ(SmoothingAwarePcc(active, 3.0, profile, mask, 3.0, 0.5), 0.0);
}

// ----------------------------------------------------------------- GIS ----

matrix::RatingMatrix GisFixture() {
  // Items 0 and 1 strongly correlated, item 2 anti-correlated with both.
  //      i0 i1 i2
  // u0    5  4  1
  // u1    4  5  2
  // u2    2  1  5
  // u3    1  2  4
  matrix::RatingMatrixBuilder b(4, 3);
  b.Add(0, 0, 5); b.Add(0, 1, 4); b.Add(0, 2, 1);
  b.Add(1, 0, 4); b.Add(1, 1, 5); b.Add(1, 2, 2);
  b.Add(2, 0, 2); b.Add(2, 1, 1); b.Add(2, 2, 5);
  b.Add(3, 0, 1); b.Add(3, 1, 2); b.Add(3, 2, 4);
  return b.Build();
}

TEST(Gis, FindsPositivePairsOnly) {
  const auto m = GisFixture();
  const auto gis = GlobalItemSimilarity::Build(m);  // min_similarity 0
  const auto row0 = gis.Neighbors(0);
  ASSERT_EQ(row0.size(), 1u);  // only item 1 is positively correlated
  EXPECT_EQ(row0[0].index, 1u);
  EXPECT_GE(row0[0].similarity, 0.8F);
  EXPECT_DOUBLE_EQ(gis.Similarity(0, 2), 0.0);  // filtered (negative)
}

TEST(Gis, MatchesDirectPearson) {
  const auto m = GisFixture();
  const auto gis = GlobalItemSimilarity::Build(m);
  const auto direct = PearsonSparse(m.ItemCol(0), m.ItemCol(1), m.ItemMean(0),
                                    m.ItemMean(1));
  // Both sum the co-raters in ascending user order: equal bits.
  EXPECT_EQ(gis.Similarity(0, 1), static_cast<float>(direct.value));
}

TEST(Gis, SymmetricSimilarities) {
  const auto m = GisFixture();
  const auto gis = GlobalItemSimilarity::Build(m);
  EXPECT_FLOAT_EQ(gis.Similarity(0, 1), gis.Similarity(1, 0));
}

TEST(Gis, RowsSortedDescending) {
  data::SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 40;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(config);
  const auto gis = GlobalItemSimilarity::Build(m);
  for (std::size_t i = 0; i < m.num_items(); ++i) {
    const auto row = gis.Neighbors(static_cast<matrix::ItemId>(i));
    for (std::size_t k = 1; k < row.size(); ++k) {
      EXPECT_GE(row[k - 1].similarity, row[k].similarity);
      EXPECT_NE(row[k].index, i);  // never contains self
    }
  }
}

TEST(Gis, ThresholdShrinksGis) {
  data::SyntheticConfig config;
  config.num_users = 80;
  config.num_items = 50;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(config);
  GisConfig loose;
  loose.min_similarity = 0.0;
  GisConfig tight;
  tight.min_similarity = 0.5;
  const auto gl = GlobalItemSimilarity::Build(m, loose);
  const auto gt = GlobalItemSimilarity::Build(m, tight);
  EXPECT_LT(gt.TotalNeighbors(), gl.TotalNeighbors());
  for (std::size_t i = 0; i < m.num_items(); ++i) {
    for (const auto& n : gt.Neighbors(static_cast<matrix::ItemId>(i))) {
      EXPECT_GT(n.similarity, 0.5F);
    }
  }
}

TEST(Gis, MinOverlapFilters) {
  // Two items sharing exactly one rater: filtered at min_overlap 2.
  matrix::RatingMatrixBuilder b(3, 2);
  b.Add(0, 0, 5);
  b.Add(0, 1, 5);
  b.Add(1, 0, 1);
  b.Add(2, 1, 2);
  const auto m = b.Build();
  GisConfig config;
  config.min_overlap = 2;
  const auto gis = GlobalItemSimilarity::Build(m, config);
  EXPECT_EQ(gis.TotalNeighbors(), 0u);
  config.min_overlap = 1;
  // Deviations are taken from the *global* item means, so even a single
  // co-rater yields a nonzero (and here positive) correlation — exactly
  // why min_overlap >= 2 is the default.
  const auto gis1 = GlobalItemSimilarity::Build(m, config);
  EXPECT_EQ(gis1.TotalNeighbors(), 2u);
}

TEST(Gis, TopMPrefix) {
  data::SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 40;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(config);
  const auto gis = GlobalItemSimilarity::Build(m);
  const auto full = gis.Neighbors(0);
  const auto top = gis.TopM(0, 5);
  EXPECT_EQ(top.size(), std::min<std::size_t>(5, full.size()));
  for (std::size_t k = 0; k < top.size(); ++k) EXPECT_EQ(top[k], full[k]);
  EXPECT_EQ(gis.TopM(0, 100000).size(), full.size());
}

TEST(Gis, TinyMatrices) {
  matrix::RatingMatrixBuilder b(2, 1);
  b.Add(0, 0, 3);
  const auto gis = GlobalItemSimilarity::Build(b.Build());
  EXPECT_EQ(gis.num_items(), 1u);
  EXPECT_TRUE(gis.Neighbors(0).empty());
}

TEST(Gis, RefreshMatchesFullRebuild) {
  data::SyntheticConfig config;
  config.num_users = 50;
  config.num_items = 30;
  config.min_ratings_per_user = 8;
  config.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(config);
  auto gis = GlobalItemSimilarity::Build(m);

  // Flip one rating and refresh the touched item.
  const auto updated = m.WithRating(0, 5, 1.0F);
  const matrix::ItemId touched[] = {5};
  gis.RefreshItems(updated, touched);

  const auto rebuilt = GlobalItemSimilarity::Build(updated);
  ASSERT_EQ(gis.num_items(), rebuilt.num_items());
  for (std::size_t i = 0; i < gis.num_items(); ++i) {
    const auto a = gis.Neighbors(static_cast<matrix::ItemId>(i));
    const auto b = rebuilt.Neighbors(static_cast<matrix::ItemId>(i));
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "row " << i;
  }
}

TEST(Gis, RefreshValidatesInputs) {
  const auto m = GisFixture();
  auto gis = GlobalItemSimilarity::Build(m);
  matrix::RatingMatrixBuilder b(2, 7);
  b.Add(0, 0, 3);
  const auto wrong_shape = b.Build();
  const matrix::ItemId touched[] = {0};
  EXPECT_THROW(gis.RefreshItems(wrong_shape, touched), util::ConfigError);
}

// ------------------------------------------------- RefreshItems splice ----

// What RefreshItems must leave behind, written the slow way: each
// refreshed row recomputed outright; every other row with its stale
// entries erased and the fresh ones appended, then std::sort in row order.
std::vector<std::vector<Neighbor>> ReferenceRefresh(
    const GlobalItemSimilarity& before, const matrix::RatingMatrix& m,
    std::span<const matrix::ItemId> items) {
  const GisConfig& config = before.config();
  const std::set<matrix::ItemId> touched(items.begin(), items.end());
  // Eq. 5 of refreshed item `a` against `b`, if it passes the filters.
  const auto fresh = [&](matrix::ItemId a, matrix::ItemId b) -> std::optional<float> {
    const auto r = PearsonSparse(m.ItemCol(a), m.ItemCol(b), m.ItemMean(a),
                                 m.ItemMean(b));
    if (r.overlap < config.min_overlap || !(r.value > config.min_similarity)) {
      return std::nullopt;
    }
    return static_cast<float>(r.value);
  };
  std::vector<std::vector<Neighbor>> rows(m.num_items());
  for (matrix::ItemId j = 0; j < m.num_items(); ++j) {
    auto& row = rows[j];
    if (touched.contains(j)) {
      for (matrix::ItemId b = 0; b < m.num_items(); ++b) {
        if (b == j) continue;
        if (const auto sim = fresh(j, b)) row.push_back(Neighbor{b, *sim});
      }
    } else {
      for (const auto& n : before.Neighbors(j)) {
        if (!touched.contains(n.index)) row.push_back(n);
      }
      for (const auto a : touched) {
        if (const auto sim = fresh(a, j)) row.push_back(Neighbor{a, *sim});
      }
    }
    std::sort(row.begin(), row.end(), [](const Neighbor& x, const Neighbor& y) {
      if (x.similarity != y.similarity) return x.similarity > y.similarity;
      return x.index < y.index;
    });
  }
  return rows;
}

// A synthetic matrix whose items 0 and 1 have identical columns, so their
// similarities to every other item tie exactly: the merge must break
// those ties by item id.
matrix::RatingMatrix TwinColumnMatrix() {
  data::SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 40;
  config.min_ratings_per_user = 12;
  config.log_mean = 3.0;
  const auto base = data::GenerateSynthetic(config);
  matrix::RatingMatrixBuilder b(base.num_users(), base.num_items());
  for (const auto& t : base.ToTriples()) {
    if (t.item == 1) continue;
    b.Add(t);
    if (t.item == 0) b.Add(t.user, 1, t.value, t.timestamp);
  }
  return b.Build();
}

TEST(GisSplice, RefreshEqualsEraseAppendSortUncapped) {
  matrix::RatingMatrix m = TwinColumnMatrix();
  auto gis = GlobalItemSimilarity::Build(m);

  const auto refresh_and_compare = [&](std::vector<matrix::ItemId> items) {
    const GlobalItemSimilarity before = gis;
    gis.RefreshItems(m, items);
    const auto want = ReferenceRefresh(before, m, items);
    for (matrix::ItemId j = 0; j < m.num_items(); ++j) {
      const auto got = gis.Neighbors(j);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want[j].begin(), want[j].end()))
          << "row " << j << " after refreshing " << ::testing::PrintToString(items);
    }
    EXPECT_NO_THROW(gis.DebugValidate());
  };

  // The twins against each other: 1 fresh vs 0 stored, then 0 fresh vs
  // 1 stored, so a tie is resolved both ways round.
  refresh_and_compare({1});
  refresh_and_compare({0});
  refresh_and_compare({1});

  // Folded batches: fresh cells and overwrites, repeated touched items.
  util::Rng rng(11);
  for (const std::size_t size : {1U, 3U, 10U, 25U}) {
    std::vector<matrix::RatingTriple> batch;
    std::vector<matrix::ItemId> items;
    for (std::size_t k = 0; k < size; ++k) {
      const auto user = static_cast<matrix::UserId>(rng.NextBounded(m.num_users()));
      const auto item = static_cast<matrix::ItemId>(2 + rng.NextBounded(m.num_items() - 2));
      batch.push_back({user, item, static_cast<float>(1 + rng.NextBounded(5)), 0});
      items.push_back(item);
      if (k % 4 == 0) items.push_back(item);
    }
    m = m.WithRatings(batch);
    refresh_and_compare(items);
  }
}

TEST(GisSplice, TwinItemsTieInRowsThatHoldBoth) {
  // Pins the premise of the tests above: after both twins are refreshed,
  // some row holds both at one similarity.
  const auto m = TwinColumnMatrix();
  auto gis = GlobalItemSimilarity::Build(m);
  const matrix::ItemId twins[] = {0, 1};
  gis.RefreshItems(m, twins);
  std::size_t ties = 0;
  for (matrix::ItemId j = 2; j < m.num_items(); ++j) {
    const double a = gis.Similarity(j, 0);
    if (a > 0.0 && a == gis.Similarity(j, 1)) ++ties;
  }
  EXPECT_GT(ties, 0U);
}

// ------------------------------------------------------ user similarity ----

TEST(UserSim, PairwiseMatchesEq6) {
  const auto m = GisFixture();
  // u0 and u1 rate in lockstep; u0 and u2 are opposed.
  EXPECT_GT(UserPcc(m, 0, 1), 0.7);
  EXPECT_LT(UserPcc(m, 0, 2), -0.7);
}

TEST(UserSim, MatrixMatchesPairwise) {
  data::SyntheticConfig config;
  config.num_users = 40;
  config.num_items = 60;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(config);
  const auto usm = UserSimilarityMatrix::Build(m);
  for (matrix::UserId u = 0; u < 10; ++u) {
    for (const auto& n : usm.Neighbors(u)) {
      EXPECT_NEAR(n.similarity, UserPcc(m, u, n.index), 1e-5);
    }
  }
}

TEST(UserSim, SymmetricAndSorted) {
  data::SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 50;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(config);
  const auto usm = UserSimilarityMatrix::Build(m);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto row = usm.Neighbors(static_cast<matrix::UserId>(u));
    for (std::size_t k = 1; k < row.size(); ++k) {
      EXPECT_GE(row[k - 1].similarity, row[k].similarity);
    }
    for (const auto& n : row) {
      EXPECT_FLOAT_EQ(
          usm.Similarity(static_cast<matrix::UserId>(u), n.index),
          usm.Similarity(n.index, static_cast<matrix::UserId>(u)));
    }
  }
}

TEST(UserSim, ParallelMatchesSerial) {
  data::SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 40;
  config.min_ratings_per_user = 8;
  config.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(config);
  UserSimilarityConfig serial_config;
  serial_config.parallel = false;
  const auto a = UserSimilarityMatrix::Build(m, serial_config);
  const auto b = UserSimilarityMatrix::Build(m);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto ra = a.Neighbors(static_cast<matrix::UserId>(u));
    const auto rb = b.Neighbors(static_cast<matrix::UserId>(u));
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k].index, rb[k].index);
      EXPECT_NEAR(ra[k].similarity, rb[k].similarity, 1e-5);
    }
  }
}

TEST(UserSim, TopKPrefix) {
  const auto m = GisFixture();
  const auto usm = UserSimilarityMatrix::Build(m);
  const auto top = usm.TopK(0, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].index, 1u);  // the lockstep partner
}

}  // namespace
}  // namespace cfsf::sim
