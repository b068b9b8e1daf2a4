// Unit tests for cfsf::matrix — builder, dual indexes, means, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "matrix/dense_matrix.hpp"
#include "matrix/rating_matrix.hpp"
#include "matrix/stats.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cfsf::matrix {
namespace {

RatingMatrix SmallMatrix() {
  // users x items (3 x 4):
  //      i0  i1  i2  i3
  // u0    5   3   -   1
  // u1    4   -   2   -
  // u2    -   3   4   5
  RatingMatrixBuilder b(3, 4);
  b.Add(0, 0, 5);
  b.Add(0, 1, 3);
  b.Add(0, 3, 1);
  b.Add(1, 0, 4);
  b.Add(1, 2, 2);
  b.Add(2, 1, 3);
  b.Add(2, 2, 4);
  b.Add(2, 3, 5);
  return b.Build();
}

TEST(Builder, CountsAndShape) {
  const auto m = SmallMatrix();
  EXPECT_EQ(m.num_users(), 3u);
  EXPECT_EQ(m.num_items(), 4u);
  EXPECT_EQ(m.num_ratings(), 8u);
}

TEST(Builder, RejectsOutOfRangeIds) {
  RatingMatrixBuilder b(2, 2);
  EXPECT_THROW(b.Add(2, 0, 3), util::DimensionError);
  EXPECT_THROW(b.Add(0, 2, 3), util::DimensionError);
}

TEST(Builder, RejectsNonFiniteRating) {
  RatingMatrixBuilder b(1, 1);
  EXPECT_THROW(b.Add(0, 0, std::numeric_limits<float>::quiet_NaN()),
               util::DimensionError);
}

TEST(Builder, DuplicateLastWins) {
  RatingMatrixBuilder b(1, 1);
  b.Add(0, 0, 2);
  b.Add(0, 0, 5);
  const auto m = b.Build();
  EXPECT_EQ(m.num_ratings(), 1u);
  EXPECT_FLOAT_EQ(*m.GetRating(0, 0), 5.0F);
}

TEST(Builder, UnsortedInputIsSorted) {
  RatingMatrixBuilder b(2, 3);
  b.Add(1, 2, 1);
  b.Add(0, 1, 2);
  b.Add(1, 0, 3);
  b.Add(0, 0, 4);
  const auto m = b.Build();
  const auto row0 = m.UserRow(0);
  ASSERT_EQ(row0.size(), 2u);
  EXPECT_LT(row0[0].index, row0[1].index);
  const auto row1 = m.UserRow(1);
  ASSERT_EQ(row1.size(), 2u);
  EXPECT_LT(row1[0].index, row1[1].index);
}

TEST(Builder, ReusableAfterBuild) {
  RatingMatrixBuilder b(1, 1);
  b.Add(0, 0, 3);
  const auto m1 = b.Build();
  EXPECT_EQ(b.pending(), 0u);
  b.Add(0, 0, 4);
  const auto m2 = b.Build();
  EXPECT_FLOAT_EQ(*m2.GetRating(0, 0), 4.0F);
  EXPECT_FLOAT_EQ(*m1.GetRating(0, 0), 3.0F);
}

TEST(RatingMatrix, UserRowContents) {
  const auto m = SmallMatrix();
  const auto row = m.UserRow(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], (Entry{0, 5.0F}));
  EXPECT_EQ(row[1], (Entry{1, 3.0F}));
  EXPECT_EQ(row[2], (Entry{3, 1.0F}));
}

TEST(RatingMatrix, ItemColContents) {
  const auto m = SmallMatrix();
  const auto col = m.ItemCol(2);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col[0], (Entry{1, 2.0F}));
  EXPECT_EQ(col[1], (Entry{2, 4.0F}));
}

TEST(RatingMatrix, CsrAndCscAgree) {
  const auto m = SmallMatrix();
  std::size_t csc_total = 0;
  for (std::size_t i = 0; i < m.num_items(); ++i) {
    for (const auto& e : m.ItemCol(static_cast<ItemId>(i))) {
      EXPECT_FLOAT_EQ(*m.GetRating(e.index, static_cast<ItemId>(i)), e.value);
      ++csc_total;
    }
  }
  EXPECT_EQ(csc_total, m.num_ratings());
}

TEST(RatingMatrix, GetRatingHitsAndMisses) {
  const auto m = SmallMatrix();
  EXPECT_FLOAT_EQ(*m.GetRating(0, 0), 5.0F);
  EXPECT_FALSE(m.GetRating(0, 2).has_value());
  EXPECT_FALSE(m.GetRating(1, 3).has_value());
  EXPECT_TRUE(m.HasRating(2, 3));
}

TEST(RatingMatrix, Means) {
  const auto m = SmallMatrix();
  EXPECT_DOUBLE_EQ(m.UserMean(0), 3.0);         // (5+3+1)/3
  EXPECT_DOUBLE_EQ(m.UserMean(1), 3.0);         // (4+2)/2
  EXPECT_DOUBLE_EQ(m.UserMean(2), 4.0);         // (3+4+5)/3
  EXPECT_DOUBLE_EQ(m.ItemMean(0), 4.5);         // (5+4)/2
  EXPECT_DOUBLE_EQ(m.ItemMean(1), 3.0);
  EXPECT_DOUBLE_EQ(m.ItemMean(2), 3.0);
  EXPECT_DOUBLE_EQ(m.ItemMean(3), 3.0);
  EXPECT_DOUBLE_EQ(m.GlobalMean(), 27.0 / 8.0);
}

TEST(RatingMatrix, EmptyUserFallsBackToGlobalMean) {
  RatingMatrixBuilder b(2, 1);
  b.Add(0, 0, 4);
  const auto m = b.Build();
  EXPECT_DOUBLE_EQ(m.UserMean(1), 4.0);
  EXPECT_TRUE(m.UserRow(1).empty());
}

TEST(RatingMatrix, EmptyItemFallsBackToGlobalMean) {
  RatingMatrixBuilder b(1, 2);
  b.Add(0, 0, 2);
  const auto m = b.Build();
  EXPECT_DOUBLE_EQ(m.ItemMean(1), 2.0);
  EXPECT_TRUE(m.ItemCol(1).empty());
}

TEST(RatingMatrix, Density) {
  const auto m = SmallMatrix();
  EXPECT_DOUBLE_EQ(m.Density(), 8.0 / 12.0);
}

TEST(RatingMatrix, EmptyMatrix) {
  const RatingMatrix m;
  EXPECT_EQ(m.num_users(), 0u);
  EXPECT_EQ(m.num_ratings(), 0u);
  EXPECT_DOUBLE_EQ(m.Density(), 0.0);
}

TEST(RatingMatrix, ToTriplesRoundTrip) {
  const auto m = SmallMatrix();
  const auto triples = m.ToTriples();
  ASSERT_EQ(triples.size(), m.num_ratings());
  RatingMatrixBuilder b(3, 4);
  for (const auto& t : triples) b.Add(t);
  const auto m2 = b.Build();
  EXPECT_EQ(m2.ToTriples(), triples);
}

TEST(RatingMatrix, TimestampsPreserved) {
  RatingMatrixBuilder b(1, 2);
  b.Add(0, 0, 3, 100);
  b.Add(0, 1, 4, 200);
  const auto m = b.Build();
  EXPECT_TRUE(m.has_timestamps());
  const auto ts = m.UserRowTimestamps(0);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0], 100);
  EXPECT_EQ(ts[1], 200);
}

TEST(RatingMatrix, NoTimestampsMeansEmptySpan) {
  const auto m = SmallMatrix();
  EXPECT_FALSE(m.has_timestamps());
  EXPECT_TRUE(m.UserRowTimestamps(0).empty());
}

TEST(RatingMatrix, KeepUserPrefix) {
  const auto m = SmallMatrix();
  const auto prefix = m.KeepUserPrefix(2);
  EXPECT_EQ(prefix.num_users(), 2u);
  EXPECT_EQ(prefix.num_items(), 4u);
  EXPECT_EQ(prefix.num_ratings(), 5u);
  EXPECT_FLOAT_EQ(*prefix.GetRating(1, 2), 2.0F);
  EXPECT_THROW(m.KeepUserPrefix(10), util::ConfigError);
}

TEST(RatingMatrix, WithRatingInsertsAndOverwrites) {
  const auto m = SmallMatrix();
  const auto inserted = m.WithRating(1, 3, 5);
  EXPECT_EQ(inserted.num_ratings(), m.num_ratings() + 1);
  EXPECT_FLOAT_EQ(*inserted.GetRating(1, 3), 5.0F);
  const auto overwritten = m.WithRating(0, 0, 1);
  EXPECT_EQ(overwritten.num_ratings(), m.num_ratings());
  EXPECT_FLOAT_EQ(*overwritten.GetRating(0, 0), 1.0F);
  // Means are recomputed.
  EXPECT_NE(overwritten.UserMean(0), m.UserMean(0));
}

// ---------------------------------------------------- WithRatings splice ----

enum class Stamps { kZero, kNonzero, kMixed };

Timestamp DrawStamp(Stamps stamps, util::Rng& rng) {
  switch (stamps) {
    case Stamps::kZero:
      return 0;
    case Stamps::kNonzero:
      return 1000 + static_cast<Timestamp>(rng.NextBounded(1000));
    case Stamps::kMixed:
      return rng.NextBounded(2) == 0
                 ? 0
                 : 1000 + static_cast<Timestamp>(rng.NextBounded(1000));
  }
  return 0;
}

// 30 users x 20 items at ~30 % density.  User 0 and item 0 stay empty so
// batches also land in empty rows and columns.
RatingMatrix SpliceBase(Stamps stamps) {
  util::Rng rng(7);
  RatingMatrixBuilder b(30, 20);
  for (UserId u = 1; u < 30; ++u) {
    for (ItemId i = 1; i < 20; ++i) {
      if (rng.NextBounded(10) < 3) {
        b.Add(u, i, static_cast<Rating>(1 + rng.NextBounded(5)),
              DrawStamp(stamps, rng));
      }
    }
  }
  return b.Build();
}

// `size` ratings: about half overwrite a stored cell, the rest go to
// random cells (mostly fresh); from two ratings on, the last one re-rates
// the batch's first cell with another value.
std::vector<RatingTriple> SpliceBatch(const RatingMatrix& m, std::size_t size,
                                      Stamps stamps, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto stored = m.ToTriples();
  std::vector<RatingTriple> batch;
  while (batch.size() + (size >= 2 ? 1 : 0) < size) {
    RatingTriple t;
    if (rng.NextBounded(2) == 0) {
      const RatingTriple& old = stored[rng.NextBounded(stored.size())];
      t.user = old.user;
      t.item = old.item;
    } else {
      t.user = static_cast<UserId>(rng.NextBounded(m.num_users()));
      t.item = static_cast<ItemId>(rng.NextBounded(m.num_items()));
    }
    t.value = static_cast<Rating>(1 + rng.NextBounded(5));
    t.timestamp = DrawStamp(stamps, rng);
    batch.push_back(t);
  }
  if (size >= 2) {
    RatingTriple again = batch.front();
    again.value = again.value == 5.0F ? 1.0F : again.value + 1.0F;
    again.timestamp = DrawStamp(stamps, rng);
    batch.push_back(again);
  }
  return batch;
}

// The fold's reference: the builder of `num_users` rows over every stored
// rating plus the batch.
RatingMatrix Rebuilt(const RatingMatrix& m, std::span<const RatingTriple> batch,
                     std::size_t num_users) {
  RatingMatrixBuilder b(num_users, m.num_items());
  for (const auto& t : m.ToTriples()) b.Add(t);
  for (const auto& t : batch) b.Add(t);
  return b.Build();
}

RatingMatrix Rebuilt(const RatingMatrix& m, std::span<const RatingTriple> batch) {
  return Rebuilt(m, batch, m.num_users());
}

void ExpectSameMatrix(const RatingMatrix& got, const RatingMatrix& want) {
  ASSERT_EQ(got.num_users(), want.num_users());
  ASSERT_EQ(got.num_items(), want.num_items());
  ASSERT_EQ(got.num_ratings(), want.num_ratings());
  EXPECT_EQ(got.has_timestamps(), want.has_timestamps());
  for (UserId u = 0; u < got.num_users(); ++u) {
    const auto a = got.UserRow(u);
    const auto b = want.UserRow(u);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "row " << u;
    const auto ta = got.UserRowTimestamps(u);
    const auto tb = want.UserRowTimestamps(u);
    EXPECT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin(), tb.end()))
        << "timestamps of row " << u;
    EXPECT_EQ(got.UserMean(u), want.UserMean(u)) << "user " << u;
  }
  for (ItemId i = 0; i < got.num_items(); ++i) {
    const auto a = got.ItemCol(i);
    const auto b = want.ItemCol(i);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "column " << i;
    EXPECT_EQ(got.ItemMean(i), want.ItemMean(i)) << "item " << i;
  }
  EXPECT_EQ(got.GlobalMean(), want.GlobalMean());
}

TEST(MatrixSplice, WithRatingsEqualsTheBuilderForEveryBatchShape) {
  for (const Stamps base_stamps : {Stamps::kZero, Stamps::kNonzero, Stamps::kMixed}) {
    const RatingMatrix m = SpliceBase(base_stamps);
    ASSERT_EQ(m.has_timestamps(), base_stamps != Stamps::kZero);
    for (const std::size_t size : {1U, 2U, 5U, 125U}) {
      for (const Stamps stamps : {Stamps::kZero, Stamps::kNonzero, Stamps::kMixed}) {
        const auto batch = SpliceBatch(m, size, stamps, 100 + size);
        ASSERT_EQ(batch.size(), size);
        SCOPED_TRACE(::testing::Message()
                     << "base stamps " << static_cast<int>(base_stamps)
                     << ", batch of " << size << ", batch stamps "
                     << static_cast<int>(stamps));
        const RatingMatrix spliced = m.WithRatings(batch);
        ExpectSameMatrix(spliced, Rebuilt(m, batch));
        EXPECT_NO_THROW(spliced.DebugValidate());
      }
    }
  }
}

TEST(MatrixSplice, CoversFreshCellsOverwritesAndRepeats) {
  // Pins what the batch shapes above exercise, so a generator change
  // cannot quietly drop a case.
  const RatingMatrix m = SpliceBase(Stamps::kNonzero);
  const auto batch = SpliceBatch(m, 125, Stamps::kMixed, 225);
  std::size_t fresh = 0;
  std::size_t overwrites = 0;
  for (const auto& t : batch) {
    if (m.HasRating(t.user, t.item)) {
      ++overwrites;
    } else {
      ++fresh;
    }
  }
  EXPECT_GT(fresh, 0U);
  EXPECT_GT(overwrites, 0U);
  EXPECT_EQ(batch.back().user, batch.front().user);
  EXPECT_EQ(batch.back().item, batch.front().item);
  EXPECT_NE(batch.back().value, batch.front().value);
  EXPECT_TRUE(std::any_of(batch.begin(), batch.end(),
                          [](const RatingTriple& t) { return t.user == 0; }));
}

TEST(MatrixSplice, TimestampsDropWhenTheirLastNonzeroIsOverwritten) {
  RatingMatrixBuilder b(2, 2);
  b.Add(0, 0, 3, 100);
  b.Add(1, 1, 4);
  const RatingMatrix m = b.Build();
  ASSERT_TRUE(m.has_timestamps());
  const RatingTriple overwrite{0, 0, 5, 0};
  const RatingMatrix spliced = m.WithRatings({&overwrite, 1});
  ExpectSameMatrix(spliced, Rebuilt(m, {&overwrite, 1}));
  EXPECT_FALSE(spliced.has_timestamps());
}

TEST(MatrixSplice, EmptyBatchOnAnEmptyMatrix) {
  const RatingMatrix empty;
  ExpectSameMatrix(empty.WithRatings({}), Rebuilt(empty, {}));
  EXPECT_NO_THROW(empty.WithRatings({}).DebugValidate());
}

TEST(MatrixSplice, GrowsOneRowForANewUserLikeTheBuilder) {
  // Enrolment's splice: the result has one more row, which starts empty.
  // The batch rates into it (an empty column, a repeated item) and
  // overwrites a stored cell of an existing user.
  for (const Stamps base_stamps : {Stamps::kZero, Stamps::kNonzero}) {
    const RatingMatrix m = SpliceBase(base_stamps);
    for (const Stamps stamps : {Stamps::kZero, Stamps::kNonzero}) {
      SCOPED_TRACE(::testing::Message() << "base stamps " << static_cast<int>(base_stamps)
                                        << ", batch stamps " << static_cast<int>(stamps));
      util::Rng rng(11);
      std::vector<RatingTriple> batch;
      for (const ItemId item : {3U, 0U, 17U, 3U}) {
        batch.push_back({30, item, static_cast<Rating>(1 + rng.NextBounded(5)),
                         DrawStamp(stamps, rng)});
      }
      const RatingTriple stored = m.ToTriples().front();
      batch.push_back({stored.user, stored.item, stored.value == 5.0F ? 1.0F : 5.0F,
                       DrawStamp(stamps, rng)});
      const RatingMatrix grown = m.WithRatings(batch, 31);
      ExpectSameMatrix(grown, Rebuilt(m, batch, 31));
      EXPECT_NO_THROW(grown.DebugValidate());
      EXPECT_EQ(grown.UserRatingCount(30), 3U);
      EXPECT_EQ(*grown.GetRating(30, 3), batch[3].value) << "a repeat keeps the last value";
    }
    ExpectSameMatrix(m.WithRatings({}, 31), Rebuilt(m, {}, 31));
    const std::vector<RatingTriple> past{{31, 1, 3.0F, 0}};
    EXPECT_THROW(m.WithRatings(past, 31), util::ConfigError);
    EXPECT_THROW(m.WithRatings({}, 29), util::ConfigError);
  }
}

TEST(MatrixSplice, RejectsNonFiniteRatings) {
  const RatingMatrix m = SpliceBase(Stamps::kZero);
  for (const Rating bad : {std::numeric_limits<Rating>::quiet_NaN(),
                           std::numeric_limits<Rating>::infinity()}) {
    const std::vector<RatingTriple> batch{{1, 1, 3.0F, 0}, {2, 2, bad, 0}};
    EXPECT_THROW(m.WithRatings(batch), util::DimensionError);
  }
}

TEST(MatrixSplice, RejectsOutOfRangeIds) {
  const RatingMatrix m = SpliceBase(Stamps::kZero);
  const std::vector<RatingTriple> bad_user{{1, 1, 3.0F, 0}, {30, 1, 3.0F, 0}};
  EXPECT_THROW(m.WithRatings(bad_user), util::ConfigError);
  const std::vector<RatingTriple> bad_item{{1, 20, 3.0F, 0}};
  EXPECT_THROW(m.WithRatings(bad_item), util::ConfigError);
}

TEST(DenseMatrix, IndexingAndFill) {
  DenseMatrix d(2, 3, 1.5);
  EXPECT_DOUBLE_EQ(d(1, 2), 1.5);
  d(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(d(1, 2), 7.0);
  d.Fill(0.0);
  EXPECT_DOUBLE_EQ(d(1, 2), 0.0);
}

TEST(DenseMatrix, RowSpanWritesThrough) {
  DenseMatrix d(2, 2);
  auto row = d.Row(1);
  row[0] = 3.0;
  EXPECT_DOUBLE_EQ(d(1, 0), 3.0);
}

TEST(DenseMatrix, FrobeniusDistance) {
  DenseMatrix a(1, 2);
  DenseMatrix b(1, 2);
  a(0, 0) = 3.0;
  a(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(a.FrobeniusDistance(b), 5.0);
  DenseMatrix c(2, 1);
  EXPECT_THROW(a.FrobeniusDistance(c), util::ConfigError);
}

TEST(Stats, TableOneFields) {
  const auto m = SmallMatrix();
  const auto stats = ComputeStats(m);
  EXPECT_EQ(stats.num_users, 3u);
  EXPECT_EQ(stats.num_items, 4u);
  EXPECT_EQ(stats.num_ratings, 8u);
  EXPECT_NEAR(stats.avg_ratings_per_user, 8.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.density, 8.0 / 12.0, 1e-12);
  EXPECT_FLOAT_EQ(stats.min_rating, 1.0F);
  EXPECT_FLOAT_EQ(stats.max_rating, 5.0F);
  EXPECT_EQ(stats.num_distinct_rating_values, 5u);  // {1,2,3,4,5}
  EXPECT_EQ(stats.min_ratings_per_user, 2u);
  EXPECT_EQ(stats.max_ratings_per_user, 3u);
}

TEST(Stats, FormatMentionsEveryNumber) {
  const auto s = FormatStats(ComputeStats(SmallMatrix()));
  EXPECT_NE(s.find("No. of Users"), std::string::npos);
  EXPECT_NE(s.find("3"), std::string::npos);
  EXPECT_NE(s.find("Density"), std::string::npos);
}

}  // namespace
}  // namespace cfsf::matrix
