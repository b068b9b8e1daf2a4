// Immutable sparse item–user rating matrix with dual indexes.
//
// The matrix X of the paper (Section III) is stored once in CSR order by
// user (a "user profile" row gives I{u} with ratings) and once in CSC
// order by item (an "item vector" column gives U{i} with ratings).  Both
// views are sorted by index, so row/column intersections — the inner loop
// of every PCC in the paper — run as linear merges.
//
// Per-user means r̄_u, per-item means r̄_i and the global mean are computed
// eagerly at Build() time; they are used by Eqs. 5–10 and 12.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "matrix/types.hpp"

namespace cfsf::matrix {

/// One (index, value) pair inside a row or column.  `index` is an ItemId
/// when iterating a user row and a UserId when iterating an item column.
struct Entry {
  std::uint32_t index = 0;
  Rating value = 0.0F;

  friend bool operator==(const Entry&, const Entry&) = default;
};

class RatingMatrix;

/// Accumulates rating triples and freezes them into a RatingMatrix.
/// Duplicate (user, item) pairs keep the last value added (recommender
/// logs overwrite earlier ratings with re-ratings).
class RatingMatrixBuilder {
 public:
  RatingMatrixBuilder(std::size_t num_users, std::size_t num_items);

  /// Adds one rating; throws DimensionError if ids are out of range.
  void Add(UserId user, ItemId item, Rating value, Timestamp timestamp = 0);
  void Add(const RatingTriple& triple);

  std::size_t pending() const { return triples_.size(); }

  /// Freezes the builder.  The builder is left empty and reusable.
  RatingMatrix Build();

 private:
  std::size_t num_users_;
  std::size_t num_items_;
  std::vector<RatingTriple> triples_;
};

class RatingMatrix {
 public:
  /// Empty matrix (0 users × 0 items); assignable target.
  RatingMatrix() = default;

  std::size_t num_users() const { return num_users_; }
  std::size_t num_items() const { return num_items_; }
  std::size_t num_ratings() const { return user_entries_.size(); }

  /// Fraction of cells that hold a rating (Table I "density").
  double Density() const;

  /// I{u} with ratings: entries sorted by item id.
  std::span<const Entry> UserRow(UserId user) const;

  /// U{i} with ratings: entries sorted by user id.
  std::span<const Entry> ItemCol(ItemId item) const;

  /// Timestamps aligned with UserRow(user); empty span when the dataset
  /// carries no timestamps.
  std::span<const Timestamp> UserRowTimestamps(UserId user) const;

  /// O(log |I{u}|) point lookup.
  std::optional<Rating> GetRating(UserId user, ItemId item) const;
  bool HasRating(UserId user, ItemId item) const { return GetRating(user, item).has_value(); }

  /// r̄_u — mean over the user's rated items; global mean if the user has
  /// no ratings (keeps downstream formulas total).
  double UserMean(UserId user) const;

  /// r̄_i — mean over the item's raters; global mean if unrated.
  double ItemMean(ItemId item) const;

  double GlobalMean() const { return global_mean_; }

  std::size_t UserRatingCount(UserId user) const { return UserRow(user).size(); }
  std::size_t ItemRatingCount(ItemId item) const { return ItemCol(item).size(); }

  bool has_timestamps() const { return !user_timestamps_.empty(); }

  /// Full structural validation sweep: CSR/CSC shape and monotonicity,
  /// per-row/column index sortedness, id ranges, CSR↔CSC entry agreement,
  /// finite ratings and means, timestamp alignment.  Throws
  /// util::InvariantError on the first violation.  O(ratings·log) — called
  /// from tests, and from model construction when CFSF_ENABLE_CHECKS is on.
  void DebugValidate() const;

  /// All ratings as triples in user-major order (test helpers, re-splits).
  std::vector<RatingTriple> ToTriples() const;

  /// Returns a copy restricted to users [0, keep_users) — the paper's
  /// ML_100/ML_200/ML_300 prefix construction.  Item space is unchanged.
  RatingMatrix KeepUserPrefix(std::size_t keep_users) const;

  /// Returns a copy with `ratings` inserted (or overwritten); a later
  /// triple for the same cell wins.  Only the batch is sorted: it is then
  /// merged into the CSR and CSC arrays in one linear pass each, and the
  /// result equals a RatingMatrixBuilder over ToTriples() plus `ratings`,
  /// array for array.  Ids out of range throw ConfigError, a non-finite
  /// value DimensionError.
  RatingMatrix WithRatings(std::span<const RatingTriple> ratings) const;

  /// WithRatings into a result of `num_users` users, at least
  /// num_users(): the rows past the current count start empty, so
  /// `ratings` may also hold user ids in [num_users(), num_users).
  /// Equals a RatingMatrixBuilder(num_users, num_items()) over
  /// ToTriples() plus `ratings`.
  RatingMatrix WithRatings(std::span<const RatingTriple> ratings,
                           std::size_t num_users) const;

  /// WithRatings of one rating.  Used by the online protocol, which
  /// "inserts a record in the item-user matrix" for each active user.
  RatingMatrix WithRating(UserId user, ItemId item, Rating value,
                          Timestamp timestamp = 0) const;

 private:
  friend class RatingMatrixBuilder;

  void BuildIndexes(std::vector<RatingTriple>&& triples);
  void ComputeMeans();

  std::size_t num_users_ = 0;
  std::size_t num_items_ = 0;

  // CSR by user.
  std::vector<std::size_t> user_ptr_;       // size num_users_+1
  std::vector<Entry> user_entries_;         // sorted by (user, item)
  std::vector<Timestamp> user_timestamps_;  // aligned with user_entries_, may be empty

  // CSC by item.
  std::vector<std::size_t> item_ptr_;  // size num_items_+1
  std::vector<Entry> item_entries_;    // sorted by (item, user)

  std::vector<double> user_means_;
  std::vector<double> item_means_;
  double global_mean_ = 0.0;
};

}  // namespace cfsf::matrix
