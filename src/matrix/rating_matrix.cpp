#include "matrix/rating_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/error.hpp"

namespace cfsf::matrix {

namespace {

void RequireFinite(UserId user, ItemId item, Rating value) {
  if (!std::isfinite(value)) {
    throw util::DimensionError("non-finite rating for user " +
                               std::to_string(user) + ", item " +
                               std::to_string(item));
  }
}

/// Sorts by (user, item) and keeps the *last* triple of each cell, so a
/// later duplicate supersedes an earlier one.
void SortKeepLast(std::vector<RatingTriple>& triples) {
  std::stable_sort(triples.begin(), triples.end(),
                   [](const RatingTriple& a, const RatingTriple& b) {
                     return a.user != b.user ? a.user < b.user : a.item < b.item;
                   });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < triples.size(); ++i) {
    if (i + 1 < triples.size() && triples[i + 1].user == triples[i].user &&
        triples[i + 1].item == triples[i].item) {
      continue;  // superseded by a later duplicate
    }
    triples[kept++] = triples[i];
  }
  triples.resize(kept);
}

/// One compressed index (CSR or CSC) with its optional timestamps.
struct CompressedIndex {
  std::vector<std::size_t> ptr;
  std::vector<Entry> entries;
  std::vector<Timestamp> stamps;
};

/// Merges `fresh` into the compressed index (ptr, entries) in one linear
/// pass, giving an index of `rows` rows; a row past the end of `ptr`
/// reads as empty.  `fresh` must be sorted by (major, minor) with one
/// triple per cell; `major(t)` names the row a triple lands in and
/// `minor(t)` its index there.  A fresh triple replaces the stored entry
/// of its cell.  With `with_stamps`, the result carries timestamps
/// aligned with its entries: `stamps` for kept entries (all zero when
/// `stamps` is empty), the triple's own for fresh ones.
template <typename Major, typename Minor>
CompressedIndex MergeIndex(std::size_t rows,
                           const std::vector<std::size_t>& ptr,
                           const std::vector<Entry>& entries,
                           const std::vector<Timestamp>& stamps,
                           bool with_stamps,
                           std::span<const RatingTriple> fresh, Major major,
                           Minor minor) {
  CompressedIndex out;
  out.ptr.assign(rows + 1, 0);
  out.entries.reserve(entries.size() + fresh.size());
  if (with_stamps) out.stamps.reserve(entries.size() + fresh.size());
  const auto keep = [&](std::size_t from, std::size_t to) {
    out.entries.insert(out.entries.end(), entries.begin() + from,
                       entries.begin() + to);
    if (!with_stamps) return;
    if (stamps.empty()) {
      out.stamps.resize(out.stamps.size() + (to - from), 0);
    } else {
      out.stamps.insert(out.stamps.end(), stamps.begin() + from,
                        stamps.begin() + to);
    }
  };
  const auto row_start = [&](std::size_t r) {
    return r < ptr.size() ? ptr[r] : entries.size();
  };
  std::size_t next = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t k = row_start(r);
    const std::size_t end = row_start(r + 1);
    for (; next < fresh.size() && major(fresh[next]) == r; ++next) {
      const RatingTriple& t = fresh[next];
      const std::uint32_t index = minor(t);
      const auto stop = std::lower_bound(
          entries.begin() + k, entries.begin() + end, index,
          [](const Entry& e, std::uint32_t target) { return e.index < target; });
      const auto at = static_cast<std::size_t>(stop - entries.begin());
      keep(k, at);
      k = at < end && entries[at].index == index ? at + 1 : at;
      out.entries.push_back(Entry{index, t.value});
      if (with_stamps) out.stamps.push_back(t.timestamp);
    }
    keep(k, end);
    out.ptr[r + 1] = out.entries.size();
  }
  return out;
}

}  // namespace

RatingMatrixBuilder::RatingMatrixBuilder(std::size_t num_users, std::size_t num_items)
    : num_users_(num_users), num_items_(num_items) {}

void RatingMatrixBuilder::Add(UserId user, ItemId item, Rating value,
                              Timestamp timestamp) {
  if (user >= num_users_) {
    throw util::DimensionError("user id " + std::to_string(user) +
                               " out of range (num_users=" +
                               std::to_string(num_users_) + ")");
  }
  if (item >= num_items_) {
    throw util::DimensionError("item id " + std::to_string(item) +
                               " out of range (num_items=" +
                               std::to_string(num_items_) + ")");
  }
  RequireFinite(user, item, value);
  triples_.push_back(RatingTriple{user, item, value, timestamp});
}

void RatingMatrixBuilder::Add(const RatingTriple& triple) {
  Add(triple.user, triple.item, triple.value, triple.timestamp);
}

RatingMatrix RatingMatrixBuilder::Build() {
  RatingMatrix matrix;
  matrix.num_users_ = num_users_;
  matrix.num_items_ = num_items_;
  matrix.BuildIndexes(std::move(triples_));
  matrix.ComputeMeans();
  triples_.clear();
  return matrix;
}

void RatingMatrix::BuildIndexes(std::vector<RatingTriple>&& triples) {
  SortKeepLast(triples);

  const bool any_timestamp =
      std::any_of(triples.begin(), triples.end(),
                  [](const RatingTriple& t) { return t.timestamp != 0; });

  user_ptr_.assign(num_users_ + 1, 0);
  user_entries_.clear();
  user_entries_.reserve(triples.size());
  if (any_timestamp) {
    user_timestamps_.clear();
    user_timestamps_.reserve(triples.size());
  } else {
    user_timestamps_.clear();
  }
  for (const auto& t : triples) ++user_ptr_[t.user + 1];
  for (std::size_t u = 0; u < num_users_; ++u) user_ptr_[u + 1] += user_ptr_[u];
  for (const auto& t : triples) {
    user_entries_.push_back(Entry{t.item, t.value});
    if (any_timestamp) user_timestamps_.push_back(t.timestamp);
  }

  // CSC: counting sort by item, preserving user order inside each column.
  item_ptr_.assign(num_items_ + 1, 0);
  for (const auto& t : triples) ++item_ptr_[t.item + 1];
  for (std::size_t i = 0; i < num_items_; ++i) item_ptr_[i + 1] += item_ptr_[i];
  item_entries_.assign(triples.size(), Entry{});
  std::vector<std::size_t> cursor(item_ptr_.begin(), item_ptr_.end() - 1);
  for (const auto& t : triples) {
    item_entries_[cursor[t.item]++] = Entry{t.user, t.value};
  }
}

void RatingMatrix::ComputeMeans() {
  double total = 0.0;
  for (const auto& e : user_entries_) total += e.value;
  global_mean_ = user_entries_.empty()
                     ? 0.0
                     : total / static_cast<double>(user_entries_.size());

  user_means_.assign(num_users_, global_mean_);
  for (std::size_t u = 0; u < num_users_; ++u) {
    const auto row = UserRow(static_cast<UserId>(u));
    if (row.empty()) continue;
    double sum = 0.0;
    for (const auto& e : row) sum += e.value;
    user_means_[u] = sum / static_cast<double>(row.size());
  }

  item_means_.assign(num_items_, global_mean_);
  for (std::size_t i = 0; i < num_items_; ++i) {
    const auto col = ItemCol(static_cast<ItemId>(i));
    if (col.empty()) continue;
    double sum = 0.0;
    for (const auto& e : col) sum += e.value;
    item_means_[i] = sum / static_cast<double>(col.size());
  }
}

double RatingMatrix::Density() const {
  const double cells =
      static_cast<double>(num_users_) * static_cast<double>(num_items_);
  return cells == 0.0 ? 0.0 : static_cast<double>(num_ratings()) / cells;
}

std::span<const Entry> RatingMatrix::UserRow(UserId user) const {
  CFSF_ASSERT(user < num_users_, "user id out of range");
  return {user_entries_.data() + user_ptr_[user],
          user_ptr_[user + 1] - user_ptr_[user]};
}

std::span<const Entry> RatingMatrix::ItemCol(ItemId item) const {
  CFSF_ASSERT(item < num_items_, "item id out of range");
  return {item_entries_.data() + item_ptr_[item],
          item_ptr_[item + 1] - item_ptr_[item]};
}

std::span<const Timestamp> RatingMatrix::UserRowTimestamps(UserId user) const {
  CFSF_ASSERT(user < num_users_, "user id out of range");
  if (user_timestamps_.empty()) return {};
  return {user_timestamps_.data() + user_ptr_[user],
          user_ptr_[user + 1] - user_ptr_[user]};
}

std::optional<Rating> RatingMatrix::GetRating(UserId user, ItemId item) const {
  const auto row = UserRow(user);
  const auto it = std::lower_bound(
      row.begin(), row.end(), item,
      [](const Entry& e, ItemId target) { return e.index < target; });
  if (it == row.end() || it->index != item) return std::nullopt;
  return it->value;
}

double RatingMatrix::UserMean(UserId user) const {
  CFSF_ASSERT(user < num_users_, "user id out of range");
  return user_means_[user];
}

double RatingMatrix::ItemMean(ItemId item) const {
  CFSF_ASSERT(item < num_items_, "item id out of range");
  return item_means_[item];
}

void RatingMatrix::DebugValidate() const {
  CFSF_VALIDATE(user_ptr_.size() == num_users_ + 1, "CSR pointer array size");
  CFSF_VALIDATE(item_ptr_.size() == num_items_ + 1, "CSC pointer array size");
  CFSF_VALIDATE(user_ptr_.front() == 0 && item_ptr_.front() == 0,
                "index pointer arrays must start at 0");
  CFSF_VALIDATE(user_ptr_.back() == user_entries_.size(),
                "CSR pointer array must end at the entry count");
  CFSF_VALIDATE(item_ptr_.back() == item_entries_.size(),
                "CSC pointer array must end at the entry count");
  CFSF_VALIDATE(user_entries_.size() == item_entries_.size(),
                "CSR and CSC must hold the same ratings");
  CFSF_VALIDATE(
      user_timestamps_.empty() || user_timestamps_.size() == user_entries_.size(),
      "timestamps must align 1:1 with CSR entries");
  CFSF_VALIDATE(user_means_.size() == num_users_, "user mean table size");
  CFSF_VALIDATE(item_means_.size() == num_items_, "item mean table size");
  CFSF_VALIDATE(std::isfinite(global_mean_), "global mean must be finite");

  for (std::size_t u = 0; u < num_users_; ++u) {
    CFSF_VALIDATE(user_ptr_[u] <= user_ptr_[u + 1],
                  "CSR pointers must be monotone");
    CFSF_VALIDATE(std::isfinite(user_means_[u]), "user mean must be finite");
    const auto row = UserRow(static_cast<UserId>(u));
    for (std::size_t k = 0; k < row.size(); ++k) {
      CFSF_VALIDATE(row[k].index < num_items_, "item id out of range in CSR");
      CFSF_VALIDATE(std::isfinite(row[k].value), "non-finite rating in CSR");
      CFSF_VALIDATE(k == 0 || row[k - 1].index < row[k].index,
                    "user row must be strictly item-sorted");
    }
  }
  for (std::size_t i = 0; i < num_items_; ++i) {
    CFSF_VALIDATE(item_ptr_[i] <= item_ptr_[i + 1],
                  "CSC pointers must be monotone");
    CFSF_VALIDATE(std::isfinite(item_means_[i]), "item mean must be finite");
    const auto col = ItemCol(static_cast<ItemId>(i));
    for (std::size_t k = 0; k < col.size(); ++k) {
      CFSF_VALIDATE(col[k].index < num_users_, "user id out of range in CSC");
      CFSF_VALIDATE(std::isfinite(col[k].value), "non-finite rating in CSC");
      CFSF_VALIDATE(k == 0 || col[k - 1].index < col[k].index,
                    "item column must be strictly user-sorted");
      // Dual-index agreement: the CSC cell must be findable in the CSR view
      // with the identical value.
      const auto csr = GetRating(col[k].index, static_cast<ItemId>(i));
      CFSF_VALIDATE(csr.has_value() && *csr == col[k].value,
                    "CSC entry missing from or disagreeing with CSR");
    }
  }
}

std::vector<RatingTriple> RatingMatrix::ToTriples() const {
  std::vector<RatingTriple> triples;
  triples.reserve(num_ratings());
  for (std::size_t u = 0; u < num_users_; ++u) {
    const auto row = UserRow(static_cast<UserId>(u));
    const auto ts = UserRowTimestamps(static_cast<UserId>(u));
    for (std::size_t k = 0; k < row.size(); ++k) {
      triples.push_back(RatingTriple{static_cast<UserId>(u), row[k].index,
                                     row[k].value,
                                     ts.empty() ? 0 : ts[k]});
    }
  }
  return triples;
}

RatingMatrix RatingMatrix::KeepUserPrefix(std::size_t keep_users) const {
  CFSF_REQUIRE(keep_users <= num_users_,
               "prefix larger than the matrix user count");
  RatingMatrixBuilder builder(keep_users, num_items_);
  for (std::size_t u = 0; u < keep_users; ++u) {
    const auto row = UserRow(static_cast<UserId>(u));
    const auto ts = UserRowTimestamps(static_cast<UserId>(u));
    for (std::size_t k = 0; k < row.size(); ++k) {
      builder.Add(static_cast<UserId>(u), row[k].index, row[k].value,
                  ts.empty() ? 0 : ts[k]);
    }
  }
  return builder.Build();
}

RatingMatrix RatingMatrix::WithRatings(
    std::span<const RatingTriple> ratings) const {
  return WithRatings(ratings, num_users_);
}

RatingMatrix RatingMatrix::WithRatings(std::span<const RatingTriple> ratings,
                                       std::size_t num_users) const {
  CFSF_REQUIRE(num_users >= num_users_, "WithRatings cannot drop users");
  for (const auto& t : ratings) {
    CFSF_REQUIRE(t.user < num_users && t.item < num_items_,
                 "WithRatings ids out of range");
    RequireFinite(t.user, t.item, t.value);
  }
  std::vector<RatingTriple> fresh(ratings.begin(), ratings.end());
  SortKeepLast(fresh);

  // The builder keeps a timestamp array iff some kept timestamp is
  // nonzero; merge one whenever either side may contribute one.
  const bool with_stamps =
      has_timestamps() ||
      std::any_of(fresh.begin(), fresh.end(),
                  [](const RatingTriple& t) { return t.timestamp != 0; });
  RatingMatrix next;
  next.num_users_ = num_users;
  next.num_items_ = num_items_;
  CompressedIndex rows = MergeIndex(
      num_users, user_ptr_, user_entries_, user_timestamps_, with_stamps,
      fresh,
      [](const RatingTriple& t) { return t.user; },
      [](const RatingTriple& t) { return t.item; });
  next.user_ptr_ = std::move(rows.ptr);
  next.user_entries_ = std::move(rows.entries);
  if (std::any_of(rows.stamps.begin(), rows.stamps.end(),
                  [](Timestamp ts) { return ts != 0; })) {
    next.user_timestamps_ = std::move(rows.stamps);
  }

  std::sort(fresh.begin(), fresh.end(),
            [](const RatingTriple& a, const RatingTriple& b) {
              return a.item != b.item ? a.item < b.item : a.user < b.user;
            });
  CompressedIndex cols = MergeIndex(
      num_items_, item_ptr_, item_entries_, {}, false, fresh,
      [](const RatingTriple& t) { return t.item; },
      [](const RatingTriple& t) { return t.user; });
  next.item_ptr_ = std::move(cols.ptr);
  next.item_entries_ = std::move(cols.entries);
  next.ComputeMeans();
  return next;
}

RatingMatrix RatingMatrix::WithRating(UserId user, ItemId item, Rating value,
                                      Timestamp timestamp) const {
  const RatingTriple rating{user, item, value, timestamp};
  return WithRatings({&rating, 1});
}

}  // namespace cfsf::matrix
