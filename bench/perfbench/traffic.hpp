// Seeded request generation, answer checks and the open- and closed-loop
// drivers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "client.hpp"
#include "common.hpp"

namespace perfbench {

enum class Kind : std::uint8_t { kPredict, kBatch, kTopN, kRate, kHealthz };
const char* KindName(Kind kind);

inline constexpr std::size_t kBatchSize = 16;
inline constexpr std::size_t kTopN = 10;

/// One generated request.  `due_ns` is its offset from the phase start
/// (open loop only).
struct Op {
  std::int64_t due_ns = 0;
  Kind kind = Kind::kPredict;
  /// kRate: re-send with the same X-CFSF-Request-Id once acked.
  bool retry = false;
  std::uint8_t rating = 0;
  std::uint32_t user = 0;
  std::uint32_t item = 0;
  /// kBatch: seed of the batch's items; kRate: the rating's request id.
  std::uint64_t id = 0;
};

/// What the generator knows about the served data set: which cells are
/// rated (top-n must skip them; ratings mostly target the others).
struct Dataset {
  std::size_t users = 0;
  std::size_t items = 0;
  std::vector<std::vector<std::uint32_t>> rated;  // per user, ascending
  bool Rated(std::uint32_t user, std::uint32_t item) const;
};

/// Request mix of the read traffic: one batch every `batch_every` requests
/// and one top-n every `topn_every` (0 = none), the rest single predicts.
/// The kinds interleave on this fixed pattern so that expensive requests
/// never cluster by chance; only users and items are drawn at random.
struct Mix {
  std::size_t batch_every = 20;  // 5 %
  std::size_t topn_every = 100;  // 1 %
};

/// Draws requests: users Zipf(exponent) over a seeded permutation, items
/// uniform.  Each Next* call consumes only the given Rng, so a stream of
/// requests is a pure function of that Rng's seed.
class RequestGen {
 public:
  RequestGen(const Dataset& data, double zipf_exponent, std::uint64_t seed);
  /// The `index`-th read of a stream.
  Op NextRead(Rng& rng, const Mix& mix, std::size_t index) const;
  /// A rating: to an unrated cell 90 % of the time, a retry
  /// `retry_pct` % of the time.
  Op NextRate(Rng& rng, double retry_pct, std::uint64_t request_id) const;
  std::uint32_t User(Rng& rng) const { return users_.Sample(rng); }

 private:
  const Dataset& data_;
  ZipfSampler users_;
};

/// The 16 items of batch `op` (derived from op.id).
std::vector<std::pair<std::uint32_t, std::uint32_t>> BatchQueries(
    const Op& op, std::size_t items);

/// Open-loop schedule: `count` reads `1/rate` apart.
std::vector<Op> ReadSchedule(const RequestGen& gen, std::uint64_t seed,
                             double rate, double seconds, const Mix& mix);

/// The outcome of one request.
struct Result {
  std::int64_t due_ns = 0;    // scheduled send time
  std::int64_t ready_ns = 0;  // when an idle connection took it
  std::int64_t send_ns = 0;
  std::int64_t done_ns = 0;
  bool ok = false;        // 2xx and every answer check passed
  bool checked = true;    // false when an answer check failed
  std::uint64_t lsn = 0;  // kRate ack; kHealthz fold_watermark
  bool retry_ok = true;   // kRate with retry: dedup answer was right
  std::string failure;    // why !ok
  double LatencyUs() const { return static_cast<double>(done_ns - due_ns) / 1e3; }
  /// How far the generator itself ran behind schedule.
  double LatenessUs() const {
    return static_cast<double>(send_ns - std::max(due_ns, ready_ns)) / 1e3;
  }
};

/// The wire form of an op.
std::string RequestBytes(const Op& op, std::size_t items);

/// Checks the answer to `op`; fills `result.ok`, `lsn` and `failure`.
void CheckAnswer(const Op& op, const HttpClient::Reply& reply,
                 const Dataset& data, Result& result);

/// Sends `op` on `conn`, busy-polls and checks the answer, fills
/// `result` (including the dedup re-send of a retried rating).
void Execute(HttpClient& conn, const Op& op, const Dataset& data,
             Result& result);

/// Per-kind tallies of attempted / ok / failed requests.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t check_failures = 0;
};
using Tallies = std::map<std::string, Tally>;
void Count(Tallies& tallies, const std::string& kind, const Result& result);

/// A second open-loop stream on its own connection: `op` every
/// `interval_ns` from the start, until `stop` (asked after each answer
/// once the main ops are all answered) returns true.
struct ProbeStream {
  HttpClient* conn = nullptr;
  Op op;
  std::int64_t interval_ns = 0;
  std::function<bool(const Result&)> stop;
  std::vector<Result> results;
};

/// Runs `ops` open loop from the calling thread: each op goes out on an
/// idle connection at its due time (or as soon as one is idle), and the
/// thread busy-polls every connection for answers.  results[i] belongs to
/// ops[i].
void RunOpenLoop(std::vector<HttpClient>& conns, const std::vector<Op>& ops,
                 std::int64_t start_ns, const Dataset& data,
                 std::vector<Result>& results, ProbeStream* probe = nullptr);

/// Closed loop for `seconds`: every connection sends its next request as
/// soon as the previous answer is in.  `next(rng, index)` makes the
/// index-th request.
void RunClosedLoop(std::vector<HttpClient>& conns, double seconds,
                   std::uint64_t seed,
                   const std::function<Op(Rng&, std::size_t)>& next,
                   const Dataset& data,
                   std::vector<std::pair<Op, Result>>& results);

}  // namespace perfbench
