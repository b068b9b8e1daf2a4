#include "traffic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

namespace perfbench {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kPredict: return "predict";
    case Kind::kBatch: return "batch";
    case Kind::kTopN: return "topn";
    case Kind::kRate: return "rate";
    case Kind::kHealthz: return "healthz";
  }
  return "?";
}

bool Dataset::Rated(std::uint32_t user, std::uint32_t item) const {
  const auto& row = rated.at(user);
  return std::binary_search(row.begin(), row.end(), item);
}

RequestGen::RequestGen(const Dataset& data, double zipf_exponent,
                       std::uint64_t seed)
    : data_(data), users_(data.users, zipf_exponent, StreamSeed(seed, 1)) {}

Op RequestGen::NextRead(Rng& rng, const Mix& mix, std::size_t index) const {
  Op op;
  op.kind = mix.topn_every > 0 && index % mix.topn_every == mix.topn_every - 1
                ? Kind::kTopN
            : index % mix.batch_every == mix.batch_every / 2 - 1 ? Kind::kBatch
                                                                 : Kind::kPredict;
  op.user = users_.Sample(rng);
  op.item = static_cast<std::uint32_t>(rng.Below(data_.items));
  op.id = rng.Next();
  return op;
}

Op RequestGen::NextRate(Rng& rng, double retry_pct,
                        std::uint64_t request_id) const {
  Op op;
  op.kind = Kind::kRate;
  op.user = users_.Sample(rng);
  const bool to_unrated = rng.Uniform() < 0.9;
  const auto& row = data_.rated.at(op.user);
  if (!to_unrated && !row.empty()) {
    op.item = row[rng.Below(row.size())];
  } else {
    do {
      op.item = static_cast<std::uint32_t>(rng.Below(data_.items));
    } while (data_.Rated(op.user, op.item));
  }
  op.rating = static_cast<std::uint8_t>(1 + rng.Below(5));
  op.retry = rng.Uniform() * 100.0 < retry_pct;
  op.id = request_id;
  return op;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> BatchQueries(
    const Op& op, std::size_t items) {
  Rng rng(op.id);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> queries;
  queries.reserve(kBatchSize);
  for (std::size_t i = 0; i < kBatchSize; ++i) {
    queries.emplace_back(op.user, static_cast<std::uint32_t>(rng.Below(items)));
  }
  return queries;
}

std::vector<Op> ReadSchedule(const RequestGen& gen, std::uint64_t seed,
                             double rate, double seconds, const Mix& mix) {
  const auto count = static_cast<std::size_t>(rate * seconds);
  std::vector<Op> ops;
  ops.reserve(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    Op op = gen.NextRead(rng, mix, i);
    op.due_ns = static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
    ops.push_back(op);
  }
  return ops;
}

std::string RequestBytes(const Op& op, std::size_t items) {
  switch (op.kind) {
    case Kind::kPredict:
      return BuildRequest("POST", "/v1/predict",
                          "{\"user\":" + std::to_string(op.user) +
                              ",\"item\":" + std::to_string(op.item) + "}");
    case Kind::kBatch: {
      std::string body = "{\"queries\":[";
      bool first = true;
      for (const auto& [u, i] : BatchQueries(op, items)) {
        if (!first) body += ',';
        first = false;
        body += '[' + std::to_string(u) + ',' + std::to_string(i) + ']';
      }
      body += "]}";
      return BuildRequest("POST", "/v1/predict-batch", body);
    }
    case Kind::kTopN:
      return BuildRequest("GET",
                          "/v1/top-n?user=" + std::to_string(op.user) +
                              "&n=" + std::to_string(kTopN),
                          "");
    case Kind::kRate:
      return BuildRequest(
          "POST", "/v1/rate",
          "{\"user\":" + std::to_string(op.user) +
              ",\"item\":" + std::to_string(op.item) +
              ",\"rating\":" + std::to_string(op.rating) + "}",
          "X-CFSF-Request-Id: perfbench-" + std::to_string(op.id) + "\r\n");
    case Kind::kHealthz:
      return BuildRequest("GET", "/healthz", "");
  }
  return {};
}

namespace {

bool Fail(Result& r, std::string why) {
  r.checked = false;
  r.ok = false;
  if (r.failure.empty()) r.failure = std::move(why);
  return false;
}

// Every prediction is finite, on the 1-5 scale, on the full rung, and
// answers the queries in order.
bool CheckPredictions(
    std::string_view body,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& queries,
    Result& r) {
  std::size_t pos = FindKey(body, "predictions");
  if (pos == std::string_view::npos) return Fail(r, "no predictions");
  std::size_t n = 0;
  for (;; ++n) {
    const std::size_t user_at = FindKey(body, "user", pos);
    if (user_at == std::string_view::npos) break;
    const auto user = NumberField(body, "user", pos);
    const auto item = NumberField(body, "item", user_at);
    const auto value = NumberField(body, "value", user_at);
    const auto rung = StringField(body, "rung", user_at);
    if (n >= queries.size()) return Fail(r, "more answers than queries");
    if (!user || !item ||
        static_cast<std::uint32_t>(*user) != queries[n].first ||
        static_cast<std::uint32_t>(*item) != queries[n].second) {
      return Fail(r, "answer out of order");
    }
    if (!value || !std::isfinite(*value) || *value < 1.0 || *value > 5.0) {
      return Fail(r, "prediction not finite in [1, 5]");
    }
    if (!rung || *rung != "full") return Fail(r, "answer below the full rung");
    pos = FindKey(body, "deadline_overrun", user_at);
    if (pos == std::string_view::npos) return Fail(r, "truncated prediction");
  }
  if (n != queries.size()) return Fail(r, "missing answers");
  return true;
}

// At most n distinct unrated items, finite, score-descending.  Scores are
// unclamped ranking scores, so they are not bounded to 1-5.
bool CheckTopN(std::string_view body, std::uint32_t user, const Dataset& data,
               Result& r) {
  std::size_t pos = FindKey(body, "ranked");
  if (pos == std::string_view::npos) return Fail(r, "no ranking");
  std::set<std::uint32_t> seen;
  double last = INFINITY;
  for (;;) {
    const std::size_t item_at = FindKey(body, "item", pos);
    if (item_at == std::string_view::npos) break;
    const auto item = NumberField(body, "item", pos);
    const auto score = NumberField(body, "score", item_at);
    if (!item || !score || !std::isfinite(*score)) {
      return Fail(r, "ranking entry not finite");
    }
    const auto id = static_cast<std::uint32_t>(*item);
    if (!seen.insert(id).second) return Fail(r, "duplicate ranked item");
    if (data.Rated(user, id)) return Fail(r, "ranked an already rated item");
    if (*score > last) return Fail(r, "ranking not score-descending");
    last = *score;
    pos = FindKey(body, "score", item_at);
  }
  if (seen.size() > kTopN) return Fail(r, "more than n ranked items");
  return true;
}

}  // namespace

void CheckAnswer(const Op& op, const HttpClient::Reply& reply,
                 const Dataset& data, Result& r) {
  const int want = op.kind == Kind::kRate ? 202 : 200;
  if (reply.status != want) {
    r.failure = "HTTP " + std::to_string(reply.status);
    return;
  }
  r.ok = true;
  switch (op.kind) {
    case Kind::kPredict:
      CheckPredictions(reply.body, {{op.user, op.item}}, r);
      break;
    case Kind::kBatch:
      CheckPredictions(reply.body, BatchQueries(op, data.items), r);
      break;
    case Kind::kTopN:
      CheckTopN(reply.body, op.user, data, r);
      break;
    case Kind::kRate: {
      const auto lsn = NumberField(reply.body, "lsn");
      if (!lsn || *lsn < 1) {
        Fail(r, "ack without an lsn");
        break;
      }
      if (BoolField(reply.body, "deduplicated") != false) {
        Fail(r, "first send answered as a duplicate");
      }
      r.lsn = static_cast<std::uint64_t>(*lsn);
      break;
    }
    case Kind::kHealthz: {
      const auto watermark = NumberField(reply.body, "fold_watermark");
      r.lsn = watermark ? static_cast<std::uint64_t>(*watermark) : 0;
      break;
    }
  }
}

namespace {

// A retried rating is re-sent after its ack, as a client would after a
// timeout: the same request id must return the original lsn, deduplicated.
void CheckRetry(const HttpClient::Reply& again, Result& r) {
  r.retry_ok = again.status == 202 &&
               BoolField(again.body, "deduplicated") == true &&
               NumberField(again.body, "lsn") == static_cast<double>(r.lsn);
  if (!r.retry_ok) Fail(r, "retry not deduplicated to its original lsn");
}

}  // namespace

void Execute(HttpClient& conn, const Op& op, const Dataset& data,
             Result& r) {
  const std::string bytes = RequestBytes(op, data.items);
  HttpClient::Reply reply;
  r.send_ns = NowNs();
  const bool answered = conn.Exchange(bytes, &reply);
  r.done_ns = NowNs();
  if (!answered) {
    r.failure = "connection error";
    return;
  }
  CheckAnswer(op, reply, data, r);
  if (op.kind == Kind::kRate && op.retry && r.ok) {
    HttpClient::Reply again;
    if (conn.Exchange(bytes, &again)) {
      CheckRetry(again, r);
    } else {
      r.retry_ok = false;
      Fail(r, "retry got no answer");
    }
  }
}

void Count(Tallies& tallies, const std::string& kind, const Result& result) {
  Tally& t = tallies[kind];
  ++t.attempted;
  if (result.ok) {
    ++t.ok;
  } else {
    ++t.failed;
  }
  if (!result.checked) ++t.check_failures;
}

void RunOpenLoop(std::vector<HttpClient>& conns, const std::vector<Op>& ops,
                 std::int64_t start_ns, const Dataset& data,
                 std::vector<Result>& results, ProbeStream* probe) {
  struct Slot {
    std::size_t op = SIZE_MAX;  // in flight; SIZE_MAX when idle
    bool retrying = false;
    std::int64_t idle_since = 0;
    std::string bytes;
  };
  results.assign(ops.size(), Result{});
  std::vector<Slot> slots(conns.size());
  for (Slot& slot : slots) slot.idle_since = start_ns;
  std::size_t next = 0;
  std::size_t answered = 0;

  Result probe_result;
  bool probe_busy = false;
  bool probe_done = probe == nullptr;
  std::int64_t probe_idle_since = start_ns;
  std::int64_t probe_due = start_ns;
  const std::string probe_bytes =
      probe != nullptr ? RequestBytes(probe->op, data.items) : std::string();

  auto finish = [&](Slot& slot, std::int64_t now) {
    slot.op = SIZE_MAX;
    slot.retrying = false;
    slot.idle_since = now;
    ++answered;
  };
  HttpClient::Reply reply;
  while (answered < ops.size() || !probe_done) {
    const std::int64_t now = NowNs();
    // Due ops go out on idle connections, in schedule order.
    for (std::size_t c = 0; c < slots.size() && next < ops.size(); ++c) {
      Slot& slot = slots[c];
      if (slot.op != SIZE_MAX || start_ns + ops[next].due_ns > now) continue;
      Result& r = results[next];
      r.due_ns = start_ns + ops[next].due_ns;
      r.ready_ns = std::max(r.due_ns, slot.idle_since);
      slot.bytes = RequestBytes(ops[next], data.items);
      slot.op = next++;
      r.send_ns = NowNs();
      if (!conns[c].Send(slot.bytes)) {
        r.done_ns = r.send_ns;
        r.failure = "connection error";
        finish(slot, r.send_ns);
      }
    }
    if (!probe_done && !probe_busy && probe_due <= now) {
      probe_result = Result{};
      probe_result.due_ns = probe_due;
      probe_result.ready_ns = std::max(probe_due, probe_idle_since);
      probe_result.send_ns = NowNs();
      probe_busy = probe->conn->Send(probe_bytes);
      probe_due += probe->interval_ns;
      if (!probe_busy) {
        probe_result.done_ns = probe_result.send_ns;
        probe_result.failure = "connection error";
        probe->results.push_back(probe_result);
        probe_done = answered == ops.size() && probe->stop(probe_result);
      }
    }
    // Poll every connection with a request in flight.
    for (std::size_t c = 0; c < slots.size(); ++c) {
      Slot& slot = slots[c];
      if (slot.op == SIZE_MAX) continue;
      const int got = conns[c].Receive(&reply);
      if (got == 0) continue;
      const std::int64_t at = NowNs();
      const Op& op = ops[slot.op];
      Result& r = results[slot.op];
      if (got < 0) {
        if (!slot.retrying) r.done_ns = at;
        r.ok = false;
        r.failure = "connection error";
      } else if (slot.retrying) {
        CheckRetry(reply, r);
      } else {
        r.done_ns = at;
        CheckAnswer(op, reply, data, r);
        if (op.kind == Kind::kRate && op.retry && r.ok) {
          slot.retrying = conns[c].Send(slot.bytes);
          if (slot.retrying) continue;
          Fail(r, "retry not sent");
        }
      }
      finish(slot, at);
    }
    if (probe_busy) {
      const int got = probe->conn->Receive(&reply);
      if (got != 0) {
        probe_result.done_ns = NowNs();
        if (got > 0) {
          CheckAnswer(probe->op, reply, data, probe_result);
        } else {
          probe_result.failure = "connection error";
        }
        probe->results.push_back(probe_result);
        probe_busy = false;
        probe_idle_since = probe_result.done_ns;
        probe_done = answered == ops.size() && probe->stop(probe_result);
      }
    }
  }
}

void RunClosedLoop(std::vector<HttpClient>& conns, double seconds,
                   std::uint64_t seed,
                   const std::function<Op(Rng&, std::size_t)>& next,
                   const Dataset& data,
                   std::vector<std::pair<Op, Result>>& results) {
  results.clear();
  Rng rng(seed);
  const std::int64_t end_ns = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::size_t> in_flight(conns.size(), SIZE_MAX);
  std::size_t busy = 0;
  HttpClient::Reply reply;
  for (;;) {
    const std::int64_t now = NowNs();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (in_flight[c] != SIZE_MAX || now >= end_ns) continue;
      Op op = next(rng, results.size());
      Result r;
      r.due_ns = r.ready_ns = r.send_ns = NowNs();
      if (!conns[c].Send(RequestBytes(op, data.items))) {
        r.done_ns = r.send_ns;
        r.failure = "connection error";
        results.emplace_back(op, r);
        continue;
      }
      in_flight[c] = results.size();
      results.emplace_back(op, r);
      ++busy;
    }
    if (busy == 0 && now >= end_ns) return;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (in_flight[c] == SIZE_MAX) continue;
      const int got = conns[c].Receive(&reply);
      if (got == 0) continue;
      auto& [op, r] = results[in_flight[c]];
      r.done_ns = NowNs();
      if (got > 0) {
        CheckAnswer(op, reply, data, r);
      } else {
        r.failure = "connection error";
      }
      in_flight[c] = SIZE_MAX;
      --busy;
    }
  }
}

}  // namespace perfbench
