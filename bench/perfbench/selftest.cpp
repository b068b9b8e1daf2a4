// Self-checks of the benchmark's own arithmetic and generators:
//   python3 bench/perfbench/run.py --self-test
// Exit status 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "traffic.hpp"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Dataset SmallDataset() {
  perfbench::Dataset d;
  d.users = 50;
  d.items = 200;
  d.rated.resize(d.users);
  for (std::uint32_t u = 0; u < d.users; ++u) {
    for (std::uint32_t i = u % 7; i < d.items; i += 9) d.rated[u].push_back(i);
  }
  return d;
}

bool SameOps(const std::vector<perfbench::Op>& a, const std::vector<perfbench::Op>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_ns != b[i].due_ns || a[i].kind != b[i].kind ||
        a[i].user != b[i].user || a[i].item != b[i].item || a[i].id != b[i].id ||
        a[i].rating != b[i].rating || a[i].retry != b[i].retry) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace perfbench;

  // The percentile rule: at least ten samples beyond the percentile.
  Expect(HasTail(1000, 99) && !HasTail(999, 99), "p99 needs 1000 samples");
  Expect(HasTail(200, 95) && !HasTail(199, 95), "p95 needs 200 samples");
  Expect(HasTail(20, 50) && !HasTail(19, 50), "p50 needs 20 samples");
  Expect(HasTail(10000, 99.9) && !HasTail(9999, 99.9), "p99.9 needs 10000 samples");
  std::vector<double> ramp;
  for (int i = 1; i <= 101; ++i) ramp.push_back(i);
  Expect(Near(Quantile(ramp, 0.5), 51) && Near(Quantile(ramp, 0.99), 100),
         "quantiles of 1..101 interpolate exactly");
  Expect(Near(Quantile({4, 1, 3, 2}, 0.5), 2.5), "median of an unsorted even set");

  // Span self time: a span minus its direct children, never grandchildren.
  Trace trace;
  const int http = trace.Add("http", 0, 100'000, -1, 7);
  const int handle = trace.Add("net.handle", 10'000, 70'000, http, 7);
  trace.Add("serve.submit", 12'000, 15'000, handle, 7);
  const int await = trace.Add("serve.await", 15'000, 60'000, handle, 7);
  const int ladder = trace.Add("robust.ladder", 0, 30'000, await, 7);
  const int fusion = trace.Add("core.predict", 0, 25'000, ladder, 7);
  Expect(Near(trace.SelfUs(http), 40.0), "http self = 100 - 60 us");
  Expect(Near(trace.SelfUs(handle), 12.0), "handle self = 60 - 3 - 45 us");
  Expect(Near(trace.SelfUs(await), 15.0), "await self = 45 - 30 us");
  Expect(Near(trace.SelfUs(ladder), 5.0), "ladder self = 30 - 25 us");
  Expect(Near(trace.SelfUs(fusion), 25.0), "a leaf's self time is its duration");

  // Seed determinism of the Zipf and rating generators.
  const ZipfSampler z1(500, 1.0, 42), z2(500, 1.0, 42), z3(500, 1.0, 43);
  Rng r1(9), r2(9), r3(9);
  std::vector<std::uint32_t> a, b, c;
  std::vector<int> counts(500, 0);
  for (int k = 0; k < 20000; ++k) {
    a.push_back(z1.Sample(r1));
    b.push_back(z2.Sample(r2));
    c.push_back(z3.Sample(r3));
    ++counts[a.back()];
  }
  Expect(a == b, "same seed, same Zipf draws");
  Expect(a != c, "another seed permutes the hot users");
  int top = 0;
  for (const int n : counts) top = std::max(top, n);
  // Zipf(1) over 500 ranks gives the top rank 1/H(500) ≈ 14.7 %.
  Expect(top > 2400 && top < 3500, "the hottest user draws about 1/H(500) of requests");

  const Dataset data = SmallDataset();
  const RequestGen g1(data, 1.0, 5), g2(data, 1.0, 5), g3(data, 1.0, 6);
  const Mix mix{20, 100};
  Expect(SameOps(ReadSchedule(g1, 11, 1000, 2, mix), ReadSchedule(g2, 11, 1000, 2, mix)),
         "same seed, same read schedule");
  Expect(!SameOps(ReadSchedule(g1, 11, 1000, 2, mix), ReadSchedule(g3, 12, 1000, 2, mix)),
         "another seed, another read schedule");
  {
    std::size_t batches = 0, topns = 0;
    for (const Op& op : ReadSchedule(g1, 11, 1000, 10, mix)) {
      batches += op.kind == Kind::kBatch ? 1 : 0;
      topns += op.kind == Kind::kTopN ? 1 : 0;
    }
    Expect(batches == 500 && topns == 100, "exactly 5 % batches and 1 % top-n");
  }
  std::vector<Op> rates1, rates2;
  Rng q1(3), q2(3);
  std::size_t unrated = 0, retries = 0;
  for (std::uint64_t n = 0; n < 2000; ++n) {
    rates1.push_back(g1.NextRate(q1, 3.0, n));
    rates2.push_back(g2.NextRate(q2, 3.0, n));
    unrated += data.Rated(rates1.back().user, rates1.back().item) ? 0 : 1;
    retries += rates1.back().retry ? 1 : 0;
  }
  Expect(SameOps(rates1, rates2), "same seed, same ratings");
  Expect(unrated > 1700 && unrated < 1900, "about 90 % of ratings target unrated cells");
  Expect(retries > 30 && retries < 100, "about 3 % of ratings are re-sent");
  bool in_scale = true;
  for (const Op& op : rates1) in_scale = in_scale && op.rating >= 1 && op.rating <= 5;
  Expect(in_scale, "ratings are on the 1-5 scale");

  std::printf("%s\n", failures == 0 ? "all self-checks passed" : "self-checks FAILED");
  return failures == 0 ? 0 : 1;
}
