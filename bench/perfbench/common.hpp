// Shared pieces of the serving benchmark: clocks, seeded generators,
// percentile statistics and the span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock every timestamp of a
/// run is taken on).
std::int64_t NowNs();

/// SplitMix64.  Small, seedable and identical on every platform, so the
/// same --seed always yields the same traffic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// Independent stream `stream` of run seed `seed`.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

/// Zipf(exponent) over `n` ranks, mapped to ids through a permutation
/// drawn from `seed` (so the hot ids differ between seeds).  exponent 0 is
/// uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent, std::uint64_t seed);
  std::uint32_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> ids_;
};

/// Linearly interpolated quantile, q in [0, 1], of unsorted samples; 0 for
/// an empty set.
double Quantile(std::vector<double> samples, double q);

/// The percentile rule: percentile `p` (0-100) of `n` samples is
/// reportable only with at least ten samples beyond it.
bool HasTail(std::size_t n, double p);

/// One traced call: a layer boundary of one request.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index of the parent span in its Trace, -1 for a root
  std::uint64_t request = 0;
};

/// In-memory span store of the traced run; written out when the run ends.
class Trace {
 public:
  /// Records a finished span; returns its index (the parent handle of the
  /// spans of the next layer down).
  int Add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::uint64_t request);
  /// Span duration minus the durations of its direct children, in
  /// microseconds.  A layer's child is the next layer's call on the same
  /// request, so this is the layer's own time.
  double SelfUs(int index) const;
  double DurationUs(int index) const;
  /// One JSON object per line.
  void WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
};

}  // namespace perfbench
