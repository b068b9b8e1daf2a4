#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

namespace perfbench {

std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t Rng::Next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  rng.Next();
  return rng.Next();
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent, std::uint64_t seed)
    : cdf_(n), ids_(n) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  double total = 0.0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), exponent);
    cdf_[rank] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
  std::iota(ids_.begin(), ids_.end(), 0U);
  Rng rng(seed);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(ids_[i], ids_[rng.Below(i + 1)]);
  }
}

std::uint32_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  return ids_[rank];
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

bool HasTail(std::size_t n, double p) {
  // n·(100 − p)/100 ≥ 10, in integer thousandths of a percent so that
  // p = 99 with n = 1000 is exact.
  const auto beyond_milli = std::llround((100.0 - p) * 1000.0);
  return static_cast<long long>(n) * beyond_milli >= 10LL * 100 * 1000;
}

int Trace::Add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
               int parent, std::uint64_t request) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request});
  children_.emplace_back();
  if (parent >= 0) children_.at(static_cast<std::size_t>(parent)).push_back(index);
  return index;
}

double Trace::DurationUs(int index) const {
  const Span& span = spans_.at(static_cast<std::size_t>(index));
  return static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
}

double Trace::SelfUs(int index) const {
  double self = DurationUs(index);
  for (const int child : children_.at(static_cast<std::size_t>(index))) {
    self -= DurationUs(child);
  }
  return self;
}

void Trace::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
}

}  // namespace perfbench
