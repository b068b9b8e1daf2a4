// Fail-point framework — deterministic fault injection for robustness
// tests and CI (ctest label `fault`).
//
// Library code marks the places where the environment can fail — file
// opens, section reads, pool tasks, the online predict path — with
//
//   CFSF_FAILPOINT("model_io.load.read");
//
// In production nothing is armed and the macro costs one relaxed atomic
// load of a process-wide armed count (no lock, no map lookup, no clock).
// Tests and CI arm points through the API or the CFSF_FAILPOINTS
// environment variable; an armed point that trips throws InjectedFault
// (an util::IoError), which the regular error paths — ckpt::Recover's
// checkpoint ladder, ThreadPool::Wait, robust::FallbackPredictor — must
// survive.
//
// Trigger grammar (one per point):
//   always        trip on every evaluation
//   off           registered but never trips
//   once          trip on the first evaluation only (== first:1)
//   first:N       trip on the first N evaluations, pass afterwards
//   after:N       pass the first N evaluations, trip on every one after
//   every:N       trip on each Nth evaluation (N, 2N, 3N, ...)
//   prob:P        trip with probability P per evaluation, P in [0,1];
//                 driven by a per-point util::Rng forked from the
//                 registry seed and the point name, so a fixed seed
//                 yields a bit-identical trip pattern on every run
//
// Environment arming (read once, during static initialization):
//   CFSF_FAILPOINTS="name=trigger;name2=trigger2"
//   CFSF_FAILPOINTS_SEED=12345        (optional, for prob: points)
//
// docs/ROBUSTNESS.md lists every named failpoint the stack defines.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace cfsf::obs {

/// Thrown by a tripped failpoint.  Derives from IoError: injected faults
/// model environmental failures, so everything that tolerates a bad disk
/// or a torn file must tolerate these too.
class InjectedFault : public util::IoError {
 public:
  explicit InjectedFault(const std::string& what) : util::IoError(what) {}
};

namespace detail {
/// Number of armed failpoints, process-wide.  Read on every
/// CFSF_FAILPOINT evaluation; nonzero only while a test/CI run has
/// points armed.
extern std::atomic<std::size_t> g_armed_count;
}  // namespace detail

class FailPointRegistry {
 public:
  FailPointRegistry() = default;
  FailPointRegistry(const FailPointRegistry&) = delete;
  FailPointRegistry& operator=(const FailPointRegistry&) = delete;

  /// Process-wide registry used by every CFSF_FAILPOINT site.  The first
  /// call arms from the CFSF_FAILPOINTS environment (malformed env specs
  /// are logged and skipped, never fatal); a static initializer in
  /// failpoint.cpp forces that first call before main(), so env arming
  /// is visible to the macro's AnyArmed() fast path from the start.
  static FailPointRegistry& Global();

  /// True when any point is armed anywhere; the macro's fast-path gate.
  static bool AnyArmed() {
    return detail::g_armed_count.load(std::memory_order_relaxed) != 0;
  }

  /// Arms (or re-arms) one point.  Throws ConfigError on a malformed
  /// trigger spec.  Re-arming resets the point's hit/trip counts and
  /// re-forks its RNG from the current seed.
  void Arm(const std::string& name, const std::string& spec)
      CFSF_EXCLUDES(mutex_);

  /// Arms a semicolon-separated list: "a=always;b=prob:0.1".
  void ArmMany(const std::string& multi_spec) CFSF_EXCLUDES(mutex_);

  /// Reads CFSF_FAILPOINTS / CFSF_FAILPOINTS_SEED and arms accordingly.
  /// Malformed entries are logged (warn) and skipped.  Returns the
  /// number of points armed.
  std::size_t ArmFromEnv() CFSF_EXCLUDES(mutex_);

  void Disarm(const std::string& name) CFSF_EXCLUDES(mutex_);
  void DisarmAll() CFSF_EXCLUDES(mutex_);

  /// Seed for prob: points armed *after* this call (Arm re-forks).
  void SetSeed(std::uint64_t seed) CFSF_EXCLUDES(mutex_);

  /// Evaluates the point: counts the hit and throws InjectedFault when
  /// the trigger fires.  Unarmed names pass through untouched.  Called
  /// via the CFSF_FAILPOINT macro, which gates on AnyArmed() first.
  void MaybeTrip(std::string_view name) CFSF_EXCLUDES(mutex_);

  /// Diagnostics (0 for unknown names).
  std::uint64_t HitCount(std::string_view name) const CFSF_EXCLUDES(mutex_);
  std::uint64_t TripCount(std::string_view name) const CFSF_EXCLUDES(mutex_);
  std::vector<std::string> ArmedNames() const CFSF_EXCLUDES(mutex_);

 private:
  enum class Mode { kAlways, kOff, kFirst, kAfter, kEvery, kProb };

  struct Point {
    Mode mode = Mode::kOff;
    std::uint64_t n = 0;        // parameter of first:/after:/every:
    double probability = 0.0;   // parameter of prob:
    util::Rng rng;              // prob: stream, forked per point
    std::uint64_t hits = 0;
    std::uint64_t trips = 0;
  };

  static Point ParseSpec(const std::string& name, const std::string& spec,
                         std::uint64_t seed);

  /// Read-only lookup for the diagnostics accessors; nullptr for
  /// unknown names.  Caller must hold mutex_ (compiler-enforced).
  const Point* FindLocked(std::string_view name) const
      CFSF_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::map<std::string, Point, std::less<>> points_ CFSF_GUARDED_BY(mutex_);
  std::uint64_t seed_ CFSF_GUARDED_BY(mutex_) =
      0x5EEDF417;  // default; override via SetSeed/env
};

/// RAII arming for tests: arms in the constructor, disarms on scope exit.
class ScopedFailPoint {
 public:
  ScopedFailPoint(std::string name, const std::string& spec)
      : name_(std::move(name)) {
    FailPointRegistry::Global().Arm(name_, spec);
  }
  ~ScopedFailPoint() { FailPointRegistry::Global().Disarm(name_); }
  ScopedFailPoint(const ScopedFailPoint&) = delete;
  ScopedFailPoint& operator=(const ScopedFailPoint&) = delete;

 private:
  std::string name_;
};

}  // namespace cfsf::obs

/// Marks an injectable failure site.  Free when nothing is armed (one
/// relaxed atomic load); throws obs::InjectedFault when the named
/// point's trigger fires.
#define CFSF_FAILPOINT(name)                                      \
  do {                                                            \
    if (::cfsf::obs::FailPointRegistry::AnyArmed()) {          \
      ::cfsf::obs::FailPointRegistry::Global().MaybeTrip(name); \
    }                                                             \
  } while (0)
