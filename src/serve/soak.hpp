// Chaos soak driver — hammers a ServingStack with concurrent clients
// through calm → chaos → recovery phases and reports whether the
// resilience invariants held.
//
// One SoakRunner is shared by the chaos test (tests/serve_test.cpp), the
// `cfsf_cli serve-bench` subcommand, and the serving benchmark, so the
// three agree on what "healthy under fire" means:
//
//   phase 1  calm     baseline traffic, breaker closed, full fusion
//   phase 2  chaos    the configured failpoints are armed with prob:P
//                     triggers (deterministic seed); errors mount, the
//                     breaker trips down the ladder
//   phase 3  recovery failpoints disarmed; half-open probes climb the
//                     breaker back up while traffic continues.  The
//                     optional mid_traffic hook runs here on the
//                     coordinator thread — the natural place for a
//                     fold publish to prove a new generation goes live
//                     mid-traffic.
//
// Invariants checked by SoakReport::InvariantFailures:
//   * every request resolved (no stuck clients — the run completing at
//     all is the hang check; ctest's timeout is the backstop)
//   * queue depth never exceeded queue_capacity
//   * every kOk value is finite and inside the rating scale
//   * the status tallies add up to the requests issued
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/serving_stack.hpp"

namespace cfsf::serve {

/// One failpoint armed for the chaos phase.
struct ChaosPoint {
  std::string name;
  double probability = 0.1;  // armed as "prob:P"
};

struct SoakOptions {
  std::size_t num_clients = 8;
  /// Requests each client issues per phase (3 phases).
  std::size_t requests_per_client = 200;
  /// Per-request budget; zero = unlimited.
  std::chrono::microseconds request_budget{0};
  /// Seed of the client query streams (and, via the failpoint registry,
  /// the chaos trip pattern).
  std::uint64_t seed = 0x50AC;
  /// Query space; zero = take the active generation's model dimensions.
  std::size_t num_users = 0;
  std::size_t num_items = 0;
  /// Fraction of requests issued as top-N rankings through the unified
  /// Request API (the rest are single predictions).  Rankings have no
  /// degraded rung, so under chaos they surface kBreakerOpen refusals —
  /// counted in SoakReport::refused, not as errors.
  double topn_fraction = 0.0;
  std::size_t topn_n = 10;
  /// Failpoints armed during the chaos phase only.
  std::vector<ChaosPoint> chaos;
  /// Runs once on the coordinator thread while phase-3 clients are in
  /// flight (e.g. ModelGeneration::Install of the active model folded
  /// with a batch of ratings, the publish a DeltaFolder performs).
  /// Exceptions are swallowed into mid_traffic_failed.
  std::function<void()> mid_traffic;
};

struct SoakReport {
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;   // includes dropped-at-dispatch requests
  /// Clean refusals (breaker_open / deadline_exceeded / not_found /
  /// malformed) — top-N requests meeting a degraded stack land here.
  std::uint64_t refused = 0;
  std::uint64_t overruns = 0;  // kOk answers that noted a deadline overrun
  /// kOk answers by ladder rung (indexed by PredictionRung).
  std::array<std::uint64_t, 4> by_rung{};
  std::size_t max_depth_seen = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_recoveries = 0;
  /// Distinct model generations observed in kOk answers.
  std::uint64_t generations_seen = 0;
  bool mid_traffic_ran = false;
  bool mid_traffic_failed = false;
  bool all_finite = true;

  /// Human-readable list of violated invariants; empty = healthy.
  std::vector<std::string> InvariantFailures(
      std::size_t queue_capacity) const;

  std::string Summary() const;
};

/// Runs the three-phase soak against `stack`.  The stack must already
/// have an active model generation.  Arms/disarms the chaos failpoints
/// through the global registry; leaves them disarmed on return.
SoakReport RunSoak(ServingStack& stack, const SoakOptions& options);

}  // namespace cfsf::serve
