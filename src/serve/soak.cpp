#include "serve/soak.hpp"

#include <cmath>
#include <set>
#include <sstream>
#include <thread>

#include "obs/failpoint.hpp"
#include "util/rng.hpp"

namespace cfsf::serve {

namespace {

/// Per-client tally, merged single-threaded after the join.
struct ClientTally {
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t refused = 0;
  std::uint64_t overruns = 0;
  std::array<std::uint64_t, 4> by_rung{};
  std::set<std::uint64_t> generations;
  bool all_finite = true;
};

void RunClient(ServingStack& stack, const SoakOptions& options,
               std::size_t num_users, std::size_t num_items,
               util::Rng rng, ClientTally& tally) {
  for (std::size_t i = 0; i < options.requests_per_client; ++i) {
    const auto user = static_cast<matrix::UserId>(rng.NextBounded(num_users));
    const auto item = static_cast<matrix::ItemId>(rng.NextBounded(num_items));
    robust::Deadline deadline;
    if (options.request_budget.count() > 0) {
      deadline = robust::Deadline::After(options.request_budget);
    }
    const bool topn =
        options.topn_fraction > 0.0 &&
        rng.NextBounded(1000) < static_cast<std::uint64_t>(
                                    options.topn_fraction * 1000.0);
    const Response response = stack.ServeSync(
        topn ? Request::TopN(user, options.topn_n, deadline)
             : Request::Predict(user, item, deadline));
    ++tally.issued;
    switch (response.code) {
      case StatusCode::kOk:
        ++tally.ok;
        if (response.deadline_overrun()) ++tally.overruns;
        for (const Prediction& prediction : response.predictions) {
          ++tally.by_rung[static_cast<std::size_t>(prediction.rung)];
          if (!std::isfinite(prediction.value)) tally.all_finite = false;
        }
        for (const RankedItem& ranked : response.ranked) {
          if (!std::isfinite(ranked.score)) tally.all_finite = false;
        }
        tally.generations.insert(response.generation);
        break;
      case StatusCode::kShed: ++tally.shed; break;
      case StatusCode::kRejected: ++tally.rejected; break;
      case StatusCode::kInternal: ++tally.errors; break;
      default: ++tally.refused; break;
    }
  }
}

}  // namespace

std::vector<std::string> SoakReport::InvariantFailures(
    std::size_t queue_capacity) const {
  std::vector<std::string> failures;
  if (max_depth_seen > queue_capacity) {
    failures.push_back("queue depth " + std::to_string(max_depth_seen) +
                       " exceeded capacity " + std::to_string(queue_capacity));
  }
  if (!all_finite) {
    failures.push_back("a served prediction was NaN or infinite");
  }
  if (issued != ok + shed + rejected + errors + refused) {
    failures.push_back("status tallies do not add up to requests issued");
  }
  if (ok == 0) {
    failures.push_back("no request succeeded at all");
  }
  if (mid_traffic_failed) {
    failures.push_back("the mid-traffic hook (fold publish) threw");
  }
  return failures;
}

std::string SoakReport::Summary() const {
  std::ostringstream out;
  out << "soak: issued=" << issued << " ok=" << ok << " shed=" << shed
      << " rejected=" << rejected << " errors=" << errors
      << " refused=" << refused << " overruns=" << overruns << " rungs=[" << by_rung[0] << ","
      << by_rung[1] << "," << by_rung[2] << "," << by_rung[3] << "]"
      << " max_depth=" << max_depth_seen << " trips=" << breaker_trips
      << " recoveries=" << breaker_recoveries
      << " generations=" << generations_seen;
  return out.str();
}

SoakReport RunSoak(ServingStack& stack, const SoakOptions& options) {
  SoakReport report;

  std::size_t num_users = options.num_users;
  std::size_t num_items = options.num_items;
  if (num_users == 0 || num_items == 0) {
    const auto active = stack.models().Active();
    if (active != nullptr) {
      if (num_users == 0) num_users = active->model().NumUsers();
      if (num_items == 0) num_items = active->model().NumItems();
    }
  }
  if (num_users == 0) num_users = 1;
  if (num_items == 0) num_items = 1;

  auto& failpoints = obs::FailPointRegistry::Global();
  const util::Rng root(options.seed);
  std::set<std::uint64_t> generations;

  for (std::size_t phase = 0; phase < 3; ++phase) {
    const bool chaos_phase = phase == 1;
    if (chaos_phase && !options.chaos.empty()) {
      failpoints.SetSeed(options.seed);
      for (const ChaosPoint& point : options.chaos) {
        failpoints.Arm(point.name,
                       "prob:" + std::to_string(point.probability));
      }
    }

    std::vector<ClientTally> tallies(options.num_clients);
    std::vector<std::thread> clients;
    clients.reserve(options.num_clients);
    for (std::size_t c = 0; c < options.num_clients; ++c) {
      clients.emplace_back(RunClient, std::ref(stack), std::cref(options),
                           num_users, num_items,
                           root.Fork(phase * 1000 + c), std::ref(tallies[c]));
    }

    if (phase == 2 && options.mid_traffic) {
      report.mid_traffic_ran = true;
      try {
        options.mid_traffic();
      } catch (...) {
        report.mid_traffic_failed = true;
      }
    }

    for (std::thread& client : clients) client.join();

    if (chaos_phase && !options.chaos.empty()) {
      for (const ChaosPoint& point : options.chaos) {
        failpoints.Disarm(point.name);
      }
    }

    for (const ClientTally& tally : tallies) {
      report.issued += tally.issued;
      report.ok += tally.ok;
      report.shed += tally.shed;
      report.rejected += tally.rejected;
      report.errors += tally.errors;
      report.refused += tally.refused;
      report.overruns += tally.overruns;
      for (std::size_t r = 0; r < tally.by_rung.size(); ++r) {
        report.by_rung[r] += tally.by_rung[r];
      }
      report.all_finite = report.all_finite && tally.all_finite;
      generations.insert(tally.generations.begin(), tally.generations.end());
    }
  }

  report.max_depth_seen = stack.MaxDepthSeen();
  report.breaker_trips = stack.breaker().trips();
  report.breaker_recoveries = stack.breaker().recoveries();
  report.generations_seen = generations.size();
  return report;
}

}  // namespace cfsf::serve
