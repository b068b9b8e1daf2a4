// Fault-tier coverage for the fail points no other fault test arms
// (ctest label `fault`): movielens.open, movielens.parse_line and
// cfsf.fit — plus an inventory sweep that arms every
// kFailPoints row through the live registry.  cfsf_lint's
// undocumented-failpoint rule requires each CFSF_FAILPOINT site literal
// to appear in at least one fault-labelled test; this file is that
// anchor, and each test proves the trip produces the failure mode the
// src/obs/names.hpp inventory promises.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "core/cfsf.hpp"
#include "data/movielens.hpp"
#include "obs/failpoint.hpp"
#include "obs/names.hpp"
#include "util/error.hpp"

namespace cfsf {
namespace {

using obs::FailPointRegistry;
using obs::InjectedFault;
using obs::ScopedFailPoint;

class FailpointCoverageTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Global().DisarmAll(); }
  void TearDown() override { FailPointRegistry::Global().DisarmAll(); }
};

// A tiny but well-formed u.data (default options impose no minimums).
std::string WriteUData() {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cfsf_fpcov_u.data").string();
  std::ofstream out(path, std::ios::trunc);
  for (int user = 1; user <= 4; ++user) {
    for (int item = 1; item <= 5; ++item) {
      out << user << "\t" << item << "\t" << 1 + (user + item) % 5 << "\t0\n";
    }
  }
  return path;
}

core::CfsfConfig SmallConfig() {
  core::CfsfConfig config;
  config.num_clusters = 4;
  config.top_m_items = 12;
  config.top_k_users = 6;
  return config;
}

data::MovieLensData LoadSmall(const std::string& path) {
  return data::LoadUData(path);
}

TEST_F(FailpointCoverageTest, MovielensOpenInjectsIoFault) {
  const std::string path = WriteUData();
  {
    ScopedFailPoint fp("movielens.open", "always");
    EXPECT_THROW(LoadSmall(path), InjectedFault);
    // Counters live only while the point is armed; read before disarm.
    EXPECT_GE(FailPointRegistry::Global().TripCount("movielens.open"), 1u);
  }
  // Disarmed, the same file loads: the fault really came from the point.
  const auto data = LoadSmall(path);
  EXPECT_EQ(data.matrix.num_users(), 4u);
  std::remove(path.c_str());
}

TEST_F(FailpointCoverageTest, MovielensParseLineInjectsMidStream) {
  const std::string path = WriteUData();
  {
    // Trip on the third line: the loader must abort a partially-read
    // stream, not hand back a truncated matrix.
    ScopedFailPoint fp("movielens.parse_line", "after:2");
    EXPECT_THROW(LoadSmall(path), InjectedFault);
  }
  EXPECT_EQ(LoadSmall(path).matrix.num_users(), 4u);
  std::remove(path.c_str());
}

TEST_F(FailpointCoverageTest, CfsfFitLeavesModelUnfitted) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 40;
  dconfig.num_items = 50;
  dconfig.min_ratings_per_user = 10;
  const auto train = data::GenerateSynthetic(dconfig);

  core::CfsfModel model(SmallConfig());
  {
    ScopedFailPoint fp("cfsf.fit", "always");
    EXPECT_THROW(model.Fit(train), InjectedFault);
  }
  EXPECT_FALSE(model.fitted());
  // The same instance recovers once the point is disarmed.
  model.Fit(train);
  EXPECT_TRUE(model.fitted());
}

// Every inventory row in src/obs/names.hpp must be armable through the
// live registry, and the inventory must not contain duplicate names —
// the runtime half of the contract cfsf_lint checks statically.
TEST_F(FailpointCoverageTest, InventoryRowsAllArmable) {
  auto& registry = FailPointRegistry::Global();
  std::set<std::string> seen;
  for (const auto& info : obs::names::kFailPoints) {
    EXPECT_TRUE(seen.insert(info.name).second)
        << "duplicate inventory row: " << info.name;
    EXPECT_NE(std::string(info.site), "") << info.name;
    EXPECT_NE(std::string(info.effect), "") << info.name;
    registry.Arm(info.name, "off");
    const auto armed = registry.ArmedNames();
    EXPECT_NE(std::find(armed.begin(), armed.end(), info.name), armed.end());
    registry.Disarm(info.name);
  }
  EXPECT_EQ(seen.size(), obs::names::kNumFailPoints);
}

}  // namespace
}  // namespace cfsf
