// Fault-tier tests (ctest label `fault`): checksummed bundle corruption
// handling, refusal of other format versions, atomic saves under
// injected faults, and the armed end-to-end Evaluate acceptance run (CI
// drives this tier with CFSF_FAILPOINTS set, under ASan).  Load faults
// are absorbed by ckpt::Recover's checkpoint ladder
// (tests/ckpt_crash_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/cfsf.hpp"
#include "core/model_io.hpp"
#include "eval/evaluate.hpp"
#include "obs/metrics.hpp"
#include "obs/failpoint.hpp"
#include "robust/fallback.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace cfsf {
namespace {

using obs::FailPointRegistry;
using obs::InjectedFault;
using obs::ScopedFailPoint;

class ModelIoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Global().DisarmAll(); }
  void TearDown() override { FailPointRegistry::Global().DisarmAll(); }

  // One small fitted model shared by the whole suite.
  static core::CfsfModel& Model() {
    static core::CfsfModel* model = [] {
      data::SyntheticConfig dconfig;
      dconfig.num_users = 70;
      dconfig.num_items = 90;
      dconfig.min_ratings_per_user = 15;
      core::CfsfConfig config;
      config.num_clusters = 6;
      config.top_m_items = 20;
      config.top_k_users = 8;
      auto* m = new core::CfsfModel(config);  // cfsf-lint: allow(naked-new)
      m->Fit(data::GenerateSynthetic(dconfig));
      return m;
    }();
    return *model;
  }
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

void WriteFileBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST_F(ModelIoFaultTest, V2RoundTripPredictsIdentically) {
  const std::string path = ::testing::TempDir() + "/cfsf_v2_roundtrip.bin";
  core::SaveModel(Model(), path);
  const auto loaded = core::LoadModel(path);
  ASSERT_TRUE(loaded->fitted());
  for (matrix::UserId u = 0; u < 20; ++u) {
    EXPECT_DOUBLE_EQ(Model().Predict(u, u % 13), loaded->Predict(u, u % 13));
  }
}

TEST_F(ModelIoFaultTest, VerifyReportsAllFourSections) {
  const std::string path = ::testing::TempDir() + "/cfsf_v2_verify.bin";
  core::SaveModel(Model(), path);
  const auto report = core::VerifyModel(path);
  EXPECT_EQ(report.version, core::kModelFormatVersion);
  ASSERT_EQ(report.sections.size(), 4u);
  EXPECT_EQ(report.sections[0].name, "config");
  EXPECT_EQ(report.sections[1].name, "matrix");
  EXPECT_EQ(report.sections[2].name, "gis");
  EXPECT_EQ(report.sections[3].name, "assignments");
  for (const auto& section : report.sections) {
    EXPECT_GT(section.payload_bytes, 0u) << section.name;
  }
  EXPECT_EQ(report.file_bytes,
            std::filesystem::file_size(std::filesystem::path(path)));
}

TEST_F(ModelIoFaultTest, LegacyV1BundleIsRefused) {
  // The unchecksummed version-1 layout: "CFSF" | u32 1 | the four
  // sections back to back, unframed.  Neither reader accepts it any more.
  const std::string path = ::testing::TempDir() + "/cfsf_v1_refused.bin";
  std::string bytes = "CFSF";
  const std::uint32_t version = 1;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(96, '\0');
  WriteFileBytes(path, bytes);
  for (const bool verify : {false, true}) {
    try {
      if (verify) {
        core::VerifyModel(path);
      } else {
        core::LoadModel(path);
      }
      ADD_FAILURE() << (verify ? "VerifyModel" : "LoadModel")
                    << " accepted a version-1 bundle";
    } catch (const util::IoError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported model format "
                                           "version 1"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(ModelIoFaultTest, ZeroLengthFileRejected) {
  const std::string path = ::testing::TempDir() + "/cfsf_zero.bin";
  WriteFileBytes(path, "");
  EXPECT_THROW(core::LoadModel(path), util::IoError);
  EXPECT_THROW(core::VerifyModel(path), util::IoError);
}

TEST_F(ModelIoFaultTest, TruncationNamesTheSection) {
  const std::string path = ::testing::TempDir() + "/cfsf_trunc_v2.bin";
  core::SaveModel(Model(), path);
  const std::string data = ReadFileBytes(path);
  // Cut in the middle of the matrix section (the second and largest).
  const std::string cut = data.substr(0, data.size() / 2);
  WriteFileBytes(path, cut);
  try {
    core::LoadModel(path);
    FAIL() << "truncated bundle must not load";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("section `"), std::string::npos)
        << e.what();
  }
}

TEST_F(ModelIoFaultTest, EverySampledFlippedByteIsRejected) {
  const std::string path = ::testing::TempDir() + "/cfsf_flip_base.bin";
  const std::string flipped_path = ::testing::TempDir() + "/cfsf_flip.bin";
  core::SaveModel(Model(), path);
  const std::string data = ReadFileBytes(path);
  ASSERT_GT(data.size(), 64u);
  // Sample offsets with a prime stride so every region (header, size
  // fields, payloads, per-section CRCs, trailer) gets hit.
  std::size_t tested = 0;
  for (std::size_t offset = 0; offset < data.size(); offset += 97) {
    std::string corrupt = data;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x10);
    WriteFileBytes(flipped_path, corrupt);
    EXPECT_THROW(core::LoadModel(flipped_path), util::IoError)
        << "flipped byte at offset " << offset << " was accepted";
    EXPECT_THROW(core::VerifyModel(flipped_path), util::IoError)
        << "verify accepted flipped byte at offset " << offset;
    ++tested;
  }
  EXPECT_GT(tested, 10u);
  // The first and last bytes are edge cases worth pinning explicitly.
  for (const std::size_t offset : {std::size_t{0}, data.size() - 1}) {
    std::string corrupt = data;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x01);
    WriteFileBytes(flipped_path, corrupt);
    EXPECT_THROW(core::LoadModel(flipped_path), util::IoError);
  }
}

TEST_F(ModelIoFaultTest, PayloadFlipNamesItsSection) {
  const std::string path = ::testing::TempDir() + "/cfsf_flip_named.bin";
  const std::string flipped_path =
      ::testing::TempDir() + "/cfsf_flip_named_c.bin";
  core::SaveModel(Model(), path);
  const std::string data = ReadFileBytes(path);
  const auto report = core::VerifyModel(path);
  // Walk the framing to find each payload's start offset.
  std::size_t pos = 8;  // magic + version
  for (const auto& section : report.sections) {
    const std::size_t payload_start = pos + 8;
    std::string corrupt = data;
    const std::size_t target = payload_start + section.payload_bytes / 2;
    corrupt[target] = static_cast<char>(corrupt[target] ^ 0xFF);
    WriteFileBytes(flipped_path, corrupt);
    try {
      core::LoadModel(flipped_path);
      FAIL() << "flip inside section " << section.name << " was accepted";
    } catch (const util::IoError& e) {
      EXPECT_NE(std::string(e.what()).find("`" + section.name + "`"),
                std::string::npos)
          << "expected the error to name section " << section.name
          << ", got: " << e.what();
    }
    pos = payload_start + section.payload_bytes + 4;
  }
}

TEST_F(ModelIoFaultTest, InjectedSaveFaultLeavesTargetIntactAndNoTmp) {
  const std::string path = ::testing::TempDir() + "/cfsf_atomic.bin";
  core::SaveModel(Model(), path);
  const std::string before = ReadFileBytes(path);
  {
    ScopedFailPoint guard("model_io.save.write", "always");
    EXPECT_THROW(core::SaveModel(Model(), path), InjectedFault);
  }
  EXPECT_EQ(ReadFileBytes(path), before)
      << "a failed save must not touch the existing bundle";
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "the temp file must be cleaned up after a failed save";
  EXPECT_NO_THROW(core::LoadModel(path));
}

// ------------------------------------------ configs the code refuses ----

// The config section is first: its payload starts after the 8-byte header
// and its u64 payload size.
constexpr std::size_t kPayloadStart = 8 + 8;

// Overwrites `size` bytes at `offset` of a v2 bundle's config payload and
// recomputes the section CRC and the whole-file trailer, so the bundle
// passes every checksum and only the config parse can refuse it.
std::string PatchConfigSlot(std::string data, std::size_t offset,
                            const void* bytes, std::size_t size) {
  std::uint64_t payload_bytes = 0;
  std::memcpy(&payload_bytes, data.data() + 8, sizeof(payload_bytes));
  std::memcpy(data.data() + kPayloadStart + offset, bytes, size);
  const std::uint32_t crc = util::Crc32(
      std::string_view(data).substr(kPayloadStart, payload_bytes));
  std::memcpy(data.data() + kPayloadStart + payload_bytes, &crc, sizeof(crc));
  const std::uint32_t trailer =
      util::Crc32(std::string_view(data).substr(0, data.size() - 4));
  std::memcpy(data.data() + data.size() - 4, &trailer, sizeof(trailer));
  return data;
}

// Config payload offsets: three u64 counts and three doubles precede the
// u32 GIS kernel; then min_similarity (double) and min_overlap (u64)
// precede the retired max_neighbors slot.
constexpr std::size_t kKernelSlot = 48;
constexpr std::size_t kRowCapSlot = 68;

// A patched bundle must be refused with a ConfigError naming the field.
void ExpectConfigRefused(const std::string& path, const std::string& field) {
  try {
    core::LoadModel(path);
    ADD_FAILURE() << "bundle with a patched " << field << " was accepted";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST_F(ModelIoFaultTest, NonzeroRowCapSlotIsRefused) {
  const std::string path = ::testing::TempDir() + "/cfsf_row_cap.bin";
  core::SaveModel(Model(), path);
  const std::string data = ReadFileBytes(path);
  std::uint64_t slot = 1;
  std::memcpy(&slot, data.data() + kPayloadStart + kRowCapSlot, sizeof(slot));
  ASSERT_EQ(slot, 0u) << "SaveModel must write 0 into the retired slot";
  slot = 20;
  WriteFileBytes(path, PatchConfigSlot(data, kRowCapSlot, &slot, sizeof(slot)));
  ASSERT_NO_THROW(core::VerifyModel(path));  // every checksum still holds
  ExpectConfigRefused(path, "gis.max_neighbors");
}

TEST_F(ModelIoFaultTest, UnknownItemKernelIsRefused) {
  const std::string path = ::testing::TempDir() + "/cfsf_kernel.bin";
  core::SaveModel(Model(), path);
  const std::uint32_t kernel = 2;  // neither Pearson (0) nor cosine (1)
  WriteFileBytes(path, PatchConfigSlot(ReadFileBytes(path), kKernelSlot,
                                       &kernel, sizeof(kernel)));
  ASSERT_NO_THROW(core::VerifyModel(path));
  ExpectConfigRefused(path, "gis.kernel");
}

// ----------------------------------------------- armed end-to-end ----

// The PR's acceptance run: Evaluate over the ML_300/Given10 protocol
// with prob: failpoints armed and the fallback ladder in front — must
// finish with zero uncaught exceptions and nonzero fallback counters,
// and must reproduce the undegraded MAE exactly once disarmed.
TEST_F(ModelIoFaultTest, ArmedEvaluateDegradesButCompletes) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 350;
  dconfig.num_items = 400;
  const auto base = data::GenerateSynthetic(dconfig);
  data::ProtocolConfig pconfig;
  pconfig.num_train_users = 300;
  pconfig.num_test_users = 50;
  pconfig.given_n = 10;
  const auto split = data::MakeGivenNSplit(base, pconfig);

  core::CfsfConfig config;
  config.num_clusters = 10;
  config.top_m_items = 30;
  config.top_k_users = 10;
  core::CfsfModel model(config);
  robust::FallbackPredictor ladder(model);

  // Disarmed, the ladder is a transparent wrapper: same MAE as the bare
  // model (Table II unchanged).
  const auto bare = eval::Evaluate(model, split);
  const auto disarmed = eval::Evaluate(ladder, split);
  EXPECT_DOUBLE_EQ(disarmed.mae, bare.mae);

  auto& registry = obs::MetricsRegistry::Global();
  const auto fallbacks_before =
      registry.GetCounter("robust.fallback.sir").Value() +
      registry.GetCounter("robust.fallback.user_mean").Value() +
      registry.GetCounter("robust.fallback.global_mean").Value();
  const auto trips_before =
      registry.GetCounter("robust.failpoint_trips").Value();

  FailPointRegistry::Global().SetSeed(2009);
  ScopedFailPoint full("cfsf.predict", "prob:0.05");
  ScopedFailPoint sir("cfsf.predict.sir", "prob:0.3");
  const auto armed = eval::Evaluate(ladder, split);  // must not throw
  EXPECT_TRUE(std::isfinite(armed.mae));
  EXPECT_GT(armed.num_predictions, 0u);
  EXPECT_LT(armed.mae, 2.0) << "degraded rungs should still be sane";

  EXPECT_GT(FailPointRegistry::Global().TripCount("cfsf.predict"), 0u);
  if (obs::MetricsEnabled()) {
    const auto fallbacks_after =
        registry.GetCounter("robust.fallback.sir").Value() +
        registry.GetCounter("robust.fallback.user_mean").Value() +
        registry.GetCounter("robust.fallback.global_mean").Value();
    EXPECT_GT(fallbacks_after, fallbacks_before);
    EXPECT_GT(registry.GetCounter("robust.failpoint_trips").Value(),
              trips_before);
  }
}

}  // namespace
}  // namespace cfsf
