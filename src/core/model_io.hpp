// Binary persistence for fitted CFSF models.
//
// The offline phase ("computer-intensive … performed in the backend",
// Section IV-A) is run once and shipped to serving processes.  SaveModel
// writes a versioned little-endian binary bundle: the configuration, the
// training matrix, the reduced GIS rows, and the K-means assignments.
// LoadModel reconstructs the remaining artefacts (smoothing, iCluster,
// member lists) deterministically from those — K-means and the GIS build
// are *not* re-run, so a loaded model answers exactly like the saved one.
//
// Format v2 (current) is checksummed and torn-write safe:
//
//   "CFSF" | u32 version
//   4 sections, fixed order (config, matrix, gis, assignments), each
//     u64 payload_bytes | payload | u32 crc32(payload)
//   u32 crc32(everything above)          // whole-file trailer
//
// and every write goes to `<path>.tmp` followed by an atomic rename, so
// a crash mid-save can never leave a torn bundle at the target path.
// Any single flipped byte is rejected at load with an IoError naming the
// failing section; v1 bundles (unchecksummed) still load.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cfsf_model.hpp"

namespace cfsf::core {

/// Current on-disk format version (checksummed sections + trailer).
inline constexpr std::uint32_t kModelFormatVersion = 2;

/// The unchecksummed pre-CRC format; still readable.
inline constexpr std::uint32_t kLegacyModelFormatVersion = 1;

/// Writes the fitted model atomically (tmp + rename); throws IoError on
/// I/O failure and ConfigError if the model is not fitted.
void SaveModel(const CfsfModel& model, const std::string& path);

/// Writes a v1 (unchecksummed) bundle.  Kept for downgrade tooling and
/// the back-compat tests; new code should use SaveModel.
void SaveModelLegacyV1(const CfsfModel& model, const std::string& path);

/// Reads a model bundle (v1 or v2); throws IoError on missing/corrupt/
/// mismatched files — for v2, the message names the failing section — and
/// ConfigError, naming the field, for a config this code cannot honour: an
/// unknown GIS kernel or a nonzero retired GIS row cap (max_neighbors).
std::unique_ptr<CfsfModel> LoadModel(const std::string& path);

/// Bounded-retry load for transient I/O failures (NFS hiccups, a bundle
/// mid-replacement, injected faults): retries util::IoError up to
/// max_attempts with exponential backoff and deterministic jitter
/// (util::Backoff).  Each retry increments `robust.load.retry`; an
/// exhausted retry budget increments `robust.load.giveup` and rethrows.
struct LoadRetryOptions {
  std::size_t max_attempts = 3;
  std::chrono::milliseconds initial_backoff{5};
  double backoff_multiplier = 2.0;
  /// Each sleep is scaled by a uniform factor in [1-jitter, 1+jitter].
  double jitter = 0.25;
  std::uint64_t jitter_seed = 0x5EED;
};

std::unique_ptr<CfsfModel> LoadModelWithRetry(
    const std::string& path, const LoadRetryOptions& options = {});

/// Structural verification without reconstructing the model: checks
/// magic, version, section sizes and CRCs, and the whole-file trailer
/// (v1 bundles get a full structural parse instead, since they carry no
/// checksums).  Throws IoError naming the first failure; returns the
/// per-section report on success.  `cfsf_cli verify-model` is the CLI
/// front end.
struct VerifyReport {
  struct Section {
    std::string name;
    std::uint64_t payload_bytes = 0;
    std::uint32_t crc = 0;
  };
  std::uint32_t version = 0;
  std::uint64_t file_bytes = 0;
  std::vector<Section> sections;  // empty for v1
};

VerifyReport VerifyModel(const std::string& path);

}  // namespace cfsf::core
