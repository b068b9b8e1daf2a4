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
// The format (version 2) is checksummed and torn-write safe:
//
//   "CFSF" | u32 version
//   4 sections, fixed order (config, matrix, gis, assignments), each
//     u64 payload_bytes | payload | u32 crc32(payload)
//   u32 crc32(everything above)          // whole-file trailer
//
// and every save is durable (util/durable_file.hpp: `<path>.tmp`,
// fsync, rename, directory fsync), so neither a crash nor a power cut
// mid-save leaves a torn bundle at the target path, and a save that
// returned survives both.  Any single flipped byte is rejected at load
// with an IoError naming the failing section.  Any other version (the
// unchecksummed version 1 included) is refused as an unsupported format
// version.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cfsf_model.hpp"

namespace cfsf::core {

/// The on-disk format version (checksummed sections + trailer).
inline constexpr std::uint32_t kModelFormatVersion = 2;

/// Writes the fitted model durably (util::WriteFileDurably); throws
/// IoError on I/O failure and ConfigError if the model is not fitted.
void SaveModel(const CfsfModel& model, const std::string& path);

/// Reads a model bundle; throws IoError on missing/corrupt/mismatched
/// files — the message names the failing section, or the version of a
/// bundle in any other format — and ConfigError, naming the field, for a
/// config this code cannot honour: an unknown GIS kernel or a nonzero
/// retired GIS row cap (max_neighbors).  There is no retry: a caller
/// with an alternative (ckpt::Recover's checkpoint ladder) falls back on
/// failure.
std::unique_ptr<CfsfModel> LoadModel(const std::string& path);

/// Structural verification without reconstructing the model: checks
/// magic, version, section sizes and CRCs, and the whole-file trailer.
/// It reads what the file system returns (right after a save, the page
/// cache), so it proves the saved bytes are intact, not that they are on
/// disk: that is the save's fsync.
/// Throws IoError naming the first failure; returns the per-section
/// report on success.  `cfsf_cli verify-model` is the CLI front end.
struct VerifyReport {
  struct Section {
    std::string name;
    std::uint64_t payload_bytes = 0;
    std::uint32_t crc = 0;
  };
  std::uint32_t version = 0;
  std::uint64_t file_bytes = 0;
  std::vector<Section> sections;
};

VerifyReport VerifyModel(const std::string& path);

}  // namespace cfsf::core
