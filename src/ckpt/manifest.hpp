// On-disk metadata of the checkpoint directory.
//
// A checkpoint directory holds, per checkpoint id N:
//
//   ckpt-<10-digit N>.model      the folded model, a bundle-format-v2
//                                file (core/model_io.hpp): per-section
//                                CRCs + whole-file trailer
//   ckpt-<10-digit N>.manifest   this header's 48-byte record binding
//                                the bundle to its WAL watermark
//
// Both are little-endian, CRC-trailed, and written with the bundle-v2
// atomic discipline (tmp + fsync + rename + directory fsync), so any
// crash leaves each file either absent or whole — and any flipped byte
// is caught by a CRC, never trusted.
//
//   manifest (48 bytes):
//     "CFCM" | u32 version (1) | u64 id | u64 watermark_lsn |
//     u64 generation | u64 model_bytes | u32 reserved (0) |
//     u32 crc32(first 44)
//
// The manifest is the checkpoint's commit point: it is written only
// after its bundle has been read back and verified, so a manifest on
// disk always names a verified bundle, and recovery scans manifests
// newest-first with no other pointer.  (A `CURRENT` file an older
// build left in the directory is ignored.)  `watermark_lsn` is the
// contract: every WAL record with lsn <= watermark_lsn is already
// folded into the bundle, so recovery replays only the suffix past it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cfsf::ckpt {

inline constexpr std::uint32_t kManifestFormatVersion = 1;
inline constexpr std::size_t kManifestBytes = 48;

struct Manifest {
  std::uint64_t id = 0;
  /// Every WAL record with lsn <= this is folded into the bundle.
  std::uint64_t watermark_lsn = 0;
  /// ModelGeneration id active when the checkpoint was cut (metadata
  /// for operators; recovery does not depend on it).
  std::uint64_t generation = 0;
  /// Size of the model bundle when the manifest was written — a cheap
  /// cross-check before the bundle's own CRC pass runs.
  std::uint64_t model_bytes = 0;
};

void EncodeManifest(const Manifest& manifest,
                    unsigned char out[kManifestBytes]);

/// False on bad magic, unknown version or a CRC mismatch.
bool DecodeManifest(const unsigned char in[kManifestBytes],
                    Manifest* manifest);

/// "ckpt-0000000042.model" / ".manifest" for id 42.
std::string ModelFileName(std::uint64_t id);
std::string ManifestFileName(std::uint64_t id);

/// True when `name` is a manifest file name; fills `id`.
bool ParseManifestFileName(const std::string& name, std::uint64_t* id);

/// Atomically (tmp + fsync + rename + dir fsync) writes the manifest
/// into `dir`.  Throws util::IoError on any I/O failure.
void WriteManifestFile(const std::string& dir, const Manifest& manifest);

/// False when the file is missing, short, or corrupt — never throws for
/// those; recovery treats every false as "try the next candidate".
bool ReadManifestFile(const std::string& path, Manifest* manifest);

/// Ids of every `ckpt-*.manifest` in `dir`, ascending.  An absent
/// directory lists as empty.
std::vector<std::uint64_t> ListCheckpointIds(const std::string& dir);

}  // namespace cfsf::ckpt
