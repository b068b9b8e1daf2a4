#include "ckpt/manifest.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/crc32.hpp"
#include "util/durable_file.hpp"

namespace cfsf::ckpt {

namespace {

namespace fs = std::filesystem;

constexpr char kManifestMagic[4] = {'C', 'F', 'C', 'M'};

void PutU32(unsigned char* out, std::uint32_t value) {
  out[0] = static_cast<unsigned char>(value);
  out[1] = static_cast<unsigned char>(value >> 8);
  out[2] = static_cast<unsigned char>(value >> 16);
  out[3] = static_cast<unsigned char>(value >> 24);
}

void PutU64(unsigned char* out, std::uint64_t value) {
  PutU32(out, static_cast<std::uint32_t>(value));
  PutU32(out + 4, static_cast<std::uint32_t>(value >> 32));
}

std::uint32_t GetU32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

std::uint64_t GetU64(const unsigned char* in) {
  return static_cast<std::uint64_t>(GetU32(in)) |
         static_cast<std::uint64_t>(GetU32(in + 4)) << 32;
}

std::string TenDigits(std::uint64_t id) {
  std::string digits = std::to_string(id);
  if (digits.size() < 10) {
    digits.insert(digits.begin(), 10 - digits.size(), '0');
  }
  return digits;
}

/// Reads exactly `size` bytes; false on missing/short/unreadable.
bool ReadFileExact(const std::string& path, unsigned char* out,
                   std::size_t size) {
  std::ifstream in(path, std::ios::binary);
  if (!in.read(reinterpret_cast<char*>(out), static_cast<std::streamsize>(size))) {
    return false;
  }
  // Trailing bytes are corruption too: the format is fixed-size.
  return in.peek() == std::ifstream::traits_type::eof();
}

}  // namespace

void EncodeManifest(const Manifest& manifest,
                    unsigned char out[kManifestBytes]) {
  std::memcpy(out, kManifestMagic, 4);
  PutU32(out + 4, kManifestFormatVersion);
  PutU64(out + 8, manifest.id);
  PutU64(out + 16, manifest.watermark_lsn);
  PutU64(out + 24, manifest.generation);
  PutU64(out + 32, manifest.model_bytes);
  PutU32(out + 40, 0);  // reserved
  PutU32(out + 44, util::Crc32(out, kManifestBytes - 4));
}

bool DecodeManifest(const unsigned char in[kManifestBytes],
                    Manifest* manifest) {
  if (std::memcmp(in, kManifestMagic, 4) != 0) return false;
  if (GetU32(in + 44) != util::Crc32(in, kManifestBytes - 4)) return false;
  if (GetU32(in + 4) != kManifestFormatVersion) return false;
  manifest->id = GetU64(in + 8);
  manifest->watermark_lsn = GetU64(in + 16);
  manifest->generation = GetU64(in + 24);
  manifest->model_bytes = GetU64(in + 32);
  return true;
}

std::string ModelFileName(std::uint64_t id) {
  return "ckpt-" + TenDigits(id) + ".model";
}

std::string ManifestFileName(std::uint64_t id) {
  return "ckpt-" + TenDigits(id) + ".manifest";
}

bool ParseManifestFileName(const std::string& name, std::uint64_t* id) {
  constexpr std::string_view kPrefix = "ckpt-";
  constexpr std::string_view kSuffix = ".manifest";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *id = value;
  return true;
}

void WriteManifestFile(const std::string& dir, const Manifest& manifest) {
  unsigned char raw[kManifestBytes];
  EncodeManifest(manifest, raw);
  util::WriteFileDurably(dir, ManifestFileName(manifest.id),
                         {util::AsBytes(raw)});
}

bool ReadManifestFile(const std::string& path, Manifest* manifest) {
  unsigned char raw[kManifestBytes];
  if (!ReadFileExact(path, raw, sizeof(raw))) return false;
  return DecodeManifest(raw, manifest);
}

std::vector<std::uint64_t> ListCheckpointIds(const std::string& dir) {
  std::vector<std::uint64_t> ids;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return ids;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t id = 0;
    if (ParseManifestFileName(entry.path().filename().string(), &id)) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace cfsf::ckpt
