#include "wal/format.hpp"

#include <cstring>

#include "util/crc32.hpp"

namespace cfsf::wal {

namespace {

constexpr char kMagic[4] = {'C', 'F', 'W', 'L'};

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

}  // namespace

void EncodeSegmentHeader(const SegmentHeader& header,
                         unsigned char out[kSegmentHeaderBytes]) {
  std::memcpy(out, kMagic, 4);
  PutU32(out + 4, header.version);
  PutU64(out + 8, header.seq);
  PutU64(out + 16, header.first_lsn);
  PutU32(out + 24, util::Crc32(out, kSegmentHeaderBytes - 4));
}

bool DecodeSegmentHeader(const unsigned char in[kSegmentHeaderBytes],
                         SegmentHeader* header) {
  if (std::memcmp(in, kMagic, 4) != 0) return false;
  if (GetU32(in + 24) != util::Crc32(in, kSegmentHeaderBytes - 4)) {
    return false;
  }
  header->version = GetU32(in + 4);
  header->seq = GetU64(in + 8);
  header->first_lsn = GetU64(in + 16);
  return header->version == kFormatVersion;
}

void EncodeRecord(const matrix::RatingTriple& record,
                  std::uint64_t request_id, unsigned char out[kRecordBytes]) {
  PutU32(out, record.user);
  PutU32(out + 4, record.item);
  std::uint32_t rating_bits = 0;
  static_assert(sizeof(record.value) == sizeof(rating_bits));
  std::memcpy(&rating_bits, &record.value, sizeof(rating_bits));
  PutU32(out + 8, rating_bits);
  PutU64(out + 12, static_cast<std::uint64_t>(record.timestamp));
  PutU64(out + 20, request_id);
  PutU32(out + 28, util::Crc32(out, kRecordBytes - 4));
}

bool DecodeRecord(const unsigned char in[kRecordBytes],
                  matrix::RatingTriple* record, std::uint64_t* request_id) {
  if (GetU32(in + 28) != util::Crc32(in, kRecordBytes - 4)) return false;
  record->user = GetU32(in);
  record->item = GetU32(in + 4);
  const std::uint32_t rating_bits = GetU32(in + 8);
  std::memcpy(&record->value, &rating_bits, sizeof(record->value));
  record->timestamp = static_cast<matrix::Timestamp>(GetU64(in + 12));
  *request_id = GetU64(in + 20);
  return true;
}

std::uint64_t HashRequestId(std::string_view token) {
  if (token.empty()) return 0;
  // FNV-1a, 64-bit.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : token) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  // 0 means "no id"; remap the (vanishingly rare) real hash of 0.
  return hash != 0 ? hash : 1;
}

std::string SegmentFileName(std::uint64_t seq) {
  std::string digits = std::to_string(seq);
  if (digits.size() < 10) {
    digits.insert(digits.begin(), 10 - digits.size(), '0');
  }
  return "wal-" + digits + ".log";
}

bool ParseSegmentFileName(const std::string& name, std::uint64_t* seq) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".log";
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
  *seq = value;
  return true;
}

}  // namespace cfsf::wal
