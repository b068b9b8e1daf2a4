// On-disk format of the rating write-ahead log.
//
// A log is a directory of size-capped segment files
//
//   wal-0000000001.log, wal-0000000002.log, ...
//
// each holding one fixed-size CRC'd header followed by fixed-size
// CRC-framed rating records.  Everything is little-endian and
// fixed-width, so a torn tail is detectable by construction: the first
// frame whose CRC fails (or that is shorter than the frame size) marks
// the crash point, and every byte before it is exactly the record
// sequence the writer produced.
//
//   segment header (28 bytes):
//     "CFWL"            magic
//     u32  version      kFormatVersion (2); a segment of any other
//                       version is refused, never read or repaired
//     u64  seq          segment sequence number (also in the filename)
//     u64  first_lsn    lsn of the segment's first record — replay
//                       checks continuity across segments, so a
//                       missing or duplicated segment is detected
//     u32  crc32        of the preceding 24 bytes
//
//   record frame (32 bytes):
//     u32  user
//     u32  item
//     f32  rating       IEEE-754 bits
//     i64  timestamp    seconds since epoch; 0 = none
//     u64  request_id   client idempotency token (0 = none) — the hash
//                       of the X-CFSF-Request-Id header, persisted so
//                       the dedup window survives a restart
//     u32  crc32        of the preceding 28 bytes
//
// Segments are created through util::WriteFileDurably: header written
// to `<name>.tmp`, fsynced, renamed, directory fsynced.  A `.tmp`
// leftover is never part of the log; recovery removes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "matrix/types.hpp"

namespace cfsf::wal {

inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::size_t kSegmentHeaderBytes = 28;
inline constexpr std::size_t kRecordBytes = 32;

struct SegmentHeader {
  std::uint32_t version = kFormatVersion;
  std::uint64_t seq = 0;
  std::uint64_t first_lsn = 0;
};

void EncodeSegmentHeader(const SegmentHeader& header,
                         unsigned char out[kSegmentHeaderBytes]);

/// False on bad magic, a CRC mismatch or a version other than
/// kFormatVersion.  A header whose magic and CRC hold is decoded into
/// `header` even when its version is refused, so the caller can name
/// that version.
bool DecodeSegmentHeader(const unsigned char in[kSegmentHeaderBytes],
                         SegmentHeader* header);

void EncodeRecord(const matrix::RatingTriple& record,
                  std::uint64_t request_id, unsigned char out[kRecordBytes]);

/// False on a CRC mismatch (a torn or corrupted frame).
bool DecodeRecord(const unsigned char in[kRecordBytes],
                  matrix::RatingTriple* record, std::uint64_t* request_id);

/// FNV-1a hash of a client request-id token into the u64 the frame
/// persists.  The empty token hashes to 0 — "no id, no dedup" — so a
/// caller can pass the header value through unconditionally.
std::uint64_t HashRequestId(std::string_view token);

/// "wal-0000000042.log" for seq 42.
std::string SegmentFileName(std::uint64_t seq);

/// True when `name` is a segment file name; fills `seq`.
bool ParseSegmentFileName(const std::string& name, std::uint64_t* seq);

}  // namespace cfsf::wal
