#include "wal/compact.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "obs/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/durable_file.hpp"
#include "util/error.hpp"
#include "wal/format.hpp"

namespace cfsf::wal {

namespace {

namespace fs = std::filesystem;

struct SegmentEntry {
  std::uint64_t seq = 0;
  std::uint64_t first_lsn = 0;
  std::uint64_t bytes = 0;
  fs::path path;
};

SegmentHeader ReadHeader(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  unsigned char raw[kSegmentHeaderBytes];
  if (!in.read(reinterpret_cast<char*>(raw), sizeof(raw))) {
    throw util::IoError("wal compact: cannot read header of " + path.string());
  }
  SegmentHeader header;
  if (!DecodeSegmentHeader(raw, &header)) {
    throw util::IoError("wal compact: bad segment header in " + path.string());
  }
  return header;
}

}  // namespace

CompactResult CompactWal(const std::string& dir,
                         std::uint64_t watermark_lsn) {
  const fs::path root(dir);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    throw util::IoError("wal compact: no such directory: " + dir);
  }

  std::vector<SegmentEntry> segments;
  for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    std::uint64_t seq = 0;
    if (!ParseSegmentFileName(name, &seq)) continue;
    SegmentEntry segment;
    segment.seq = seq;
    segment.path = entry.path();
    std::error_code size_ec;
    const std::uintmax_t bytes = fs::file_size(entry.path(), size_ec);
    segment.bytes = size_ec ? 0 : bytes;
    segments.push_back(segment);
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegmentEntry& a, const SegmentEntry& b) {
              return a.seq < b.seq;
            });

  CompactResult result;
  if (segments.empty()) return result;
  for (SegmentEntry& segment : segments) {
    segment.first_lsn = ReadHeader(segment.path).first_lsn;
  }
  result.first_retained_lsn = segments.front().first_lsn;

  // The removable prefix: segment i's records all precede its
  // successor's first_lsn, so i is dead iff segments[i+1].first_lsn is
  // at or below watermark+1.  The tail (no successor) always stays.
  std::size_t removable = 0;
  while (removable + 1 < segments.size() &&
         segments[removable + 1].first_lsn <= watermark_lsn + 1) {
    ++removable;
  }
  if (removable == 0) return result;

  CFSF_FAILPOINT("wal.compact");

  // Oldest first, each unlink durable before the next, so a power cut
  // mid-pass still leaves a contiguous suffix.  A failure leaves the
  // directory's durability unknowable: it propagates, and the caller
  // fail-stops.
  for (std::size_t i = 0; i < removable; ++i) {
    const std::string name = segments[i].path.filename().string();
    util::RemoveFileDurably(dir, name);
    ++result.removed_segments;
    result.removed_bytes += segments[i].bytes;
    result.removed.push_back(name);
  }

  result.first_retained_lsn = segments[removable].first_lsn;
  obs::MetricsRegistry::Global()
      .GetCounter(obs::names::kCkptCompactedSegments)
      .Increment(result.removed_segments);
  return result;
}

}  // namespace cfsf::wal
