#include "wal/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/durable_file.hpp"
#include "util/error.hpp"
#include "wal/format.hpp"

namespace cfsf::wal {

namespace {

namespace fs = std::filesystem;

struct SegmentFile {
  std::uint64_t seq = 0;
  fs::path path;
};

[[noreturn]] void Corrupt(const fs::path& path, std::uint64_t offset,
                          const std::string& why) {
  throw util::IoError("wal replay: " + why + " in segment " +
                      path.filename().string() + " at offset " +
                      std::to_string(offset));
}

std::string ReadWholeFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw util::IoError("wal replay: cannot open segment " + path.string());
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw util::IoError("wal replay: cannot read segment " + path.string());
  }
  return bytes;
}

void TruncateFile(const fs::path& path, std::uint64_t size) {
  std::error_code ec;
  fs::resize_file(path, size, ec);
  if (ec) {
    throw util::IoError("wal replay: cannot truncate torn tail of " +
                        path.string() + ": " + ec.message());
  }
}

}  // namespace

ReplayResult ReplayLog(const std::string& dir, const ReplayOptions& options) {
  CFSF_FAILPOINT("wal.replay");

  const fs::path root(dir);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    throw util::IoError("wal replay: no such directory: " + dir);
  }

  ReplayResult result;
  std::vector<SegmentFile> segments;
  std::vector<fs::path> leftovers;
  for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    std::uint64_t seq = 0;
    if (ParseSegmentFileName(name, &seq)) {
      segments.push_back(SegmentFile{seq, entry.path()});
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // A crash mid-rotation can leave the next segment's tmp file
      // behind; it was never renamed, so it is not part of the log.
      leftovers.push_back(entry.path());
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.seq < b.seq;
            });

  std::uint64_t expected_lsn = 1;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SegmentFile& segment = segments[i];
    const bool tail = i + 1 == segments.size();
    const std::string bytes = ReadWholeFile(segment.path);

    if (bytes.size() < kSegmentHeaderBytes) {
      Corrupt(segment.path, bytes.size(), "segment shorter than its header");
    }
    SegmentHeader header;
    if (!DecodeSegmentHeader(
            reinterpret_cast<const unsigned char*>(bytes.data()), &header)) {
      // Thrown before anything is truncated or removed, so repair mode
      // leaves a segment of another version exactly as it found it.
      Corrupt(segment.path, 0,
              header.version == kFormatVersion
                  ? "bad segment header"
                  : "unsupported segment format version " +
                        std::to_string(header.version));
    }
    if (header.seq != segment.seq) {
      Corrupt(segment.path, 0,
              "header seq " + std::to_string(header.seq) +
                  " does not match the filename");
    }
    if (i == 0) {
      // A compacted log starts mid-history: the first surviving
      // segment's header says where.
      expected_lsn = header.first_lsn;
      result.first_lsn = header.first_lsn;
    } else if (header.first_lsn != expected_lsn) {
      Corrupt(segment.path, 0,
              "lsn discontinuity: header says first lsn " +
                  std::to_string(header.first_lsn) + ", expected " +
                  std::to_string(expected_lsn));
    }

    SegmentInfo info;
    info.seq = segment.seq;
    info.first_lsn = header.first_lsn;

    std::uint64_t offset = kSegmentHeaderBytes;
    std::uint64_t valid_end = offset;
    while (offset < bytes.size()) {
      const std::uint64_t remaining = bytes.size() - offset;
      matrix::RatingTriple record;
      std::uint64_t request_id = 0;
      const bool whole_frame = remaining >= kRecordBytes;
      if (whole_frame &&
          DecodeRecord(
              reinterpret_cast<const unsigned char*>(bytes.data() + offset),
              &record, &request_id)) {
        result.records.push_back(
            RecoveredRecord{record, expected_lsn, request_id});
        ++expected_lsn;
        offset += kRecordBytes;
        valid_end = offset;
        ++info.records;
        continue;
      }
      // First bad or partial frame.  In the tail segment this is the
      // torn tail a crash leaves; anywhere else it is corruption.
      if (!tail) {
        Corrupt(segment.path, offset,
                whole_frame ? "bad record CRC" : "short record frame");
      }
      result.truncated_bytes = bytes.size() - valid_end;
      result.truncated_records =
          (result.truncated_bytes + kRecordBytes - 1) / kRecordBytes;
      if (options.repair) {
        TruncateFile(segment.path, valid_end);
      }
      break;
    }

    result.segments += 1;
    info.last_lsn = expected_lsn - 1;
    info.bytes = valid_end;
    result.segment_infos.push_back(info);
    if (tail) {
      result.tail_seq = segment.seq;
      result.tail_bytes = valid_end;
    }
  }
  result.next_lsn = expected_lsn;

  if (options.repair) {
    for (const fs::path& tmp : leftovers) {
      try {
        util::RemoveFileDurably(dir, tmp.filename().string());
        ++result.removed_tmp;
      } catch (const util::IoError&) {
        // Best-effort: a leftover that stays is still not part of the log.
      }
    }
  }

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter(obs::names::kWalReplayRecovered)
      .Increment(result.records.size());
  registry.GetCounter(obs::names::kWalReplayTruncated)
      .Increment(result.truncated_records);
  return result;
}

}  // namespace cfsf::wal
