// Unit tests for the rating write-ahead log: frame encode/decode,
// append → replay round trips, segment rotation, durability on return,
// the acked-record drain contract and graceful shutdown.  The crash and
// corruption halves of the contract live in tests/wal_crash_test.cpp
// (ctest label `fault`).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "matrix/types.hpp"
#include "util/crc32.hpp"
#include "util/durable_file.hpp"
#include "util/error.hpp"
#include "wal/format.hpp"
#include "wal/log.hpp"
#include "wal/replay.hpp"

namespace cfsf {
namespace {

namespace fs = std::filesystem;

// --- hand-rolled version-1 segment encoding (refusal fixture) ---------
//
// The writer only emits the current format, so the refusal test crafts
// a segment of the retired version 1 here: a 28-byte header with
// version 1, then 24-byte frames (no request_id), CRC over the first
// 20 bytes.

void PutU32At(std::string* out, std::size_t at, std::uint32_t value) {
  (*out)[at] = static_cast<char>(value);
  (*out)[at + 1] = static_cast<char>(value >> 8);
  (*out)[at + 2] = static_cast<char>(value >> 16);
  (*out)[at + 3] = static_cast<char>(value >> 24);
}

void PutU64At(std::string* out, std::size_t at, std::uint64_t value) {
  PutU32At(out, at, static_cast<std::uint32_t>(value));
  PutU32At(out, at + 4, static_cast<std::uint32_t>(value >> 32));
}

void PutCrcAt(std::string* out, std::size_t at, std::size_t payload) {
  PutU32At(out, at + payload,
           util::Crc32(reinterpret_cast<const unsigned char*>(out->data() + at),
                       payload));
}

std::string EncodeV1Segment(std::uint64_t seq, std::uint64_t first_lsn,
                            const std::vector<matrix::RatingTriple>& records) {
  std::string bytes(wal::kSegmentHeaderBytes + records.size() * 24, '\0');
  bytes.replace(0, 4, "CFWL");
  PutU32At(&bytes, 4, 1);
  PutU64At(&bytes, 8, seq);
  PutU64At(&bytes, 16, first_lsn);
  PutCrcAt(&bytes, 0, wal::kSegmentHeaderBytes - 4);
  std::size_t at = wal::kSegmentHeaderBytes;
  for (const matrix::RatingTriple& record : records) {
    PutU32At(&bytes, at, record.user);
    PutU32At(&bytes, at + 4, record.item);
    std::uint32_t rating_bits = 0;
    std::memcpy(&rating_bits, &record.value, sizeof(rating_bits));
    PutU32At(&bytes, at + 8, rating_bits);
    PutU64At(&bytes, at + 12, static_cast<std::uint64_t>(record.timestamp));
    PutCrcAt(&bytes, at, 24 - 4);
    at += 24;
  }
  return bytes;
}

matrix::RatingTriple MakeRecord(std::uint32_t i) {
  matrix::RatingTriple record;
  record.user = i;
  record.item = i * 7 + 1;
  record.value = static_cast<matrix::Rating>(1 + (i % 5));
  record.timestamp = static_cast<matrix::Timestamp>(1000000 + i);
  return record;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("cfsf_wal_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

// ------------------------------------------------------------ format ----

TEST(WalFormatTest, RecordRoundTripsThroughTheFrame) {
  const matrix::RatingTriple record = MakeRecord(42);
  unsigned char frame[wal::kRecordBytes];
  wal::EncodeRecord(record, 0xFEEDFACEu, frame);
  matrix::RatingTriple decoded;
  std::uint64_t request_id = 0;
  ASSERT_TRUE(wal::DecodeRecord(frame, &decoded, &request_id));
  EXPECT_EQ(decoded, record);
  EXPECT_EQ(request_id, 0xFEEDFACEu);
}

TEST(WalFormatTest, AnySingleBitFlipFailsTheRecordCrc) {
  unsigned char frame[wal::kRecordBytes];
  wal::EncodeRecord(MakeRecord(7), 12345, frame);
  for (std::size_t byte = 0; byte < wal::kRecordBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      unsigned char bent[wal::kRecordBytes];
      std::copy(frame, frame + wal::kRecordBytes, bent);
      bent[byte] = static_cast<unsigned char>(bent[byte] ^ (1u << bit));
      matrix::RatingTriple decoded;
      std::uint64_t request_id = 0;
      EXPECT_FALSE(wal::DecodeRecord(bent, &decoded, &request_id))
          << "bit " << bit << " of byte " << byte << " went undetected";
    }
  }
}

TEST(WalFormatTest, RequestIdHashIsStableAndNeverZeroForNonEmpty) {
  EXPECT_EQ(wal::HashRequestId(""), 0u);  // absent id = no dedup
  const std::uint64_t h = wal::HashRequestId("client-42/retry");
  EXPECT_NE(h, 0u);
  EXPECT_EQ(h, wal::HashRequestId("client-42/retry"));  // deterministic
  EXPECT_NE(h, wal::HashRequestId("client-42/retrz"));
}

TEST(WalFormatTest, SegmentHeaderRoundTripsAndRejectsDamage) {
  wal::SegmentHeader header;
  header.seq = 42;
  header.first_lsn = 1009;
  unsigned char bytes[wal::kSegmentHeaderBytes];
  wal::EncodeSegmentHeader(header, bytes);
  wal::SegmentHeader decoded;
  ASSERT_TRUE(wal::DecodeSegmentHeader(bytes, &decoded));
  EXPECT_EQ(decoded.version, wal::kFormatVersion);
  EXPECT_EQ(decoded.seq, 42u);
  EXPECT_EQ(decoded.first_lsn, 1009u);

  bytes[0] ^= 0x01;  // magic
  EXPECT_FALSE(wal::DecodeSegmentHeader(bytes, &decoded));
  bytes[0] ^= 0x01;
  bytes[9] ^= 0x40;  // seq
  EXPECT_FALSE(wal::DecodeSegmentHeader(bytes, &decoded));
}

TEST(WalFormatTest, SegmentFileNamesRoundTripAndRejectStrays) {
  EXPECT_EQ(wal::SegmentFileName(42), "wal-0000000042.log");
  std::uint64_t seq = 0;
  ASSERT_TRUE(wal::ParseSegmentFileName("wal-0000000042.log", &seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_FALSE(wal::ParseSegmentFileName("wal-0000000042.log.tmp", &seq));
  EXPECT_FALSE(wal::ParseSegmentFileName("wal-abc.log", &seq));
  EXPECT_FALSE(wal::ParseSegmentFileName("model.bin", &seq));
}

// ----------------------------------------------------------- append ----

TEST_F(WalTest, AppendReplayRoundTripPreservesEveryRecord) {
  std::vector<matrix::RatingTriple> written;
  {
    wal::WriteAheadLog log(dir_);
    for (std::uint32_t i = 0; i < 100; ++i) {
      written.push_back(MakeRecord(i));
      const wal::AppendAck ack = log.Append(written.back());
      EXPECT_EQ(ack.lsn, i + 1);
      EXPECT_EQ(log.durable_lsn(), ack.lsn);
    }
    EXPECT_EQ(log.durable_lsn(), 100u);
  }
  const wal::ReplayResult replay = wal::ReplayLog(dir_);
  ASSERT_EQ(replay.records.size(), 100u);
  EXPECT_EQ(replay.next_lsn, 101u);
  for (std::size_t i = 0; i < replay.records.size(); ++i) {
    EXPECT_EQ(replay.records[i].lsn, i + 1);
    EXPECT_EQ(replay.records[i].record, written[i]);
  }
}

TEST_F(WalTest, SegmentsRotateAtTheSizeCapAndReplayAcrossThem) {
  wal::WalOptions options;
  // Header + 4 records per segment.
  options.max_segment_bytes =
      wal::kSegmentHeaderBytes + 4 * wal::kRecordBytes;
  {
    wal::WriteAheadLog log(dir_, options);
    for (std::uint32_t i = 0; i < 10; ++i) log.Append(MakeRecord(i));
  }
  const wal::ReplayResult replay = wal::ReplayLog(dir_);
  EXPECT_EQ(replay.records.size(), 10u);
  EXPECT_EQ(replay.segments, 3u);  // 4 + 4 + 2
  EXPECT_EQ(replay.tail_seq, 3u);
}

TEST_F(WalTest, ReopeningAppendsAfterTheLastDurableRecord) {
  {
    wal::WriteAheadLog log(dir_);
    for (std::uint32_t i = 0; i < 5; ++i) log.Append(MakeRecord(i));
  }
  std::vector<wal::RecoveredRecord> recovered;
  wal::WriteAheadLog log(dir_, {}, &recovered);
  ASSERT_EQ(recovered.size(), 5u);
  EXPECT_EQ(log.next_lsn(), 6u);
  const wal::AppendAck ack = log.Append(MakeRecord(99));
  EXPECT_EQ(ack.lsn, 6u);
  log.Close();
  EXPECT_EQ(wal::ReplayLog(dir_).records.size(), 6u);
}

TEST_F(WalTest, EveryAppendIsDurableAndDrainableWhenItReturns) {
  wal::WriteAheadLog log(dir_);
  std::vector<wal::AckedRecord> drained;
  for (std::uint32_t i = 0; i < 5; ++i) {
    const wal::AppendAck ack =
        log.Append(MakeRecord(i), /*require_durable=*/false,
                   /*request_id=*/100 + i);
    EXPECT_EQ(ack.lsn, i + 1);
    EXPECT_FALSE(ack.deduplicated);
    // Fsynced before it returned, and handed over already.
    EXPECT_EQ(log.durable_lsn(), ack.lsn);
    EXPECT_EQ(log.DrainAcked(&drained), 1u);
  }
  ASSERT_EQ(drained.size(), 5u);
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].lsn, i + 1);
    EXPECT_EQ(drained[i].record, MakeRecord(static_cast<std::uint32_t>(i)));
    EXPECT_EQ(drained[i].request_id, 100 + i);
  }
  // A drain is a move: the records are handed over exactly once.
  std::vector<wal::AckedRecord> again;
  EXPECT_EQ(log.DrainAcked(&again), 0u);
  // A dedup hit re-acks the original lsn and drains nothing.
  const wal::AppendAck retry =
      log.Append(MakeRecord(2), /*require_durable=*/false,
                 /*request_id=*/102);
  EXPECT_TRUE(retry.deduplicated);
  EXPECT_EQ(retry.lsn, 3u);
  EXPECT_EQ(log.durable_lsn(), 5u);
  EXPECT_EQ(log.next_lsn(), 6u);
  EXPECT_EQ(log.DrainAcked(&again), 0u);
}

TEST_F(WalTest, ValidationRejectsAbsurdOptions) {
  wal::WalOptions options;
  options.max_segment_bytes = 8;  // cannot hold header + one record
  EXPECT_THROW(wal::WriteAheadLog(dir_, options), util::Error);
}

// A log opened on a path with missing levels must make each new
// directory durable (its mkdir, then its parent's fsync) before the first
// segment is renamed into it; reopening creates nothing.
TEST_F(WalTest, AFreshNestedDirectoryIsDurableBeforeTheFirstSegment) {
  using Kind = util::DurableOp::Kind;
  const std::string parent = dir_ + "/nested";
  const std::string wal_dir = parent + "/wal";
  std::vector<std::pair<Kind, std::string>> ops;
  util::SetDurableObserver([&ops](const util::DurableOp& op) {
    ops.emplace_back(op.kind, std::string(op.path));
  });
  { wal::WriteAheadLog log(wal_dir); }
  const auto at = [&ops](Kind kind, const std::string& path) {
    std::size_t i = 0;
    while (i < ops.size() && ops[i] != std::make_pair(kind, path)) ++i;
    return i;
  };
  const std::size_t rename =
      at(Kind::kRename, wal_dir + "/" + wal::SegmentFileName(1) + ".tmp");
  ASSERT_LT(rename, ops.size()) << "the first segment was never renamed";
  for (const std::string& level : {dir_, parent, wal_dir}) {
    const std::string above = fs::path(level).parent_path().string();
    EXPECT_LT(at(Kind::kMkdir, level), at(Kind::kDirFsync, above)) << level;
    EXPECT_LT(at(Kind::kDirFsync, above), rename) << level;
  }

  ops.clear();
  { wal::WriteAheadLog log(wal_dir); }
  util::SetDurableObserver(nullptr);
  EXPECT_TRUE(ops.empty()) << ops.size() << " operations on reopen";
}

// ------------------------------------------------------------- close ----

TEST_F(WalTest, CloseIsIdempotentAndRefusesLaterAppends) {
  wal::WriteAheadLog log(dir_);
  log.Append(MakeRecord(0));
  log.Close();
  log.Close();
  EXPECT_FALSE(log.available());
  EXPECT_EQ(log.unavailable_reason(), "closed");
  EXPECT_THROW(log.Append(MakeRecord(1)), util::IoError);
  // Acked records remain drainable after close.
  std::vector<wal::AckedRecord> drained;
  EXPECT_EQ(log.DrainAcked(&drained), 1u);
}

// ------------------------------------------------------------ replay ----

TEST_F(WalTest, ReplayOfAMissingDirectoryThrows) {
  EXPECT_THROW(wal::ReplayLog(dir_ + "/nope"), util::IoError);
}

TEST_F(WalTest, ReplayOfAnEmptyLogYieldsLsnOne) {
  { wal::WriteAheadLog log(dir_); }
  const wal::ReplayResult replay = wal::ReplayLog(dir_);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.next_lsn, 1u);
  EXPECT_EQ(replay.segments, 1u);
}

// ----------------------------------------------------------- version ----

TEST_F(WalTest, AV1SegmentIsRefusedAndLeftUntouched) {
  // A log written by the retired version-1 writer: three 24-byte frames
  // plus a partial frame of torn tail, which repair mode would truncate
  // in a current-format segment.
  std::vector<matrix::RatingTriple> old_records;
  for (std::uint32_t i = 0; i < 3; ++i) old_records.push_back(MakeRecord(i));
  fs::create_directories(dir_);
  const std::string path = dir_ + "/" + wal::SegmentFileName(1);
  const std::string bytes = EncodeV1Segment(1, 1, old_records) + "torn!";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto expect_refused = [&](const auto& open, const char* what) {
    try {
      open();
      ADD_FAILURE() << what << " accepted a version-1 segment";
    } catch (const util::IoError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(wal::SegmentFileName(1)), std::string::npos)
          << what << ": " << message;
      EXPECT_NE(message.find("version 1"), std::string::npos)
          << what << ": " << message;
    }
  };
  expect_refused([&] { wal::ReplayLog(dir_); }, "ReplayLog");
  expect_refused([&] { wal::ReplayLog(dir_, {/*repair=*/true}); },
                 "ReplayLog(repair)");
  expect_refused([&] { wal::WriteAheadLog log(dir_); }, "WriteAheadLog");

  // Nothing was truncated, unlinked or appended: the segment is the only
  // file and holds exactly the bytes written.
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{wal::SegmentFileName(1)});
  std::ifstream in(path, std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, bytes);
}

TEST_F(WalTest, RecoveryRemovesTmpLeftoversOnlyInRepairMode) {
  { wal::WriteAheadLog log(dir_); }
  const std::string tmp = dir_ + "/" + wal::SegmentFileName(9) + ".tmp";
  { std::ofstream out(tmp, std::ios::binary); out << "half a header"; }
  EXPECT_EQ(wal::ReplayLog(dir_).removed_tmp, 0u);  // read-only scan
  EXPECT_TRUE(fs::exists(tmp));
  wal::ReplayOptions repair;
  repair.repair = true;
  EXPECT_EQ(wal::ReplayLog(dir_, repair).removed_tmp, 1u);
  EXPECT_FALSE(fs::exists(tmp));
}

}  // namespace
}  // namespace cfsf
