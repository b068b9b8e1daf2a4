#include "core/model_io.hpp"

#include <array>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "obs/failpoint.hpp"
#include "util/crc32.hpp"
#include "util/durable_file.hpp"
#include "util/error.hpp"

namespace cfsf::core {

namespace {

constexpr char kMagic[4] = {'C', 'F', 'S', 'F'};

constexpr std::size_t kNumSections = 4;
constexpr std::array<const char*, kNumSections> kSectionNames = {
    "config", "matrix", "gis", "assignments"};

constexpr std::size_t kHeaderBytes = sizeof(kMagic) + sizeof(std::uint32_t);

// --- little-endian primitive IO -----------------------------------------

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Thrown by a read past a section's end.  The message is a static
// string: GCC 12's -fanalyzer reports the std::string temporary of
// `throw IoError("...")` as leaked (the false-positive class
// tools/cfsf_lint_allow.txt documents).
[[noreturn]] void ThrowTruncated() {
  static const std::string kMessage = "model file truncated";
  throw util::IoError(kMessage);
}

template <typename T>
T ReadPod(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) ThrowTruncated();
  return value;
}

void WriteU64(std::ostream& out, std::uint64_t v) { WritePod(out, v); }
std::uint64_t ReadU64(std::istream& in) { return ReadPod<std::uint64_t>(in); }

template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  WriteU64(out, v.size());
  if (!v.empty()) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

// Fills `*out` rather than returning the vector: the same analyzer
// reports a returned vector's slot as an uninitialized value.
template <typename T>
void ReadVector(std::istream& in, std::uint64_t sanity_cap,
                std::vector<T>* out) {
  const std::uint64_t size = ReadU64(in);
  if (size > sanity_cap) {
    throw util::IoError("model file corrupt: implausible vector size " +
                        std::to_string(size));
  }
  out->resize(size);
  if (size != 0) {
    in.read(reinterpret_cast<char*>(out->data()),
            static_cast<std::streamsize>(size * sizeof(T)));
    if (!in) ThrowTruncated();
  }
}

// WriteVector for rating triples, with RatingTriple's padding (the 4
// bytes before its 8-byte timestamp) written as zeros: each record is
// copied field by field into a zeroed image, so that a bundle's bytes
// depend on the model alone.  ReadVector reads the same layout back.
void WriteTriples(std::ostream& out,
                  const std::vector<matrix::RatingTriple>& triples) {
  using matrix::RatingTriple;
  WriteU64(out, triples.size());
  std::string bytes(triples.size() * sizeof(RatingTriple), '\0');
  char* at = bytes.data();
  for (const RatingTriple& t : triples) {
    std::memcpy(at + offsetof(RatingTriple, user), &t.user, sizeof(t.user));
    std::memcpy(at + offsetof(RatingTriple, item), &t.item, sizeof(t.item));
    std::memcpy(at + offsetof(RatingTriple, value), &t.value, sizeof(t.value));
    std::memcpy(at + offsetof(RatingTriple, timestamp), &t.timestamp,
                sizeof(t.timestamp));
    at += sizeof(RatingTriple);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Cap for any single vector in the file (entries, not bytes).
constexpr std::uint64_t kSanityCap = 1ULL << 33;

void WriteConfig(std::ostream& out, const CfsfConfig& c) {
  WriteU64(out, c.num_clusters);
  WriteU64(out, c.top_m_items);
  WriteU64(out, c.top_k_users);
  WritePod(out, c.lambda);
  WritePod(out, c.delta);
  WritePod(out, c.epsilon);
  WritePod(out, static_cast<std::uint32_t>(c.gis.kernel));
  WritePod(out, c.gis.min_similarity);
  WriteU64(out, c.gis.min_overlap);
  WriteU64(out, 0);  // retired GIS row cap (max_neighbors); always 0
  WritePod(out, static_cast<std::uint8_t>(c.gis.significance_weighting));
  WriteU64(out, c.gis.significance_cutoff);
  WriteU64(out, c.kmeans_max_iterations);
  WritePod(out, c.seed);
  WritePod(out, c.deviation_shrinkage);
  WriteU64(out, c.candidate_pool_factor);
  WritePod(out, static_cast<std::uint8_t>(c.use_cache));
  WritePod(out, static_cast<std::uint8_t>(c.parallel));
  WritePod(out, static_cast<std::uint8_t>(c.use_sir));
  WritePod(out, static_cast<std::uint8_t>(c.use_sur));
  WritePod(out, static_cast<std::uint8_t>(c.use_suir));
  WritePod(out, static_cast<std::uint8_t>(c.sur_uses_smoothed));
  WritePod(out, static_cast<std::uint8_t>(c.local_matrix_smoothed));
  WritePod(out, static_cast<std::uint8_t>(c.center_on_item_means));
  WritePod(out, static_cast<std::uint8_t>(c.time_decay));
  WritePod(out, c.time_half_life_days);
}

CfsfConfig ReadConfig(std::istream& in) {
  CfsfConfig c;
  c.num_clusters = ReadU64(in);
  c.top_m_items = ReadU64(in);
  c.top_k_users = ReadU64(in);
  c.lambda = ReadPod<double>(in);
  c.delta = ReadPod<double>(in);
  c.epsilon = ReadPod<double>(in);
  // Configs this code cannot honour are refused as ConfigError, not as
  // a corrupt file: the bytes are intact, the code cannot serve them.
  const auto kernel = ReadPod<std::uint32_t>(in);
  CFSF_REQUIRE(kernel == static_cast<std::uint32_t>(sim::ItemKernel::kPearson) ||
                   kernel == static_cast<std::uint32_t>(sim::ItemKernel::kCosine),
               "bundle config gis.kernel: unknown item kernel " +
                   std::to_string(kernel));
  c.gis.kernel = static_cast<sim::ItemKernel>(kernel);
  c.gis.min_similarity = ReadPod<double>(in);
  c.gis.min_overlap = ReadU64(in);
  const std::uint64_t row_cap = ReadU64(in);
  CFSF_REQUIRE(row_cap == 0,
               "bundle config gis.max_neighbors: GIS rows can no longer be "
               "capped (got " + std::to_string(row_cap) + ")");
  c.gis.significance_weighting = ReadPod<std::uint8_t>(in) != 0;
  c.gis.significance_cutoff = ReadU64(in);
  c.kmeans_max_iterations = ReadU64(in);
  c.seed = ReadPod<std::uint64_t>(in);
  c.deviation_shrinkage = ReadPod<double>(in);
  c.candidate_pool_factor = ReadU64(in);
  c.use_cache = ReadPod<std::uint8_t>(in) != 0;
  c.parallel = ReadPod<std::uint8_t>(in) != 0;
  c.use_sir = ReadPod<std::uint8_t>(in) != 0;
  c.use_sur = ReadPod<std::uint8_t>(in) != 0;
  c.use_suir = ReadPod<std::uint8_t>(in) != 0;
  c.sur_uses_smoothed = ReadPod<std::uint8_t>(in) != 0;
  c.local_matrix_smoothed = ReadPod<std::uint8_t>(in) != 0;
  c.center_on_item_means = ReadPod<std::uint8_t>(in) != 0;
  c.time_decay = ReadPod<std::uint8_t>(in) != 0;
  c.time_half_life_days = ReadPod<double>(in);
  return c;
}

// --- section serialization ---------------------------------------------

std::array<std::string, kNumSections> SerializeSections(
    const CfsfModel& model) {
  std::array<std::string, kNumSections> sections;

  {
    std::ostringstream out(std::ios::binary);
    WriteConfig(out, model.config());
    sections[0] = std::move(out).str();
  }
  {
    // Training matrix as triples.
    std::ostringstream out(std::ios::binary);
    const auto& train = model.train();
    WriteU64(out, train.num_users());
    WriteU64(out, train.num_items());
    WriteTriples(out, train.ToTriples());
    sections[1] = std::move(out).str();
  }
  {
    // GIS rows.
    std::ostringstream out(std::ios::binary);
    WriteU64(out, model.gis().num_items());
    for (std::size_t i = 0; i < model.gis().num_items(); ++i) {
      const auto row = model.gis().Neighbors(static_cast<matrix::ItemId>(i));
      WriteVector(out, std::vector<sim::Neighbor>(row.begin(), row.end()));
    }
    sections[2] = std::move(out).str();
  }
  {
    // Cluster assignments.
    std::ostringstream out(std::ios::binary);
    WriteVector(out, model.cluster_model().assignments());
    sections[3] = std::move(out).str();
  }
  return sections;
}

// --- in-memory bundle walking -------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::IoError("cannot open model file: " + path);
  CFSF_FAILPOINT("model_io.load.open");
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  if (end < 0) throw util::IoError("cannot stat model file: " + path);
  std::string data(static_cast<std::size_t>(end), '\0');
  in.seekg(0, std::ios::beg);
  if (!data.empty()) {
    in.read(data.data(), static_cast<std::streamsize>(data.size()));
    if (!in) throw util::IoError("cannot read model file: " + path);
  }
  CFSF_FAILPOINT("model_io.load.read");
  return data;
}

struct SectionView {
  std::string_view payload;
  std::uint32_t crc = 0;
};

// Validates the framing and checksums of a bundle held in memory
// (header already checked) and returns views of the section payloads.
// Every corruption error names the section it was detected in.
std::array<SectionView, kNumSections> WalkSections(std::string_view data) {
  // Smallest possible bundle: header + four empty framed sections +
  // the whole-file trailer.
  if (data.size() < kHeaderBytes + kNumSections * 12 + 4) {
    throw util::IoError("model file truncated in section `config`");
  }
  const std::size_t body_end = data.size() - sizeof(std::uint32_t);

  std::array<SectionView, kNumSections> sections;
  std::size_t pos = kHeaderBytes;
  for (std::size_t i = 0; i < kNumSections; ++i) {
    const std::string name = kSectionNames[i];
    std::size_t remaining = body_end - pos;
    if (remaining < sizeof(std::uint64_t)) {
      throw util::IoError("model file truncated in section `" + name + "`");
    }
    std::uint64_t payload_bytes = 0;
    std::memcpy(&payload_bytes, data.data() + pos, sizeof(payload_bytes));
    pos += sizeof(payload_bytes);
    remaining -= sizeof(payload_bytes);
    if (remaining < sizeof(std::uint32_t) ||
        payload_bytes > remaining - sizeof(std::uint32_t)) {
      throw util::IoError("model file corrupt: implausible size " +
                          std::to_string(payload_bytes) + " for section `" +
                          name + "`");
    }
    const std::string_view payload =
        data.substr(pos, static_cast<std::size_t>(payload_bytes));
    pos += static_cast<std::size_t>(payload_bytes);
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, data.data() + pos, sizeof(stored_crc));
    pos += sizeof(stored_crc);
    if (util::Crc32(payload) != stored_crc) {
      throw util::IoError("model file corrupt: section `" + name +
                          "` checksum mismatch");
    }
    sections[i] = SectionView{payload, stored_crc};
  }
  if (pos != body_end) {
    throw util::IoError("model file corrupt: " +
                        std::to_string(body_end - pos) +
                        " unexpected bytes after section `assignments`");
  }

  std::uint32_t trailer = 0;
  std::memcpy(&trailer, data.data() + body_end, sizeof(trailer));
  if (util::Crc32(data.substr(0, body_end)) != trailer) {
    throw util::IoError("model file corrupt: whole-file checksum mismatch");
  }
  return sections;
}

std::istringstream SectionStream(SectionView section) {
  return std::istringstream(std::string(section.payload), std::ios::binary);
}

std::unique_ptr<CfsfModel> BuildFromSections(
    const std::array<SectionView, kNumSections>& sections) {
  auto config_in = SectionStream(sections[0]);
  const CfsfConfig config = ReadConfig(config_in);

  auto matrix_in = SectionStream(sections[1]);
  const std::uint64_t num_users = ReadU64(matrix_in);
  const std::uint64_t num_items = ReadU64(matrix_in);
  if (num_users > kSanityCap || num_items > kSanityCap) {
    throw util::IoError("model file corrupt: implausible matrix shape");
  }
  std::vector<matrix::RatingTriple> triples;
  ReadVector(matrix_in, kSanityCap, &triples);
  matrix::RatingMatrixBuilder builder(num_users, num_items);
  for (const auto& t : triples) builder.Add(t);
  auto train = builder.Build();

  auto gis_in = SectionStream(sections[2]);
  const std::uint64_t gis_items = ReadU64(gis_in);
  if (gis_items != num_items) {
    throw util::IoError("model file corrupt: GIS shape mismatch");
  }
  std::vector<std::vector<sim::Neighbor>> rows(gis_items);
  for (auto& row : rows) ReadVector(gis_in, kSanityCap, &row);
  auto gis = sim::GlobalItemSimilarity::FromRows(std::move(rows), config.gis);

  auto assignments_in = SectionStream(sections[3]);
  std::vector<std::uint32_t> assignments;
  ReadVector(assignments_in, kSanityCap, &assignments);
  if (assignments.size() != num_users) {
    throw util::IoError("model file corrupt: assignment count mismatch");
  }
  return CfsfModel::Restore(config, std::move(train), std::move(gis),
                            std::move(assignments));
}

// Header validation shared by LoadModel and VerifyModel.
void CheckHeader(std::string_view data, const std::string& path) {
  if (data.size() < kHeaderBytes) {
    throw util::IoError("model file truncated in header: " + path);
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    throw util::IoError("not a CFSF model file: " + path);
  }
  std::uint32_t version = 0;
  std::memcpy(&version, data.data() + sizeof(kMagic), sizeof(version));
  if (version != kModelFormatVersion) {
    throw util::IoError("unsupported model format version " +
                        std::to_string(version));
  }
}

}  // namespace

void SaveModel(const CfsfModel& model, const std::string& path) {
  CFSF_REQUIRE(model.fitted(), "SaveModel requires a fitted model");
  const auto sections = SerializeSections(model);
  // The bundle goes out as pieces pointing into `sections` and the
  // frame fields below, so no second copy of it is built.
  const std::uint32_t version = kModelFormatVersion;
  std::array<std::uint64_t, kNumSections> payload_bytes{};
  std::array<std::uint32_t, kNumSections> crcs{};
  std::vector<std::string_view> pieces = {util::AsBytes(kMagic),
                                          util::AsBytes(version)};
  for (std::size_t i = 0; i < kNumSections; ++i) {
    payload_bytes[i] = sections[i].size();
    crcs[i] = util::Crc32(sections[i]);
    pieces.insert(pieces.end(), {util::AsBytes(payload_bytes[i]),
                                 sections[i], util::AsBytes(crcs[i])});
  }
  util::Crc32Accumulator file_crc;
  for (const std::string_view piece : pieces) file_crc.Update(piece);
  const std::uint32_t trailer = file_crc.value();
  pieces.push_back(util::AsBytes(trailer));

  CFSF_FAILPOINT("model_io.save.write");
  const std::filesystem::path target(path);
  util::WriteFileDurably(target.parent_path().string(),
                         target.filename().string(), pieces);
}

std::unique_ptr<CfsfModel> LoadModel(const std::string& path) {
  const std::string data = ReadFileBytes(path);
  CheckHeader(data, path);
  return BuildFromSections(WalkSections(data));
}

VerifyReport VerifyModel(const std::string& path) {
  const std::string data = ReadFileBytes(path);
  VerifyReport report;
  report.file_bytes = data.size();
  CheckHeader(data, path);
  report.version = kModelFormatVersion;
  const auto sections = WalkSections(data);
  report.sections.reserve(kNumSections);
  for (std::size_t i = 0; i < kNumSections; ++i) {
    report.sections.push_back(VerifyReport::Section{
        kSectionNames[i], sections[i].payload.size(), sections[i].crc});
  }
  return report;
}

}  // namespace cfsf::core
