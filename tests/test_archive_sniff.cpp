// Table-driven pin of the archive-kind sniff (io::sniff_archive) against
// `rmpc decompress`: every case asserts the kind the sniff reports and
// the exit code the tool returns for the same file, and every successful
// decode is compared with a clean reference.  RMPC_BINARY is injected by
// CMake.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/container.hpp"
#include "io/sequence_file.hpp"
#include "legacy_formats.hpp"
#include "tools/exit_codes.hpp"

namespace rmp {
namespace {

namespace fs = std::filesystem;

#ifndef RMPC_BINARY
#error "RMPC_BINARY must be defined by the build"
#endif

std::string quoted(const fs::path& p) { return "\"" + p.string() + "\""; }

int rmpc_exit_code(const std::string& args) {
  const std::string command =
      std::string(RMPC_BINARY) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spill(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(value));
}

template <typename T>
T get(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  T value{};
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

class ArchiveSniffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("rmp_sniff_" + std::to_string(::getpid()) + "_" + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    std::vector<double> data(16 * 16 * 16);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = std::sin(0.01 * static_cast<double>(i)) * 40.0;
    }
    const fs::path input = dir_ / "input.f64";
    {
      std::ofstream file(input, std::ios::binary);
      file.write(reinterpret_cast<const char*>(data.data()),
                 static_cast<std::streamsize>(data.size() * sizeof(double)));
    }
    const std::string tail = " --dims 16,16,16 --method pca";
    ASSERT_EQ(rmpc_exit_code("compress " + quoted(input) + " " +
                             quoted(dir_ / "v3.rmp") + tail),
              0);
    ASSERT_EQ(rmpc_exit_code("sequence " + quoted(input) + " " +
                             quoted(input) + " " + quoted(input) + " " +
                             quoted(dir_ / "seq.rmps") + tail),
              0);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ArchiveSniffTest, ClassifiesEveryArchiveKindLikeDecompress) {
  using io::ArchiveKind;
  const auto v3 = slurp(dir_ / "v3.rmp");
  const auto seq = slurp(dir_ / "seq.rmps");
  ASSERT_GT(v3.size(), 100u);

  // Derived files.  The sequence trailer is [entries][count u64][magic].
  spill(dir_ / "v2.rmp", testing::serialize_v2(io::deserialize(v3)));
  spill(dir_ / "v4.rmp",
        testing::serialize_v4(io::deserialize(v3), /*with_parity=*/true));
  auto trailing = v3;
  trailing.insert(trailing.end(), 7, 0xAB);
  spill(dir_ / "trailing.rmp", trailing);
  spill(dir_ / "truncated.rmp", {v3.begin(), v3.end() - 100});
  spill(dir_ / "empty.rmp", {});

  const auto count = get<std::uint64_t>(seq, seq.size() - 16);
  ASSERT_EQ(count, 3u);
  const std::size_t data_end = seq.size() - 16 - count * 20;
  std::vector<std::uint8_t> legacy(seq.begin(), seq.begin() + data_end);
  std::vector<std::uint8_t> markerless;
  for (std::size_t i = 0; i < count; ++i) {
    const auto offset = get<std::uint64_t>(seq, data_end + i * 20);
    const auto size = get<std::uint64_t>(seq, data_end + i * 20 + 8);
    put(legacy, offset);
    put(legacy, size);
    markerless.insert(markerless.end(), seq.begin() + offset,
                      seq.begin() + offset + size);
  }
  put(legacy, count);
  put(legacy, std::uint64_t{0x51455351504D5252});  // "RRMPQSEQ"
  spill(dir_ / "seq_legacy.rmps", legacy);
  spill(dir_ / "seq_cut5.rmps", {seq.begin(), seq.end() - 5});
  spill(dir_ / "seq_journal.rmps", {seq.begin(), seq.begin() + data_end});
  spill(dir_ / "seq_markerless.rmps", markerless);
  auto hostile = seq;
  const std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(hostile.data() + data_end + 8, &huge, sizeof(huge));
  spill(dir_ / "seq_hostile.rmps", hostile);

  // Clean references: what a plain container and the intact sequence
  // decode to.
  ASSERT_EQ(rmpc_exit_code("decompress " + quoted(dir_ / "v3.rmp") + " " +
                           quoted(dir_ / "container.ref")),
            0);
  ASSERT_EQ(rmpc_exit_code("decompress " + quoted(dir_ / "seq.rmps") + " " +
                           quoted(dir_ / "sequence.ref")),
            0);

  struct Case {
    const char* file;
    const char* extra;
    ArchiveKind kind;
    int exit_code;
    const char* reference;  ///< decode must equal this file; null: none
  };
  const Case cases[] = {
      {"v2.rmp", "", ArchiveKind::kContainer, tools::kExitOk,
       "container.ref"},
      {"v3.rmp", "", ArchiveKind::kContainer, tools::kExitOk,
       "container.ref"},
      {"v4.rmp", "", ArchiveKind::kContainer, tools::kExitOk,
       "container.ref"},
      {"trailing.rmp", "", ArchiveKind::kContainer, tools::kExitIntegrity,
       nullptr},
      {"truncated.rmp", "", ArchiveKind::kContainer, tools::kExitIntegrity,
       nullptr},
      {"seq.rmps", "", ArchiveKind::kSequence, tools::kExitOk,
       "sequence.ref"},
      {"seq_legacy.rmps", "", ArchiveKind::kSequence, tools::kExitOk,
       "sequence.ref"},
      {"seq_cut5.rmps", "", ArchiveKind::kTornSequence, tools::kExitOk,
       "sequence.ref"},
      {"seq_journal.rmps", "", ArchiveKind::kTornSequence, tools::kExitOk,
       "sequence.ref"},
      {"seq_markerless.rmps", "", ArchiveKind::kTornSequence, tools::kExitOk,
       "sequence.ref"},
      {"seq_hostile.rmps", "", ArchiveKind::kTornSequence, tools::kExitOk,
       "sequence.ref"},
      {"seq_cut5.rmps", " --step 1", ArchiveKind::kTornSequence,
       tools::kExitOk, "container.ref"},
      {"empty.rmp", "", ArchiveKind::kContainer, tools::kExitIntegrity,
       nullptr},
      {"v3.rmp", " --step 0", ArchiveKind::kContainer, tools::kExitUsage,
       nullptr},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.file) + c.extra);
    const fs::path file = dir_ / c.file;
    EXPECT_EQ(io::sniff_archive(file), c.kind);
    const fs::path out = dir_ / "out.f64";
    fs::remove(out);
    EXPECT_EQ(rmpc_exit_code("decompress " + quoted(file) + " " +
                             quoted(out) + c.extra),
              c.exit_code);
    if (c.reference != nullptr) {
      EXPECT_EQ(slurp(out), slurp(dir_ / c.reference));
    }
  }
}

TEST_F(ArchiveSniffTest, IndexRebuildCounterIsTruthful) {
  // Decoding a plain container rebuilds no index, so the counter stays
  // absent; a torn sequence rebuilds once and says so.
  const auto seq = slurp(dir_ / "seq.rmps");
  spill(dir_ / "torn.rmps", {seq.begin(), seq.end() - 5});
  const auto stats_after = [this](const char* archive) {
    const fs::path stats = dir_ / "stats.json";
    fs::remove(stats);
    EXPECT_EQ(rmpc_exit_code("decompress " + quoted(dir_ / archive) + " " +
                             quoted(dir_ / "out.f64") +
                             " --stats=" + quoted(stats)),
              0);
    const auto bytes = slurp(stats);
    return std::string(bytes.begin(), bytes.end());
  };
  const std::string plain = stats_after("v3.rmp");
  ASSERT_NE(plain.find("io.container.bytes_read"), std::string::npos);
  EXPECT_EQ(plain.find("io.sequence.index_rebuilds"), std::string::npos);
  EXPECT_NE(stats_after("torn.rmps").find("io.sequence.index_rebuilds"),
            std::string::npos);
}

}  // namespace
}  // namespace rmp
