// Random access into archives (DESIGN.md §12): reading legacy v4
// containers, and the thread-safe pread-backed SequenceReader behind its
// CRC'd trailer index.  Runs under the `fault` label so TSan covers the
// N-threads-one-reader paths, and ASan the torn-trailer / corrupt-chunk
// salvage paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "io/container.hpp"
#include "io/container_error.hpp"
#include "io/file_ops.hpp"
#include "io/sequence_file.hpp"
#include "legacy_formats.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp {
namespace {

namespace fs = std::filesystem;

/// Pass-through FileOps that counts the bytes pread returns -- the
/// accounting behind the O(step K) random-access guarantee.
class CountingFileOps : public io::FileOps {
 public:
  int open(const std::string& path, int flags,
           unsigned mode) noexcept override {
    return base_.open(path, flags, mode);
  }
  long write(int fd, const void* data, std::size_t size) noexcept override {
    return base_.write(fd, data, size);
  }
  long pread(int fd, void* data, std::size_t size,
             std::uint64_t offset) noexcept override {
    const long n = base_.pread(fd, data, size, offset);
    if (n > 0) bytes_read_ += static_cast<std::uint64_t>(n);
    return n;
  }
  long fsize(int fd) noexcept override { return base_.fsize(fd); }
  int fsync(int fd) noexcept override { return base_.fsync(fd); }
  int close(int fd) noexcept override { return base_.close(fd); }
  int rename(const std::string& from,
             const std::string& to) noexcept override {
    return base_.rename(from, to);
  }
  int unlink(const std::string& path) noexcept override {
    return base_.unlink(path);
  }
  int ftruncate(int fd, std::uint64_t size) noexcept override {
    return base_.ftruncate(fd, size);
  }

  std::uint64_t bytes_read() const noexcept { return bytes_read_; }
  void reset() noexcept { bytes_read_ = 0; }

 private:
  io::FileOps& base_ = io::real_file_ops();
  std::atomic<std::uint64_t> bytes_read_{0};
};

struct ScopedFileOps {
  explicit ScopedFileOps(io::FileOps& ops) {
    previous = io::set_file_ops(&ops);
  }
  ~ScopedFileOps() { io::set_file_ops(previous); }
  io::FileOps* previous = nullptr;
};

class SeekDecodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::temp_directory_path() /
            ("rmp_seek_" + std::to_string(::getpid()) + ".rmps");
    fs::remove(path_);
    fs::remove(io::sequence_journal_path(path_));
  }
  void TearDown() override {
    fs::remove(path_);
    fs::remove(io::sequence_journal_path(path_));
  }

  /// A container with recognizable per-step payload bytes.
  static io::Container sample(std::size_t i, std::size_t payload = 256) {
    io::Container c;
    c.method = "step" + std::to_string(i);
    c.nx = i + 1;
    std::vector<std::uint8_t> data(payload);
    for (std::size_t b = 0; b < payload; ++b) {
      data[b] = static_cast<std::uint8_t>((i * 131 + b) & 0xff);
    }
    c.add("data", std::move(data));
    c.add("tag", {static_cast<std::uint8_t>(i)});
    return c;
  }

  void write_sequence(std::size_t steps, std::size_t payload = 256) {
    io::SequenceWriter writer(path_);
    for (std::size_t i = 0; i < steps; ++i) writer.append(sample(i, payload));
    writer.finish();
  }

  fs::path path_;
};

// ---------------------------------------------------------------------------
// Legacy v4 containers (per-section offsets in the directory)

TEST_F(SeekDecodeTest, V4RoundTripMatchesV3Content) {
  const io::Container original = sample(3);
  const auto v4_bytes = testing::serialize_v4(original);
  const auto v3_bytes = io::serialize(original);
  EXPECT_NE(v4_bytes, v3_bytes);  // v4 carries the per-section offsets

  io::ReadReport report;
  const io::Container decoded = io::deserialize(v4_bytes, &report);
  EXPECT_EQ(report.version, 4u);
  EXPECT_EQ(decoded.method, original.method);
  ASSERT_EQ(decoded.sections.size(), original.sections.size());
  for (std::size_t s = 0; s < decoded.sections.size(); ++s) {
    EXPECT_EQ(decoded.sections[s].bytes, original.sections[s].bytes);
  }

  io::ReadReport v3_report;
  io::deserialize(v3_bytes, &v3_report);
  EXPECT_EQ(v3_report.version, 3u);
}

TEST_F(SeekDecodeTest, V4WithParityStillRepairs) {
  const io::Container original = sample(5);
  auto bytes = testing::serialize_v4(original, /*with_parity=*/true);
  // Flip one payload byte near the end (section data lives at the tail).
  bytes[bytes.size() / 2] ^= 0x20;
  io::ReadReport report;
  const io::Container decoded = io::deserialize(bytes, &report);
  EXPECT_EQ(decoded.find("data")->bytes, original.find("data")->bytes);
}

// ---------------------------------------------------------------------------
// Thread-safe SequenceReader

TEST_F(SeekDecodeTest, OneReaderSharedByManyThreads) {
  constexpr std::size_t kSteps = 16;
  constexpr std::size_t kThreads = 8;
  write_sequence(kSteps);

  const io::SequenceReader reader(path_);
  ASSERT_EQ(reader.step_count(), kSteps);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread reads every step, rotated so accesses interleave and
      // overlap across threads.
      for (std::size_t round = 0; round < 4; ++round) {
        for (std::size_t i = 0; i < kSteps; ++i) {
          const std::size_t step = (i + t) % kSteps;
          const io::Container c = reader.read_step(step);
          if (c.method != "step" + std::to_string(step) ||
              c.find("data")->bytes != sample(step).find("data")->bytes) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(SeekDecodeTest, ReadStepTouchesOnlyThatStepsBytes) {
  constexpr std::size_t kSteps = 8;
  constexpr std::size_t kPayload = 8192;
  write_sequence(kSteps, kPayload);
  const auto file_size = fs::file_size(path_);

  CountingFileOps counting;
  ScopedFileOps install(counting);
  const io::SequenceReader reader(path_);
  const io::StepInfo& info = reader.step_info(3);

  counting.reset();
  const auto bytes = reader.read_step_bytes(3);
  EXPECT_EQ(bytes.size(), info.size);
  // O(step K): exactly the indexed bytes, not the archive.
  EXPECT_EQ(counting.bytes_read(), info.size);
  EXPECT_LT(counting.bytes_read(), file_size / 4);
}

TEST_F(SeekDecodeTest, OversizedIndexEntryFailsTypedBeforeAllocating) {
  write_sequence(3);
  // Fabricate a hostile trailer: entry 0 claims a size far beyond the
  // file.  It must fail the open-time bounds check, so no read is ever
  // sized from it.
  const io::SequenceReader good(path_);
  const io::StepInfo& entry = good.step_info(0);
  std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
  const auto trailer_start = static_cast<std::streamoff>(
      fs::file_size(path_) - 16 - 3 * 20);
  const std::uint64_t huge = entry.offset + (1ull << 60);
  file.seekp(trailer_start + 8);  // entry 0's size column
  file.write(reinterpret_cast<const char*>(&huge), 8);
  file.close();

  // The sniff does not class the tampered file as an intact sequence;
  // the commit markers still make it a torn one.
  EXPECT_EQ(io::sniff_archive(path_), io::ArchiveKind::kTornSequence);
  // The reader drops the hostile index and rebuilds from the markers:
  // every step keeps its true size.
  const io::SequenceReader reader(path_);
  EXPECT_TRUE(reader.index_rebuilt());
  ASSERT_EQ(reader.step_count(), 3u);
  EXPECT_EQ(reader.step_info(0).size, entry.size);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reader.read_step(i).method, "step" + std::to_string(i));
  }

  // With no steps to rebuild from (the hostile trailer alone), the file is
  // no sequence at all, and opening it anyway fails typed.
  {
    std::ofstream alone(path_, std::ios::binary | std::ios::trunc);
    const std::uint64_t words[] = {0, huge, 1, 0x32455351504D5252ULL};
    alone.write(reinterpret_cast<const char*>(&words[0]), 16);
    alone.write("\0\0\0\0", 4);  // entry 0's crc column
    alone.write(reinterpret_cast<const char*>(&words[2]), 16);
  }
  EXPECT_EQ(io::sniff_archive(path_), io::ArchiveKind::kContainer);
  try {
    const io::SequenceReader hostile(path_);
    FAIL() << "hostile index entry was accepted";
  } catch (const io::ContainerError& error) {
    EXPECT_EQ(error.code(), io::ContainerErrc::kIndexCorrupt);
  }
}

TEST_F(SeekDecodeTest, TruncationInsideTrailerRoutesToRebuild) {
  write_sequence(4);
  // Cut 5 bytes out of the trailer itself: the count/magic probe now
  // reads garbage offsets, and the entry read comes up short.  Both must
  // land in the rebuild path, not produce an index from stale bytes.
  fs::resize_file(path_, fs::file_size(path_) - 5);

  const io::SequenceReader reader(path_);
  EXPECT_TRUE(reader.index_rebuilt());
  ASSERT_EQ(reader.step_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(reader.read_step(i).method, "step" + std::to_string(i));
  }
}

TEST_F(SeekDecodeTest, CorruptChunkCrcIsCountedAndSalvageSkipsTheStep) {
  write_sequence(3);
  const io::SequenceReader locate(path_);
  const io::StepInfo target = locate.step_info(1);
  ASSERT_TRUE(target.has_crc);
  {
    // Flip a byte inside step 1's payload region.
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    const auto at = static_cast<std::streamoff>(target.offset + target.size -
                                                1);
    file.seekg(at);
    char b = 0;
    file.read(&b, 1);
    b = static_cast<char>(b ^ 0x11);
    file.seekp(at);
    file.write(&b, 1);
  }

  obs::set_enabled(true);
  const auto mismatches_before = obs::Registry::global().counter_value(
      "io.sequence.step_crc_mismatch");
  const io::SequenceReader reader(path_);
  EXPECT_THROW(reader.read_step(1), io::ContainerError);
  EXPECT_GT(obs::Registry::global().counter_value(
                "io.sequence.step_crc_mismatch"),
            mismatches_before);

  io::SequenceScanReport report;
  const auto survivors = reader.read_all_salvage(&report);
  EXPECT_EQ(survivors.size(), 2u);
  ASSERT_EQ(report.steps.size(), 3u);
  EXPECT_TRUE(report.steps[0].ok);
  EXPECT_FALSE(report.steps[1].ok);
  EXPECT_TRUE(report.steps[2].ok);
}

TEST_F(SeekDecodeTest, LegacyPreCrcTrailerStillReads) {
  write_sequence(3);
  // Rewrite the trailer in the legacy format: 16-byte (offset, size)
  // entries and the pre-CRC magic.  Archives written before the chunk
  // index must keep reading back unchanged.
  std::vector<io::StepInfo> entries;
  {
    const io::SequenceReader reader(path_);
    for (std::size_t i = 0; i < reader.step_count(); ++i) {
      entries.push_back(reader.step_info(i));
    }
  }
  const std::uint64_t data_end =
      fs::file_size(path_) - 16 - entries.size() * 20;
  fs::resize_file(path_, data_end);
  std::ofstream file(path_, std::ios::binary | std::ios::app);
  for (const io::StepInfo& entry : entries) {
    file.write(reinterpret_cast<const char*>(&entry.offset), 8);
    file.write(reinterpret_cast<const char*>(&entry.size), 8);
  }
  const std::uint64_t count = entries.size();
  const std::uint64_t legacy_magic = 0x51455351504D5252ULL;  // "RRMPQSEQ"
  file.write(reinterpret_cast<const char*>(&count), 8);
  file.write(reinterpret_cast<const char*>(&legacy_magic), 8);
  file.close();

  const io::SequenceReader reader(path_);
  EXPECT_FALSE(reader.index_rebuilt());
  ASSERT_EQ(reader.step_count(), 3u);
  EXPECT_FALSE(reader.step_info(0).has_crc);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reader.read_step(i).method, "step" + std::to_string(i));
  }
}

TEST_F(SeekDecodeTest, ParallelFetchMatchesSerialAcrossThreadCounts) {
  constexpr std::size_t kSteps = 12;
  write_sequence(kSteps, 1024);
  const io::SequenceReader reader(path_);

  // Serial reference: the plain one-at-a-time read path.
  const std::vector<io::Container> serial = reader.read_all();
  ASSERT_EQ(serial.size(), kSteps);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    parallel::ThreadPool pool(threads);
    std::vector<io::Container> steps(kSteps);
    // Disjoint scatter: element i is only touched by the body for i.
    pool.parallel_for(
        kSteps, [&](std::size_t i) { steps[i] = reader.read_step(i); },
        /*grain=*/1);
    for (std::size_t i = 0; i < kSteps; ++i) {
      // Byte-identical to serial decode, independent of thread count.
      EXPECT_EQ(io::serialize(steps[i]), io::serialize(serial[i]))
          << "step " << i << " with " << threads << " threads";
    }
  }
}

TEST_F(SeekDecodeTest, SeekableSequenceStepsCarryTheirOwnChunkIndex) {
  // Sequences whose steps are v4 containers read step by step like any
  // other.
  std::vector<std::vector<std::uint8_t>> steps;
  for (std::size_t i = 0; i < 3; ++i) {
    steps.push_back(testing::serialize_v4(sample(i), /*with_parity=*/true));
  }
  io::write_sequence_archive(path_, steps);
  const io::SequenceReader reader(path_);
  ASSERT_EQ(reader.step_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    io::ReadReport report;
    const io::Container step = io::deserialize(reader.read_step_bytes(i),
                                               &report);
    EXPECT_EQ(report.version, 4u);
    EXPECT_EQ(io::serialize(step), io::serialize(sample(i))) << "step " << i;
  }
}

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// The committed v4 archives were written by `rmpc compress --seekable` and
// `rmpc sequence --seekable` before that flag went; the test helper must
// reproduce their bytes exactly, or the v4-read tests above would pin a
// format nobody wrote.  (test_precond_golden pins what they decode to.)
TEST(LegacyV4Fixtures, TestWriterReproducesTheRetiredWriter) {
  const auto container_bytes =
      slurp(RMP_TEST_DATA_DIR "/legacy_v4_pca_16.rmp");
  io::ReadReport report;
  const io::Container container = io::deserialize(container_bytes, &report);
  EXPECT_EQ(report.version, 4u);
  EXPECT_TRUE(report.parity_present);
  EXPECT_EQ(testing::serialize_v4(container, /*with_parity=*/true),
            container_bytes);

  const io::SequenceReader reader(RMP_TEST_DATA_DIR
                                  "/legacy_v4_pca_16x3.rmps");
  ASSERT_EQ(reader.step_count(), 3u);
  for (std::size_t i = 0; i < reader.step_count(); ++i) {
    const auto step_bytes = reader.read_step_bytes(i);
    EXPECT_EQ(testing::serialize_v4(io::deserialize(step_bytes),
                                    /*with_parity=*/true),
              step_bytes)
        << "step " << i;
  }
}

}  // namespace
}  // namespace rmp
