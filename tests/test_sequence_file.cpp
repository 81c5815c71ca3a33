#include "io/sequence_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "compress/factory.hpp"
#include "core/temporal.hpp"
#include "sim/heat.hpp"
#include "stats/metrics.hpp"

namespace rmp::io {
namespace {

namespace fs = std::filesystem;

class SequenceFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::temp_directory_path() /
            ("rmp_seq_" + std::to_string(::getpid()) + ".rmps");
    ref_path_ = fs::temp_directory_path() /
                ("rmp_seq_ref_" + std::to_string(::getpid()) + ".rmps");
  }
  void TearDown() override {
    fs::remove(path_);
    fs::remove(sequence_journal_path(path_));
    fs::remove(ref_path_);
    fs::remove(sequence_journal_path(ref_path_));
  }

  static Container sample(int i) {
    Container c;
    c.method = "step" + std::to_string(i);
    c.nx = static_cast<std::uint64_t>(i + 1);
    c.add("data", std::vector<std::uint8_t>(static_cast<std::size_t>(i * 3),
                                            static_cast<std::uint8_t>(i)));
    return c;
  }

  static std::vector<char> slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    std::vector<char> bytes(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return bytes;
  }

  fs::path path_;
  fs::path ref_path_;
};

TEST_F(SequenceFileTest, WriteReadRoundTrip) {
  {
    SequenceWriter writer(path_);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(writer.append(sample(i)), static_cast<std::size_t>(i));
    }
    writer.finish();
  }
  SequenceReader reader(path_);
  ASSERT_EQ(reader.step_count(), 5u);
  for (int i = 0; i < 5; ++i) {
    const Container c = reader.read_step(static_cast<std::size_t>(i));
    EXPECT_EQ(c.method, "step" + std::to_string(i));
    EXPECT_EQ(c.nx, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(c.find("data")->bytes.size(), static_cast<std::size_t>(i * 3));
  }
}

TEST_F(SequenceFileTest, RandomAccessOutOfOrder) {
  {
    SequenceWriter writer(path_);
    for (int i = 0; i < 8; ++i) writer.append(sample(i));
    writer.finish();
  }
  SequenceReader reader(path_);
  EXPECT_EQ(reader.read_step(6).method, "step6");
  EXPECT_EQ(reader.read_step(0).method, "step0");
  EXPECT_EQ(reader.read_step(7).method, "step7");
  EXPECT_THROW(reader.read_step(8), std::out_of_range);
}

TEST_F(SequenceFileTest, EmptySequence) {
  {
    SequenceWriter writer(path_);
    writer.finish();
  }
  SequenceReader reader(path_);
  EXPECT_EQ(reader.step_count(), 0u);
  EXPECT_TRUE(reader.read_all().empty());
}

TEST_F(SequenceFileTest, DestructorCommitsPrefixForResume) {
  // An abandoned writer must never half-publish: the destination stays
  // untouched and the journal keeps the committed steps for resume().
  { SequenceWriter writer(path_); writer.append(sample(1)); }
  EXPECT_FALSE(fs::exists(path_));
  ASSERT_TRUE(fs::exists(sequence_journal_path(path_)));

  auto writer = SequenceWriter::resume(path_);
  EXPECT_EQ(writer.steps_written(), 1u);
  writer.finish();
  SequenceReader reader(path_);
  ASSERT_EQ(reader.step_count(), 1u);
  EXPECT_EQ(reader.read_step(0).method, "step1");
}

TEST_F(SequenceFileTest, ResumeProducesByteIdenticalArchive) {
  {
    SequenceWriter writer(ref_path_);
    for (int i = 0; i < 3; ++i) writer.append(sample(i));
    writer.finish();
  }
  {
    SequenceWriter writer(path_);
    writer.append(sample(0));
    writer.append(sample(1));
    // Abandoned here: destructor commits the two-step prefix.
  }
  auto writer = SequenceWriter::resume(path_);
  ASSERT_EQ(writer.steps_written(), 2u);
  writer.append(sample(2));
  writer.finish();
  EXPECT_EQ(slurp(path_), slurp(ref_path_));
  EXPECT_FALSE(fs::exists(sequence_journal_path(path_)));
}

TEST_F(SequenceFileTest, ResumeTruncatesTornTail) {
  { SequenceWriter writer(path_); writer.append(sample(4)); }
  // Simulate a crash mid-append: garbage glued after the committed step.
  {
    std::ofstream tail(sequence_journal_path(path_),
                       std::ios::binary | std::ios::app);
    tail << "half-written step from a run that died mid-write";
  }
  auto writer = SequenceWriter::resume(path_);
  EXPECT_EQ(writer.steps_written(), 1u);
  writer.append(sample(5));
  writer.finish();

  SequenceReader reader(path_);
  ASSERT_EQ(reader.step_count(), 2u);
  EXPECT_EQ(reader.read_step(0).method, "step4");
  EXPECT_EQ(reader.read_step(1).method, "step5");
}

TEST_F(SequenceFileTest, ResumeWithoutJournalThrows) {
  try {
    auto writer = SequenceWriter::resume(path_);
    FAIL() << "resume invented a journal out of thin air";
  } catch (const ContainerError& e) {
    EXPECT_EQ(e.code(), ContainerErrc::kIoError);
  }
}

TEST_F(SequenceFileTest, SecondWriterOnSamePathIsRejected) {
  SequenceWriter first(path_);
  try {
    SequenceWriter second(path_);
    FAIL() << "two writers shared one journal";
  } catch (const ContainerError& e) {
    EXPECT_EQ(e.code(), ContainerErrc::kIoError);
    EXPECT_NE(std::string(e.what()).find("already exists"), std::string::npos);
  }
  first.finish();
}

TEST_F(SequenceFileTest, ScanJournalToleratesGarbage) {
  const std::vector<std::uint8_t> junk(513, 0xA5);
  const JournalScan scan = scan_sequence_journal(junk);
  EXPECT_TRUE(scan.entries.empty());
  EXPECT_EQ(scan.committed_bytes, 0u);
  EXPECT_EQ(scan.torn_bytes, junk.size());
  EXPECT_TRUE(scan_sequence_journal({}).entries.empty());
}

TEST_F(SequenceFileTest, AppendAfterFinishThrows) {
  SequenceWriter writer(path_);
  writer.finish();
  EXPECT_THROW(writer.append(sample(0)), std::logic_error);
}

TEST_F(SequenceFileTest, RejectsGarbageFile) {
  {
    std::ofstream file(path_, std::ios::binary);
    file << "this is not a sequence file at all, not even close";
  }
  EXPECT_THROW(SequenceReader reader(path_), std::runtime_error);
}

TEST_F(SequenceFileTest, RejectsMissingFile) {
  EXPECT_THROW(SequenceReader reader(path_ / "nope"), std::runtime_error);
}

TEST_F(SequenceFileTest, CorruptedStepIsDetected) {
  {
    SequenceWriter writer(path_);
    writer.append(sample(3));
    writer.finish();
  }
  // Flip a byte inside the first container's payload region.
  {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(10);
    char b;
    file.seekg(10);
    file.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    file.seekp(10);
    file.write(&b, 1);
  }
  SequenceReader reader(path_);
  EXPECT_THROW(reader.read_step(0), std::runtime_error);
}

TEST_F(SequenceFileTest, WriterLeavesNoTempFileBehind) {
  {
    SequenceWriter writer(path_);
    writer.append(sample(2));
    writer.finish();
  }
  EXPECT_TRUE(fs::exists(path_));
  EXPECT_FALSE(fs::exists(sequence_journal_path(path_)));
}

TEST_F(SequenceFileTest, MissingTrailerIndexIsRebuilt) {
  {
    SequenceWriter writer(path_);
    for (int i = 0; i < 4; ++i) writer.append(sample(i));
    writer.finish();
  }
  // Chop off the index + trailer (count/magic plus four 20-byte
  // offset/size/crc entries), as if the writer crashed mid-finish.
  const auto full = fs::file_size(path_);
  fs::resize_file(path_, full - (16 + 4 * 20));

  SequenceReader reader(path_);
  EXPECT_TRUE(reader.index_rebuilt());
  ASSERT_EQ(reader.step_count(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(reader.read_step(static_cast<std::size_t>(i)).method,
              "step" + std::to_string(i));
  }
}

TEST_F(SequenceFileTest, RebuildCanBeDisabled) {
  {
    SequenceWriter writer(path_);
    writer.append(sample(1));
    writer.finish();
  }
  fs::resize_file(path_, fs::file_size(path_) - (16 + 20));
  // A caller that must not rebuild sniffs first: the trailer-less file is
  // never classed as an intact sequence, only as a torn one (its one step
  // still carries its commit marker).
  EXPECT_EQ(sniff_archive(path_), ArchiveKind::kTornSequence);
  const SequenceReader reader(path_);
  EXPECT_TRUE(reader.index_rebuilt());
  ASSERT_EQ(reader.step_count(), 1u);
  EXPECT_EQ(reader.read_step(0).method, "step1");
}

TEST_F(SequenceFileTest, CorruptMiddleStepIsSkippedAndReported) {
  {
    SequenceWriter writer(path_);
    for (int i = 1; i <= 3; ++i) writer.append(sample(i));
    writer.finish();
  }
  // Flip the last payload byte of step 1 (v3 keeps payloads at the end of
  // each serialized container, so the step's final byte is section data).
  // Each on-disk step is the container plus its commit marker.
  const auto step0_size =
      serialize(sample(1)).size() + kSequenceCommitMarkerBytes;
  const auto step1_size = serialize(sample(2)).size();
  {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    const auto target =
        static_cast<std::streamoff>(step0_size + step1_size - 1);
    file.seekg(target);
    char b = 0;
    file.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    file.seekp(target);
    file.write(&b, 1);
  }

  SequenceReader reader(path_);
  SequenceScanReport report;
  const auto steps = reader.read_all_salvage(&report);
  ASSERT_EQ(report.steps.size(), 3u);
  EXPECT_EQ(report.ok_count(), 2u);
  EXPECT_TRUE(report.steps[0].ok);
  EXPECT_FALSE(report.steps[1].ok);
  EXPECT_TRUE(report.steps[2].ok);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].method, "step1");
  EXPECT_EQ(steps[1].method, "step3");
}

TEST_F(SequenceFileTest, TruncatedMidWriteRecoversCompletePrefix) {
  // Simulate a crash mid-append: three whole containers, then half of a
  // fourth, and no trailer.
  {
    std::ofstream file(path_, std::ios::binary | std::ios::trunc);
    for (int i = 0; i < 3; ++i) {
      const auto bytes = serialize(sample(i));
      file.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    }
    const auto partial = serialize(sample(7));
    file.write(reinterpret_cast<const char*>(partial.data()),
               static_cast<std::streamsize>(partial.size() / 2));
  }

  SequenceReader reader(path_);
  EXPECT_TRUE(reader.index_rebuilt());
  ASSERT_EQ(reader.step_count(), 3u);
  SequenceScanReport report;
  const auto steps = reader.read_all_salvage(&report);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(report.ok_count(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(steps[static_cast<std::size_t>(i)].method,
              "step" + std::to_string(i));
  }
}

TEST_F(SequenceFileTest, TemporalPipelineEndToEnd) {
  // Full workflow: snapshots -> temporal encode -> sequence file ->
  // read back -> temporal decode.
  sim::HeatConfig config;
  config.n = 12;
  config.steps = 80;
  const auto snapshots = sim::heat3d_snapshots(config, 4);

  const auto reduced = compress::make_zfp_original();
  const auto delta = compress::make_zfp_delta();
  const core::CodecPair codecs{reduced.get(), delta.get()};
  const auto sequence = core::temporal_encode(snapshots, codecs);

  {
    SequenceWriter writer(path_);
    for (const auto& step : sequence.steps) writer.append(step);
    writer.finish();
  }

  SequenceReader reader(path_);
  core::TemporalSequence loaded;
  loaded.steps = reader.read_all();
  const auto decoded = core::temporal_decode(loaded, codecs);
  ASSERT_EQ(decoded.size(), snapshots.size());
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    EXPECT_LT(stats::rmse(snapshots[s].flat(), decoded[s].flat()), 1.0);
  }
}

}  // namespace
}  // namespace rmp::io
