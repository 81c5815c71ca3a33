// Byte-identity pins for the reduced-model preconditioners.  Each entry is
// the size and CRC-32 of io::serialize() output on one fixed field; a
// refactor of the encode path must leave every one unchanged.  The legacy
// fixtures are archives no current writer produces, kept with the CRC of
// the doubles they decode to so their decode-only readers stay covered: a
// blocked-pca archive written by the per-block encoder (one serialized
// inner container per row block, no global delta), and a v4 container and
// v4-step sequence (per-section offsets in every directory).
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <random>

#include "compress/factory.hpp"
#include "core/pipeline.hpp"
#include "io/checksum.hpp"
#include "io/container.hpp"
#include "io/sequence_file.hpp"

namespace rmp::core {
namespace {

struct Codecs {
  std::unique_ptr<compress::Compressor> reduced;
  std::unique_ptr<compress::Compressor> delta;
  CodecPair pair() const { return {reduced.get(), delta.get()}; }
};

Codecs sz_pair() {
  return {compress::make_sz_original(), compress::make_sz_delta()};
}
Codecs zfp_pair() {
  return {compress::make_zfp_original(), compress::make_zfp_delta()};
}

// Smooth low-order structure plus a little seeded noise; polynomial only,
// so the values do not depend on the platform's libm.
sim::Field golden_field() {
  sim::Field f(16, 16, 16);
  std::mt19937_64 rng(2019);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      for (std::size_t k = 0; k < 16; ++k) {
        const double x = static_cast<double>(i) / 15.0;
        const double y = static_cast<double>(j) / 15.0;
        const double z = static_cast<double>(k) / 15.0;
        const double noise =
            static_cast<double>(rng() >> 11) / 9007199254740992.0;
        f.at(i, j, k) =
            1.0 + x * y + 0.5 * z * z * x - 0.25 * y * z + 1e-3 * noise;
      }
    }
  }
  return f;
}

struct Pin {
  const char* method;
  std::size_t sz_size;
  std::uint32_t sz_crc;
  std::size_t zfp_size;
  std::uint32_t zfp_crc;
};

constexpr Pin kPins[] = {
    {"pca", 3566u, 0x0CFD7F4Cu, 1347u, 0x5CDA31E7u},
    {"svd", 3082u, 0x85C3B0A5u, 1165u, 0xF35E24F6u},
    {"wavelet", 1900u, 0x36A6E3E4u, 637u, 0x9DFA7D9Du},
    {"tucker", 3311u, 0x20C7C7D0u, 1373u, 0x928317ABu},
    {"pca-part", 9905u, 0xADD502AFu, 3718u, 0x92C5DC72u},
    {"one-base", 3030u, 0x43E5D55Eu, 736u, 0x96878BE9u},
    {"multi-base", 5588u, 0x75D12182u, 1025u, 0x3EDCEEBAu},
    {"duomodel", 2591u, 0x7DC73B47u, 578u, 0xD6B4995Au},
};

std::uint32_t field_crc(const sim::Field& field) {
  const auto* raw = reinterpret_cast<const std::uint8_t*>(field.flat().data());
  return io::crc32({raw, field.size() * sizeof(double)});
}

TEST(PrecondGolden, SerializedBytesArePinned) {
  const sim::Field field = golden_field();
  const Codecs sz = sz_pair();
  const Codecs zfp = zfp_pair();
  for (const Pin& pin : kPins) {
    const auto preconditioner = make_preconditioner(pin.method);
    const auto sz_bytes =
        io::serialize(preconditioner->encode(field, sz.pair(), nullptr));
    const auto zfp_bytes =
        io::serialize(preconditioner->encode(field, zfp.pair(), nullptr));
    EXPECT_EQ(sz_bytes.size(), pin.sz_size) << pin.method << " / sz";
    EXPECT_EQ(io::crc32(sz_bytes), pin.sz_crc) << pin.method << " / sz";
    EXPECT_EQ(zfp_bytes.size(), pin.zfp_size) << pin.method << " / zfp";
    EXPECT_EQ(io::crc32(zfp_bytes), pin.zfp_crc) << pin.method << " / zfp";
  }
}

// CRC-32 of the decoded doubles, so the decode path is pinned as well as
// the encoder.
struct DecodedPin {
  const char* method;
  std::uint32_t sz_crc;
  std::uint32_t zfp_crc;
};

constexpr DecodedPin kDecodedPins[] = {
    {"pca", 0xEDE2F410u, 0xC028CC8Eu},
    {"svd", 0x97F85940u, 0x5210CA27u},
    {"wavelet", 0x5179A4DFu, 0x32BD5DEFu},
    {"tucker", 0xA5B8AE0Eu, 0xA94531B1u},
    {"pca-part", 0x4EA03AA8u, 0x6F8E8B33u},
    {"one-base", 0xC315E467u, 0x80AF84FEu},
    {"multi-base", 0x05A3DBC1u, 0xFA0577B9u},
    {"duomodel", 0x5B42AA9Fu, 0xFD98FF34u},
};

TEST(PrecondGolden, DecodedFieldsArePinned) {
  const sim::Field field = golden_field();
  const Codecs sz = sz_pair();
  const Codecs zfp = zfp_pair();
  for (const DecodedPin& pin : kDecodedPins) {
    const auto preconditioner = make_preconditioner(pin.method);
    const sim::Field sz_field = preconditioner->decode(
        preconditioner->encode(field, sz.pair(), nullptr), sz.pair(), nullptr);
    const sim::Field zfp_field = preconditioner->decode(
        preconditioner->encode(field, zfp.pair(), nullptr), zfp.pair(),
        nullptr);
    EXPECT_EQ(field_crc(sz_field), pin.sz_crc) << pin.method << " / sz";
    EXPECT_EQ(field_crc(zfp_field), pin.zfp_crc) << pin.method << " / zfp";
  }
}

// A 1D field of prime length has a single-column canonical matrix; each
// pca-part block is then its own rows x 1 matrix, not a folded 1D signal.
TEST(PrecondGolden, SingleColumnPcaPartBytesArePinned) {
  sim::Field field(101, 1, 1);
  for (std::size_t n = 0; n < field.size(); ++n) {
    const double x = static_cast<double>(n) / 100.0;
    field.flat()[n] = 1.0 + x * (1.0 - x) * (0.5 + x);
  }
  const Codecs sz = sz_pair();
  const auto bytes = io::serialize(
      make_preconditioner("pca-part")->encode(field, sz.pair(), nullptr));
  EXPECT_EQ(bytes.size(), 1613u);
  EXPECT_EQ(io::crc32(bytes), 0xB627BF0Cu);
}

// blocked-<inner> and pca-part share one partition layout, so the two
// archives differ only in the method tag.
TEST(PrecondGolden, BlockedPcaIsPcaPartUnderItsOwnTag) {
  const sim::Field field = golden_field();
  const Codecs pairs[] = {sz_pair(), zfp_pair()};
  for (const Codecs& codecs : pairs) {
    io::Container blocked = make_preconditioner("blocked-pca")
                                ->encode(field, codecs.pair(), nullptr);
    const io::Container part = make_preconditioner("pca-part")
                                   ->encode(field, codecs.pair(), nullptr);
    EXPECT_EQ(blocked.method, "blocked-pca");
    blocked.method = part.method;
    EXPECT_EQ(io::serialize(blocked), io::serialize(part));
  }
}

// tests/data/legacy_blocked_pca_8.rmp: `rmpc compress --method blocked-pca
// --codec sz --dims 8,8,8` of the 8^3 field (i*64 + j*8 + k) / 512 + 1,
// written before blocked-* moved to the shared partition layout.
TEST(PrecondGolden, LegacyBlockedPcaArchiveDecodes) {
  const io::Container container =
      io::read_container(RMP_TEST_DATA_DIR "/legacy_blocked_pca_8.rmp");
  ASSERT_EQ(container.method, "blocked-pca");
  ASSERT_NE(container.find("block0"), nullptr);
  ASSERT_EQ(container.find("delta"), nullptr);

  const Codecs sz = sz_pair();
  const sim::Field decoded = reconstruct(container, sz.pair());
  ASSERT_EQ(decoded.size(), 512u);
  EXPECT_EQ(field_crc(decoded), 0xFF48C8CFu);
}

// tests/data/legacy_v4_pca_16.rmp and legacy_v4_pca_16x3.rmps: `rmpc
// compress --seekable` and `rmpc sequence --seekable` (--method pca
// --codec sz --dims 16,16,16, parity on), written while that flag still
// produced v4.  Step s of the sequence is the 16^3 field
// (sin(0.3 x) cos(0.2 y) + 0.05 z + 2) (1 + 0.1 s), x fastest; the
// container holds step 0.  Whole-sequence `rmpc decompress` wrote the
// steps concatenated, CRC 0xCBD26713.
TEST(PrecondGolden, LegacyV4ArchivesDecode) {
  const Codecs sz = sz_pair();
  io::ReadReport report;
  const io::Container container = io::deserialize(
      io::read_file_bytes(RMP_TEST_DATA_DIR "/legacy_v4_pca_16.rmp", "test"),
      &report);
  EXPECT_EQ(report.version, 4u);
  EXPECT_EQ(field_crc(reconstruct(container, sz.pair())), 0xD5346B54u);

  const io::SequenceReader reader(RMP_TEST_DATA_DIR
                                  "/legacy_v4_pca_16x3.rmps");
  ASSERT_EQ(reader.step_count(), 3u);
  constexpr std::uint32_t kStepCrcs[] = {0xD5346B54u, 0xCB1A5B5Eu,
                                         0x9DFAD812u};
  std::vector<double> all;
  for (std::size_t step = 0; step < reader.step_count(); ++step) {
    const sim::Field decoded = reconstruct(reader.read_step(step), sz.pair());
    ASSERT_EQ(decoded.size(), 4096u);
    EXPECT_EQ(field_crc(decoded), kStepCrcs[step]) << "step " << step;
    all.insert(all.end(), decoded.flat().begin(), decoded.flat().end());
  }
  const auto* raw = reinterpret_cast<const std::uint8_t*>(all.data());
  EXPECT_EQ(io::crc32({raw, all.size() * sizeof(double)}), 0xCBD26713u);
}

}  // namespace
}  // namespace rmp::core
