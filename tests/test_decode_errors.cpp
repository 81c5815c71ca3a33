// Negative-path sweep: every preconditioner must reject malformed
// containers with a clean exception -- missing sections, wrong method
// dispatch, mutilated metadata -- instead of crashing or fabricating
// output.
#include <gtest/gtest.h>

#include <cmath>

#include "compress/factory.hpp"
#include "core/identity.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"

namespace rmp::core {
namespace {

struct Codecs {
  std::unique_ptr<compress::Compressor> reduced = compress::make_zfp_original();
  std::unique_ptr<compress::Compressor> delta = compress::make_zfp_delta();
  CodecPair pair() const { return {reduced.get(), delta.get()}; }
};

sim::Field field3d() {
  sim::Field f(8, 8, 8);
  for (std::size_t n = 0; n < f.size(); ++n) {
    f.flat()[n] = std::sin(0.1 * static_cast<double>(n));
  }
  return f;
}

class DecodeErrors : public ::testing::TestWithParam<std::string> {};

TEST_P(DecodeErrors, EmptyContainerThrows) {
  Codecs codecs;
  const auto preconditioner = make_preconditioner(GetParam());
  io::Container empty;
  empty.method = GetParam();
  empty.nx = 8;
  empty.ny = 8;
  empty.nz = 8;
  EXPECT_ANY_THROW(preconditioner->decode(empty, codecs.pair(), nullptr));
}

// one-base's and wavelet's "meta" sections are provenance only: decode
// reconstructs without them (one-base's mid index is implicit; wavelet
// defaults to the 2D transform).  Every other section is load-bearing.
bool section_is_advisory(const std::string& method,
                         const std::string& section) {
  return section == "meta" && (method == "one-base" || method == "wavelet");
}

TEST_P(DecodeErrors, DroppingAnySectionThrows) {
  Codecs codecs;
  const auto preconditioner = make_preconditioner(GetParam());
  const io::Container complete =
      preconditioner->encode(field3d(), codecs.pair(), nullptr);

  for (std::size_t drop = 0; drop < complete.sections.size(); ++drop) {
    if (section_is_advisory(GetParam(), complete.sections[drop].name)) {
      continue;
    }
    io::Container mutilated = complete;
    mutilated.sections.erase(mutilated.sections.begin() +
                             static_cast<std::ptrdiff_t>(drop));
    EXPECT_ANY_THROW(preconditioner->decode(mutilated, codecs.pair(), nullptr))
        << "dropped section " << complete.sections[drop].name;
  }
}

TEST_P(DecodeErrors, CorruptedSectionBytesThrow) {
  Codecs codecs;
  const auto preconditioner = make_preconditioner(GetParam());
  io::Container container =
      preconditioner->encode(field3d(), codecs.pair(), nullptr);

  for (auto& section : container.sections) {
    if (section.bytes.size() < 8) continue;
    if (section_is_advisory(GetParam(), section.name)) continue;
    auto saved = section.bytes;
    // Truncate the section hard: decoders must notice.
    section.bytes.resize(4);
    EXPECT_ANY_THROW(preconditioner->decode(container, codecs.pair(), nullptr))
        << "truncated section " << section.name;
    section.bytes = saved;
  }
}

TEST_P(DecodeErrors, RoundTripStillWorksAfterNegativeTests) {
  // Guard against the negative tests hiding a broken happy path.
  Codecs codecs;
  const auto preconditioner = make_preconditioner(GetParam());
  const sim::Field f = field3d();
  const auto container = preconditioner->encode(f, codecs.pair(), nullptr);
  const auto decoded = preconditioner->decode(container, codecs.pair(), nullptr);
  EXPECT_EQ(decoded.size(), f.size());
}

INSTANTIATE_TEST_SUITE_P(AllMethods, DecodeErrors,
                         ::testing::Values("identity", "one-base",
                                           "multi-base", "duomodel", "pca",
                                           "svd", "wavelet", "pca-part",
                                           "tucker", "blocked-pca",
                                           "blocked-svd"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Hostile partition metadata: every case must end in a typed
// ContainerError{kSectionMalformed} before anything is sized from it --
// no division by a zero count, no bad_alloc from a huge one.
void expect_malformed(const io::Container& container) {
  Codecs codecs;
  try {
    reconstruct(container, codecs.pair());
    FAIL() << "hostile " << container.method << " meta decoded";
  } catch (const io::ContainerError& e) {
    EXPECT_EQ(e.code(), io::ContainerErrc::kSectionMalformed) << e.what();
  }
}

void set_meta(io::Container& container, std::span<const std::uint64_t> meta) {
  for (auto& section : container.sections) {
    if (section.name == "meta") section.bytes = u64s_to_bytes(meta);
  }
}

std::vector<std::uint64_t> meta_of(const io::Container& container) {
  return bytes_to_u64s(container.find("meta")->bytes);
}

io::Container encoded(const std::string& method) {
  Codecs codecs;
  return make_preconditioner(method)->encode(field3d(), codecs.pair(),
                                             nullptr);
}

TEST(PartitionMeta, ZeroBlockCountIsMalformed) {
  for (const char* method : {"pca-part", "blocked-svd"}) {
    io::Container container = encoded(method);
    auto meta = meta_of(container);
    meta[0] = 0;
    set_meta(container, meta);
    expect_malformed(container);
  }
}

TEST(PartitionMeta, HugeBlockCountIsMalformed) {
  for (const char* method : {"pca-part", "blocked-pca", "blocked-svd"}) {
    io::Container container = encoded(method);
    auto meta = meta_of(container);
    meta[0] = std::uint64_t{1} << 40;
    set_meta(container, meta);
    expect_malformed(container);
  }
}

TEST(PartitionMeta, HugeBlockRowCountIsMalformed) {
  // pca-part meta: [count, k0, rows0, k1, rows1, ...].
  io::Container container = encoded("pca-part");
  auto meta = meta_of(container);
  meta[2] = std::uint64_t{1} << 40;
  set_meta(container, meta);
  expect_malformed(container);
}

TEST(PartitionMeta, BlockRowsThatDoNotSumToRowsAreMalformed) {
  io::Container container = encoded("pca-part");
  auto meta = meta_of(container);
  meta[2] += 1;
  meta[4] -= 1;
  set_meta(container, meta);
  expect_malformed(container);
}

TEST(PartitionMeta, MetaWordsThatDoNotSplitIntoBlocksAreMalformed) {
  io::Container container = encoded("blocked-svd");
  auto meta = meta_of(container);
  meta.push_back(0);
  set_meta(container, meta);
  expect_malformed(container);
}

// The earlier per-block layout: "block<b>" holds a serialized inner
// container, meta is [count, rows, cols], and there is no global delta.
io::Container legacy_blocked(std::uint64_t count, std::uint64_t rows,
                             std::uint64_t cols) {
  Codecs codecs;
  const sim::Field f = field3d();
  io::Container legacy;
  legacy.method = "blocked-identity";
  legacy.nx = f.nx();
  legacy.ny = f.ny();
  legacy.nz = f.nz();
  const std::size_t real_rows = f.nx() * f.ny();
  for (std::size_t b = 0; b < 2; ++b) {
    const std::size_t begin = b * real_rows / 2;
    const std::size_t end = (b + 1) * real_rows / 2;
    const sim::Field block = sim::Field::from_data(
        end - begin, f.nz(), 1,
        std::vector<double>(f.flat().begin() + begin * f.nz(),
                            f.flat().begin() + end * f.nz()));
    legacy.add("block" + std::to_string(b),
               io::serialize(IdentityPreconditioner().encode(
                   block, codecs.pair(), nullptr)));
  }
  const std::uint64_t meta[3] = {count, rows, cols};
  legacy.add("meta", u64s_to_bytes(meta));
  return legacy;
}

TEST(PartitionMeta, LegacyLayoutStillDecodes) {
  Codecs codecs;
  const sim::Field decoded =
      reconstruct(legacy_blocked(2, 64, 8), codecs.pair());
  EXPECT_EQ(decoded.size(), field3d().size());
}

TEST(PartitionMeta, LegacyHostileMetaIsMalformed) {
  expect_malformed(legacy_blocked(0, 64, 8));
  expect_malformed(legacy_blocked(std::uint64_t{1} << 40, 64, 8));
  expect_malformed(
      legacy_blocked(std::uint64_t{1} << 40, std::uint64_t{1} << 40, 1));
  expect_malformed(legacy_blocked(2, std::uint64_t{1} << 40, 8));
  expect_malformed(legacy_blocked(2, 32, 8));
  expect_malformed(legacy_blocked(2, 64, 0));
  expect_malformed(legacy_blocked(1, 64, 8));  // one block cannot hold 64 rows
}

// Hostile payload sizes and short metadata for the methods outside the
// partition wrapper: each must be a typed ContainerError{kSectionMalformed},
// never an out-of-bounds read, std::out_of_range or std::invalid_argument.
//
// Here a section holds a well-formed codec payload of too few values: 8
// against the 8^3 header, 3 against reduced models of 8 or more.
TEST(HostileSizes, ShortPayloadIsMalformed) {
  Codecs codecs;
  const struct {
    const char* method;
    const char* section;
    std::size_t count;
  } cases[] = {
      {"one-base", "delta", 8},     {"multi-base", "delta", 8},
      {"duomodel", "delta", 8},     {"identity", "data", 8},
      {"one-base", "reduced", 3},   {"multi-base", "reduced", 3},
      {"duomodel", "reduced", 3},
  };
  for (const auto& c : cases) {
    const std::string section = c.section;
    const compress::Compressor& codec =
        section == "delta" ? *codecs.delta : *codecs.reduced;
    const std::vector<double> values(c.count, 0.5);
    io::Container container = encoded(c.method);
    for (auto& s : container.sections) {
      if (s.name == section) s.bytes = codec.compress(values, {c.count, 1, 1});
    }
    expect_malformed(container);
  }
}

// Every truncation of the meta words, down to an empty section.
TEST(HostileSizes, ShortMetaIsMalformed) {
  for (const char* method : {"multi-base", "duomodel"}) {
    io::Container container = encoded(method);
    auto meta = meta_of(container);
    while (!meta.empty()) {
      meta.pop_back();
      set_meta(container, meta);
      expect_malformed(container);
    }
  }
}

TEST(HostileSizes, MultiBaseSlabCountBeyondTheGridIsMalformed) {
  for (const std::uint64_t count : {std::uint64_t{0}, std::uint64_t{9},
                                    std::uint64_t{1} << 40}) {
    io::Container container = encoded("multi-base");
    const std::uint64_t meta[1] = {count};
    set_meta(container, meta);
    expect_malformed(container);
  }
}

TEST(DecodeErrors, ReconstructRejectsUnknownMethod) {
  Codecs codecs;
  io::Container container;
  container.method = "martian";
  EXPECT_THROW(reconstruct(container, codecs.pair()), std::invalid_argument);
}

}  // namespace
}  // namespace rmp::core
