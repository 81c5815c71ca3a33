#include "core/partition.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "compress/factory.hpp"
#include "core/identity.hpp"
#include "core/pca.hpp"
#include "core/pipeline.hpp"
#include "core/precond_error.hpp"
#include "core/serialize.hpp"
#include "sim/heat.hpp"
#include "stats/metrics.hpp"

namespace rmp::core {
namespace {

struct Codecs {
  std::unique_ptr<compress::Compressor> reduced = compress::make_zfp_original();
  std::unique_ptr<compress::Compressor> delta = compress::make_zfp_delta();
  CodecPair pair() const { return {reduced.get(), delta.get()}; }
};

sim::Field heat_field() {
  sim::HeatConfig config;
  config.n = 14;
  config.steps = 100;
  config.hot_center_z = 0.6;
  return sim::heat3d_run(config);
}

class BlockedInnerSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(BlockedInnerSweep, RoundTripWithinError) {
  Codecs codecs;
  PartitionPreconditioner blocked(make_preconditioner(GetParam()), 4);
  const sim::Field f = heat_field();
  const auto container = blocked.encode(f, codecs.pair(), nullptr);
  const auto decoded = blocked.decode(container, codecs.pair(), nullptr);
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Inners, BlockedInnerSweep,
                         ::testing::Values("pca", "svd", "wavelet",
                                           "tucker"));

TEST(Blocked, RegistryDispatch) {
  Codecs codecs;
  const sim::Field f = heat_field();
  const auto blocked = make_preconditioner("blocked-svd");
  EXPECT_EQ(blocked->name(), "blocked-svd");
  const auto container = blocked->encode(f, codecs.pair(), nullptr);
  const sim::Field decoded = reconstruct(container, codecs.pair());
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0);
}

TEST(Blocked, PartitionCountClampedToRows) {
  Codecs codecs;
  PartitionPreconditioner blocked(make_preconditioner("pca"), 1000);
  sim::Field tiny(6, 4, 1);
  for (std::size_t n = 0; n < tiny.size(); ++n) {
    tiny.flat()[n] = static_cast<double>(n);
  }
  const auto container = blocked.encode(tiny, codecs.pair(), nullptr);
  const auto decoded = blocked.decode(container, codecs.pair(), nullptr);
  EXPECT_LT(stats::max_abs_error(tiny.flat(), decoded.flat()), 1e-3);
}

TEST(Blocked, StatsAggregateAcrossBlocks) {
  Codecs codecs;
  PartitionPreconditioner blocked(make_preconditioner("svd"), 3);
  EncodeStats stats;
  blocked.encode(heat_field(), codecs.pair(), &stats);
  EXPECT_GT(stats.reduced_bytes, 0u);
  EXPECT_GT(stats.delta_bytes, 0u);
  EXPECT_GT(stats.compression_ratio, 1.0);
}

TEST(Blocked, RejectsNesting) {
  EXPECT_THROW(PartitionPreconditioner(make_preconditioner("blocked-pca"), 2),
               std::invalid_argument);
  EXPECT_THROW(PartitionPreconditioner(make_preconditioner("pca-part"), 2),
               std::invalid_argument);
  EXPECT_THROW(PartitionPreconditioner(make_preconditioner("pca>svd"), 2),
               std::invalid_argument);
  EXPECT_THROW(make_preconditioner("blocked-blocked-pca"),
               std::invalid_argument);
  EXPECT_THROW(PartitionPreconditioner(make_preconditioner("pca"), 0),
               std::invalid_argument);
}

TEST(Blocked, DecodeRejectsMissingSections) {
  Codecs codecs;
  PartitionPreconditioner blocked(make_preconditioner("pca"), 2);
  io::Container empty;
  empty.method = "blocked-pca";
  EXPECT_THROW(blocked.decode(empty, codecs.pair(), nullptr),
               std::runtime_error);
}

// The plane methods have a reduced model, but a row block is not the 3D
// field their fits need.
TEST(Blocked, EncodeNeedsAReducedModel) {
  Codecs codecs;
  for (const char* name :
       {"blocked-identity", "blocked-one-base", "blocked-multi-base"}) {
    const auto blocked = make_preconditioner(name);
    EXPECT_EQ(blocked->name(), name);
    EXPECT_THROW(blocked->encode(heat_field(), codecs.pair(), nullptr),
                 std::invalid_argument)
        << name;
  }
}

// Reusing PCA's fit brings its convergence check: a half-rotated basis is
// a typed failure, not an archive.
TEST(Blocked, InnerEigenNonConvergenceSurfaces) {
  Codecs codecs;
  PcaOptions options;
  options.jacobi.max_sweeps = 1;
  PartitionPreconditioner blocked(
      std::make_unique<PcaPreconditioner>(options), 4, "pca-part");
  try {
    blocked.encode(heat_field(), codecs.pair(), nullptr);
    FAIL() << "one Jacobi sweep encoded";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(e.code(), PrecondErrc::kEigenNonConvergence);
  }
}

// The per-block encoder stored each row block as a whole serialized inner
// container under "block<b>", with meta [count, rows, cols] and no global
// delta.  Such archives still decode for inners with no reduced model.
TEST(Blocked, LegacyIdentityArchiveDecodes) {
  Codecs codecs;
  const sim::Field f = heat_field();
  const std::size_t rows = f.nx() * f.ny();
  const std::size_t cols = f.nz();
  const std::size_t count = 3;
  io::Container legacy;
  legacy.method = "blocked-identity";
  legacy.nx = f.nx();
  legacy.ny = f.ny();
  legacy.nz = f.nz();
  for (std::size_t b = 0; b < count; ++b) {
    const std::size_t begin = b * rows / count;
    const std::size_t end = (b + 1) * rows / count;
    const sim::Field block = sim::Field::from_data(
        end - begin, cols, 1,
        std::vector<double>(f.flat().begin() + begin * cols,
                            f.flat().begin() + end * cols));
    legacy.add("block" + std::to_string(b),
               io::serialize(IdentityPreconditioner().encode(
                   block, codecs.pair(), nullptr)));
  }
  const std::uint64_t meta[3] = {count, rows, cols};
  legacy.add("meta", u64s_to_bytes(meta));

  const sim::Field decoded = reconstruct(legacy, codecs.pair());
  ASSERT_EQ(decoded.size(), f.size());
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0);
}

}  // namespace
}  // namespace rmp::core
