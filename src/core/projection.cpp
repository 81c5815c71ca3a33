#include "core/projection.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/serialize.hpp"
#include "obs/obs.hpp"

namespace rmp::core {
namespace {

void require_3d(const sim::Field& field, const char* who) {
  if (field.rank() != 3) {
    throw std::invalid_argument(std::string(who) +
                                ": projection methods need a 3D field");
  }
}

/// Z-slab extents for the plane methods: slab s covers [begin, end) and
/// keeps its mid-plane.  One-base is the single slab [0, nz).
struct Slab {
  std::size_t begin, end, mid;
};
std::vector<Slab> make_slabs(std::size_t nz, std::size_t count) {
  std::vector<Slab> slabs;
  slabs.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t begin = s * nz / count;
    const std::size_t end = (s + 1) * nz / count;
    slabs.push_back({begin, end, (begin + end) / 2});
  }
  return slabs;
}

/// The reconstruction: each slab's plane broadcast over its Z range.
/// `planes` is the (nx, ny, count) stack, one value per (i, j, slab).
std::vector<double> broadcast_planes(std::span<const double> planes,
                                     const compress::Dims& dims,
                                     const std::vector<Slab>& slabs) {
  std::vector<double> out(dims.count());
  std::size_t p = 0;
  for (std::size_t row = 0; row < dims.nx * dims.ny; ++row) {
    double* line = out.data() + row * dims.nz;
    for (const Slab& slab : slabs) {
      std::fill(line + slab.begin, line + slab.end, planes[p++]);
    }
  }
  return out;
}

/// Fit of both plane methods: the stack of per-slab mid-planes, an
/// (nx, ny, count) field stored as the "reduced" section.
ReducedModel fit_planes(const sim::Field& field, std::size_t count,
                        const CodecPair& codecs) {
  const compress::Dims dims{field.nx(), field.ny(), field.nz()};
  const auto slabs = make_slabs(dims.nz, count);
  std::vector<double> planes;
  planes.reserve(dims.nx * dims.ny * count);
  for (std::size_t i = 0; i < dims.nx; ++i) {
    for (std::size_t j = 0; j < dims.ny; ++j) {
      for (const Slab& slab : slabs) planes.push_back(field.at(i, j, slab.mid));
    }
  }
  ReducedModel model;
  model.sections.push_back(
      {"reduced", traced_compress(*codecs.reduced, "reduced-compress", planes,
                                  {dims.nx, dims.ny, count})});
  model.reconstruction = broadcast_planes(planes, dims, slabs);
  return model;
}

/// Inverse of fit_planes; `count` is already checked against dims.nz.
std::vector<double> rebuild_planes(const SectionSource& sections,
                                   const compress::Dims& dims,
                                   std::size_t count, const CodecPair& codecs) {
  const auto planes = traced_decompress(*codecs.reduced, "reduced-decompress",
                                        sections("reduced").bytes);
  sections.require(planes.size() == dims.nx * dims.ny * count,
                   "reduced size mismatch", "reduced");
  return broadcast_planes(planes, dims, make_slabs(dims.nz, count));
}

}  // namespace

// ---------------------------------------------------------------------------
// OneBase (Algorithm 1): every plane's delta against the global mid-plane.

ReducedModel OneBasePreconditioner::fit(const sim::Field& field, MatrixShape,
                                        const CodecPair& codecs) const {
  require_3d(field, "one-base");
  ReducedModel model = fit_planes(field, 1, codecs);
  model.meta = {field.nz() / 2};
  return model;
}

// The mid index in "meta" is provenance only: the single slab fixes it.
std::vector<double> OneBasePreconditioner::rebuild(
    const SectionSource& sections, std::span<const std::uint64_t>,
    const compress::Dims& dims, MatrixShape, const CodecPair& codecs) const {
  return rebuild_planes(sections, dims, 1, codecs);
}

// ---------------------------------------------------------------------------
// MultiBase: each Z slab against its own mid-plane -- no broadcast of one
// global plane, one stored plane per slab.

MultiBasePreconditioner::MultiBasePreconditioner(std::size_t slabs)
    : slabs_(slabs) {
  if (slabs_ == 0) {
    throw std::invalid_argument("multi-base: slab count must be positive");
  }
}

ReducedModel MultiBasePreconditioner::fit(const sim::Field& field,
                                          MatrixShape,
                                          const CodecPair& codecs) const {
  require_3d(field, "multi-base");
  const std::size_t count = std::min(slabs_, field.nz());
  ReducedModel model = fit_planes(field, count, codecs);
  model.meta = {count};
  return model;
}

std::vector<double> MultiBasePreconditioner::rebuild(
    const SectionSource& sections, std::span<const std::uint64_t> meta,
    const compress::Dims& dims, MatrixShape, const CodecPair& codecs) const {
  sections.require(meta.size() == 1 && meta[0] >= 1 && meta[0] <= dims.nz,
                   "meta [slabs] does not fit the field", "meta");
  return rebuild_planes(sections, dims, meta[0], codecs);
}

// ---------------------------------------------------------------------------
// DuoModel

DuoModelPreconditioner::DuoModelPreconditioner(std::size_t factor,
                                               bool store_reduced)
    : factor_(factor), store_reduced_(store_reduced) {
  if (factor_ < 2) {
    throw std::invalid_argument("duomodel: factor must be >= 2");
  }
}

sim::Field DuoModelPreconditioner::make_reduced(const sim::Field& field) const {
  return downsample(field, factor_,
                    field.ny() > 1 ? factor_ : 1,
                    field.nz() > 1 ? factor_ : 1);
}

io::Container DuoModelPreconditioner::encode(const sim::Field& field,
                                             const CodecPair& codecs,
                                             EncodeStats* stats) const {
  return encode_with_reduced(field, make_reduced(field), codecs, stats);
}

io::Container DuoModelPreconditioner::encode_with_reduced(
    const sim::Field& field, const sim::Field& reduced,
    const CodecPair& codecs, EncodeStats* stats) const {
  const obs::ScopedSpan span("precondition/duomodel");
  const sim::Field reconstruction =
      upsample_linear(reduced, field.nx(), field.ny(), field.nz());
  const sim::Field delta = subtract(field, reconstruction);

  io::Container container;
  container.method = name();
  container.nx = field.nx();
  container.ny = field.ny();
  container.nz = field.nz();
  container.add("delta",
                traced_compress(*codecs.delta, "delta-compress", delta.flat(),
                                {field.nx(), field.ny(), field.nz()}));
  if (store_reduced_) {
    container.add("reduced",
                  traced_compress(*codecs.reduced, "reduced-compress",
                                  reduced.flat(),
                                  {reduced.nx(), reduced.ny(), reduced.nz()}));
  }
  const std::uint64_t meta[5] = {reduced.nx(), reduced.ny(), reduced.nz(),
                                 factor_, store_reduced_ ? 1u : 0u};
  container.add("meta", u64s_to_bytes(meta));

  fill_stats(container, field.size(), stats);
  if (stats != nullptr) {
    const auto* r = container.find("reduced");
    stats->reduced_bytes = r != nullptr ? r->bytes.size() : 0;
    stats->delta_bytes = container.find("delta")->bytes.size();
  }
  return container;
}

sim::Field DuoModelPreconditioner::decode(
    const io::Container& container, const CodecPair& codecs,
    const sim::Field* external_reduced) const {
  const SectionSource sections{container, "duomodel", ""};
  const obs::ScopedSpan span(sections.decoder);
  const auto& delta_section = sections("delta");
  const auto meta = bytes_to_u64s(sections("meta").bytes);
  sections.require(meta.size() == 5,
                   "meta [nx, ny, nz, factor, stored] is incomplete", "meta");
  const compress::Dims reduced_dims{meta[0], meta[1], meta[2]};

  // Both payloads are matched against their shapes before the upsample
  // sizes anything from the header.
  std::vector<double> values =
      traced_decompress(*codecs.delta, "delta-decompress", delta_section.bytes);
  sections.require(
      fills_grid({container.nx, container.ny, container.nz}, values.size()),
      "delta size does not match the field shape", "delta");
  sim::Field reduced;
  if (meta[4] != 0) {
    auto reduced_values = traced_decompress(
        *codecs.reduced, "reduced-decompress", sections("reduced").bytes);
    sections.require(fills_grid(reduced_dims, reduced_values.size()),
                     "reduced size does not match its meta shape", "reduced");
    reduced = sim::Field::from_data(reduced_dims.nx, reduced_dims.ny,
                                    reduced_dims.nz, std::move(reduced_values));
  } else {
    // True DuoModel: the light simulation is re-run; the caller supplies
    // its output.
    if (external_reduced == nullptr) {
      throw std::invalid_argument(
          "duomodel decode: reduced model not stored; supply the re-computed "
          "reduced field");
    }
    if (external_reduced->nx() != reduced_dims.nx ||
        external_reduced->ny() != reduced_dims.ny ||
        external_reduced->nz() != reduced_dims.nz) {
      throw std::invalid_argument(
          "duomodel decode: external reduced field has the wrong shape");
    }
    reduced = *external_reduced;
  }

  const sim::Field reconstruction =
      upsample_linear(reduced, container.nx, container.ny, container.nz);
  return add(sim::Field::from_data(container.nx, container.ny, container.nz,
                                   std::move(values)),
             reconstruction);
}

}  // namespace rmp::core
