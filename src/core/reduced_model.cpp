#include "core/reduced_model.hpp"

#include "core/serialize.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp::core {
namespace {

// The element-wise passes fan out onto the shared pool once the field is
// big enough for the dispatch to pay for itself; below the cutoff they run
// inline.  At one flop per element that takes a field of several MB: a
// pool dispatch blocks its caller until queued chunks drain, so with
// concurrent rmpd requests a 48^3 pass (0.9 MB) ran slower on the pool
// than inline, while 96^3 archive fields gain from it.  Elements are
// independent, so every thread count gives the same bytes.
constexpr std::size_t kParallelElementCutoff = 1u << 18;

void for_element_ranges(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count < kParallelElementCutoff) {
    body(0, count);
  } else {
    parallel::parallel_for_ranges(count, body);
  }
}

}  // namespace

const io::Section& SectionSource::operator()(const std::string& name) const {
  return require_section(container, name + suffix, decoder.c_str());
}

void SectionSource::require(bool ok, const std::string& what,
                            const std::string& name) const {
  if (!ok) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             decoder + " decode: " + what,
                             name == "meta" ? name : name + suffix);
  }
}

io::Container ReducedModelPreconditioner::encode(const sim::Field& field,
                                                 const CodecPair& codecs,
                                                 EncodeStats* stats) const {
  const std::string method = name();
  const obs::ScopedSpan span("precondition/" + method);
  ReducedModel model = fit(field, matrix_shape(field), codecs);

  // The delta overwrites the reconstruction in place: one pass, no copy.
  std::vector<double>& delta = model.reconstruction;
  const auto values = field.flat();
  for_element_ranges(delta.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t n = begin; n < end; ++n) delta[n] = values[n] - delta[n];
  });

  io::Container container;
  container.method = method;
  container.nx = field.nx();
  container.ny = field.ny();
  container.nz = field.nz();
  std::size_t reduced_bytes = 0;
  for (io::Section& section : model.sections) {
    reduced_bytes += section.bytes.size();
    container.sections.push_back(std::move(section));
  }
  const io::Section& delta_section = container.add(
      "delta", traced_compress(*codecs.delta, "delta-compress", delta,
                               {field.nx(), field.ny(), field.nz()}));
  const std::size_t delta_bytes = delta_section.bytes.size();
  container.add("meta", u64s_to_bytes(model.meta));

  fill_stats(container, field.size(), stats);
  if (stats != nullptr) {
    stats->reduced_bytes = reduced_bytes;
    stats->delta_bytes = delta_bytes;
  }
  return container;
}

sim::Field ReducedModelPreconditioner::decode(const io::Container& container,
                                              const CodecPair& codecs,
                                              const sim::Field*) const {
  const SectionSource sections{container, name(), ""};
  const obs::ScopedSpan span(sections.decoder);
  const compress::Dims dims{container.nx, container.ny, container.nz};
  const auto& delta_section = sections("delta");
  std::vector<std::uint64_t> meta;
  if (const io::Section* meta_section = container.find("meta")) {
    meta = bytes_to_u64s(meta_section->bytes);
  }

  // The decoded delta is real data, so matching the header's shape against
  // it bounds every allocation the rebuild sizes from that shape.
  std::vector<double> values =
      traced_decompress(*codecs.delta, "delta-decompress", delta_section.bytes);
  sections.require(fills_grid(dims, values.size()),
                   "delta size does not match the field shape", "delta");

  const std::vector<double> reconstruction =
      rebuild(sections, meta, dims, matrix_shape(dims), codecs);
  sections.require(reconstruction.size() == values.size(),
                   "reconstruction size mismatch", "meta");
  for_element_ranges(values.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t n = begin; n < end; ++n) values[n] += reconstruction[n];
  });
  return sim::Field::from_data(container.nx, container.ny, container.nz,
                               std::move(values));
}

}  // namespace rmp::core
