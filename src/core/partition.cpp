#include "core/partition.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp::core {
namespace {

struct RowBlock {
  std::size_t begin, end;
  std::size_t rows() const { return end - begin; }
};

RowBlock row_block(std::size_t rows, std::size_t count, std::size_t b) {
  return {b * rows / count, (b + 1) * rows / count};
}

}  // namespace

PartitionPreconditioner::PartitionPreconditioner(
    std::unique_ptr<Preconditioner> inner, std::size_t partitions,
    std::string tag)
    : inner_(std::move(inner)), partitions_(partitions), tag_(std::move(tag)) {
  if (partitions_ == 0) {
    throw std::invalid_argument("partition: partitions must be positive");
  }
  if (dynamic_cast<const PartitionPreconditioner*>(inner_.get()) != nullptr ||
      inner_->name().find('>') != std::string::npos) {
    throw std::invalid_argument("partition: inner stage cannot nest");
  }
  if (tag_.empty()) tag_ = "blocked-" + inner_->name();
}

const ReducedModelPreconditioner& PartitionPreconditioner::model() const {
  const auto* model =
      dynamic_cast<const ReducedModelPreconditioner*>(inner_.get());
  if (model == nullptr) {
    throw std::invalid_argument(tag_ + ": inner '" + inner_->name() +
                                "' has no reduced model to partition");
  }
  return *model;
}

ReducedModel PartitionPreconditioner::fit(const sim::Field& field,
                                          MatrixShape shape,
                                          const CodecPair& codecs) const {
  const ReducedModelPreconditioner& inner = model();
  const auto [rows, cols] = shape;
  const std::size_t count = std::min(partitions_, rows);
  const auto values = field.flat();

  // Blocks fit independently on the shared pool; their models are joined
  // in block order, so the container is identical at every thread count.
  std::vector<ReducedModel> blocks(count);
  parallel::parallel_for(count, [&](std::size_t b) {
    const RowBlock r = row_block(rows, count, b);
    // A row block is contiguous in the canonical layout: a 2D field whose
    // matrix view stays rows x cols even when cols == 1.
    blocks[b] = inner.fit(
        sim::Field::from_data(
            r.rows(), cols, 1,
            std::vector<double>(values.begin() + r.begin * cols,
                                values.begin() + r.end * cols)),
        {r.rows(), cols}, codecs);
  });

  ReducedModel joined;
  joined.meta.push_back(count);
  joined.reconstruction.reserve(field.size());
  for (std::size_t b = 0; b < count; ++b) {
    const std::string suffix = std::to_string(b);
    for (io::Section& section : blocks[b].sections) {
      joined.sections.push_back(
          {section.name + suffix, std::move(section.bytes)});
    }
    joined.meta.insert(joined.meta.end(), blocks[b].meta.begin(),
                       blocks[b].meta.end());
    joined.reconstruction.insert(joined.reconstruction.end(),
                                 blocks[b].reconstruction.begin(),
                                 blocks[b].reconstruction.end());
  }
  return joined;
}

std::vector<double> PartitionPreconditioner::rebuild(
    const SectionSource& sections, std::span<const std::uint64_t> meta,
    const compress::Dims&, MatrixShape shape, const CodecPair& codecs) const {
  const ReducedModelPreconditioner& inner = model();
  const auto [rows, cols] = shape;
  // Block row ranges follow from the count, so they always sum to `rows`;
  // each inner rebuild then checks its own meta against its block's shape.
  sections.require(!meta.empty() && meta[0] >= 1 && meta[0] <= rows &&
                       (meta.size() - 1) % meta[0] == 0,
                   "block count does not fit the rows and meta words", "meta");
  const std::size_t count = meta[0];
  const std::size_t width = (meta.size() - 1) / count;

  // rows * cols is the field size the skeleton already matched against
  // the decoded delta, so this allocation is bounded by real data.
  std::vector<double> values(rows * cols);
  parallel::parallel_for(count, [&](std::size_t b) {
    const RowBlock r = row_block(rows, count, b);
    const auto block = inner.rebuild(
        SectionSource{sections.container, sections.decoder, std::to_string(b)},
        meta.subspan(1 + b * width, width), compress::Dims::d2(r.rows(), cols),
        {r.rows(), cols}, codecs);
    sections.require(block.size() == r.rows() * cols, "block size mismatch",
                     "meta");
    std::copy(block.begin(), block.end(), values.begin() + r.begin * cols);
  });
  return values;
}

sim::Field PartitionPreconditioner::decode(const io::Container& container,
                                           const CodecPair& codecs,
                                           const sim::Field* external) const {
  if (container.find("delta") == nullptr &&
      container.find("block0") != nullptr) {
    return decode_legacy(container, codecs);
  }
  return ReducedModelPreconditioner::decode(container, codecs, external);
}

// Legacy layout: "block<b>" holds a whole serialized inner container for
// row block b, and "meta" is [count, rows, cols].
sim::Field PartitionPreconditioner::decode_legacy(
    const io::Container& container, const CodecPair& codecs) const {
  const SectionSource sections{container, tag_, ""};
  const obs::ScopedSpan span(tag_);
  const auto meta = bytes_to_u64s(sections("meta").bytes);
  sections.require(meta.size() == 3, "malformed legacy meta", "meta");
  const std::size_t count = meta[0];
  const std::size_t rows = meta[1];
  const std::size_t cols = meta[2];
  // Checked before anything is sized from the meta: every block needs its
  // own section, and rows x cols must be the header's field size.
  const std::size_t cells = container.nx * container.ny * container.nz;
  sections.require(count >= 1 && count <= rows &&
                       count <= container.sections.size() && cols != 0 &&
                       rows <= cells / cols && rows * cols == cells,
                   "block count and shape do not tile the field", "meta");

  // Blocks decode first; once each matches its row range, the total is
  // backed by decoded data and the joined field can be allocated.
  std::vector<sim::Field> blocks(count);
  parallel::parallel_for(count, [&](std::size_t b) {
    const std::string block = "block" + std::to_string(b);
    blocks[b] = inner_->decode(io::deserialize(sections(block).bytes), codecs,
                               nullptr);
    sections.require(
        blocks[b].size() == row_block(rows, count, b).rows() * cols,
        "block size mismatch", block);
  });
  std::vector<double> values;
  values.reserve(rows * cols);
  for (const sim::Field& block : blocks) {
    values.insert(values.end(), block.flat().begin(), block.flat().end());
  }
  return sim::Field::from_data(container.nx, container.ny, container.nz,
                               std::move(values));
}

}  // namespace rmp::core
