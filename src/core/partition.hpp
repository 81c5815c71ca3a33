// Partitioned-matrix preconditioning (the paper's first future-work item,
// §VII, "reduced methods in partitioned matrix"): split the canonical
// m x n matrix into row blocks, fit the inner method's reduced model on
// each block independently, and compress one global delta against the
// joined reconstructions.  Blocks fit in parallel, each block's spectral
// work drops from O(m n^2) to O((m/p) n^2), and each block's rank adapts to
// local structure.
//
// Layout: block b's inner sections are stored as "<section><b>", followed
// by "delta" and "meta" = [count] ++ each block's inner meta.  "pca-part"
// is this wrapper over PCA with 4 partitions; "blocked-<inner>" is the
// same wrapper over any matrix method under its own tag, so "blocked-pca"
// differs from "pca-part" only in the method tag.
//
// Archives from the earlier per-block encoder -- one serialized inner
// container per "block<b>" section and no global delta -- still decode,
// for any inner method.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/reduced_model.hpp"

namespace rmp::core {

class PartitionPreconditioner final : public ReducedModelPreconditioner {
 public:
  /// `tag` defaults to "blocked-<inner name>".  Zero partitions or a
  /// nested inner (a partition or a cascade) throw std::invalid_argument.
  /// An inner without a reduced model (identity, duomodel, ...) can only
  /// decode legacy archives; encoding with it throws std::invalid_argument.
  /// So does encoding with one-base or multi-base, whose fits need the 3D
  /// field that a row block is not.
  explicit PartitionPreconditioner(std::unique_ptr<Preconditioner> inner,
                                   std::size_t partitions = 4,
                                   std::string tag = {});

  std::string name() const override { return tag_; }

  sim::Field decode(const io::Container& container, const CodecPair& codecs,
                    const sim::Field* external_reduced) const override;

  ReducedModel fit(const sim::Field& field, MatrixShape shape,
                   const CodecPair& codecs) const override;
  std::vector<double> rebuild(const SectionSource& sections,
                              std::span<const std::uint64_t> meta,
                              const compress::Dims& dims, MatrixShape shape,
                              const CodecPair& codecs) const override;

 private:
  const ReducedModelPreconditioner& model() const;
  sim::Field decode_legacy(const io::Container& container,
                           const CodecPair& codecs) const;

  std::unique_ptr<Preconditioner> inner_;
  std::size_t partitions_;
  std::string tag_;
};

}  // namespace rmp::core
