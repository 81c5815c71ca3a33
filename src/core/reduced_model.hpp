// The seam shared by the matrix preconditioners (PCA, SVD, Wavelet,
// Tucker), the plane methods (OneBase, MultiBase) and the partition
// wrapper over the matrix methods.  A method supplies only
// "fit a reduced model" and "rebuild from it"; the encode/decode skeleton
// here owns the rest of Fig. 5: delta = field - reconstruction, the delta
// codec, the container layout [reduced sections..., "delta", "meta"] and
// the size accounting.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/preconditioner.hpp"
#include "core/reshape.hpp"

namespace rmp::core {

struct ReducedModel {
  /// Reduced-representation sections, in container order.
  std::vector<io::Section> sections;
  /// Method metadata, stored as the "meta" section.
  std::vector<std::uint64_t> meta;
  /// The field as the reduced model reproduces it, in field layout.
  std::vector<double> reconstruction;
};

/// Where a rebuild reads its sections: "<name>" for a whole-field model,
/// "<name><b>" for row block b of a partition.  "meta" is shared.
struct SectionSource {
  const io::Container& container;
  std::string decoder;  ///< method tag, for error messages
  std::string suffix;

  /// The section, or io::ContainerError(kMissingSection).
  const io::Section& operator()(const std::string& name) const;
  /// Unless `ok`, throw io::ContainerError(kSectionMalformed) naming this
  /// source's copy of section `name`.
  void require(bool ok, const std::string& what,
               const std::string& name) const;
};

class ReducedModelPreconditioner : public Preconditioner {
 public:
  io::Container encode(const sim::Field& field, const CodecPair& codecs,
                       EncodeStats* stats) const final;
  sim::Field decode(const io::Container& container, const CodecPair& codecs,
                    const sim::Field* external_reduced) const override;

  /// Identify the reduced model of `field`, viewed as a `shape` matrix
  /// where the method works on one: matrix_shape(field) for a whole field,
  /// a partition block's rows x the field's columns for a block.  Sections
  /// that need the reduced codec are compressed here.
  virtual ReducedModel fit(const sim::Field& field, MatrixShape shape,
                           const CodecPair& codecs) const = 0;

  /// Invert fit(): the reconstruction of a field of shape `dims` (viewed as
  /// a `shape` matrix), in field layout.  Metadata that does not fit
  /// throws io::ContainerError(kSectionMalformed) before anything is sized
  /// by it.
  virtual std::vector<double> rebuild(const SectionSource& sections,
                                      std::span<const std::uint64_t> meta,
                                      const compress::Dims& dims,
                                      MatrixShape shape,
                                      const CodecPair& codecs) const = 0;
};

}  // namespace rmp::core
