// Haar-wavelet preconditioner (paper §V-A.3).
//
// The canonical matrix is fully transformed (standard decomposition,
// rows then columns); coefficients with |c| <= theta = threshold_fraction
// * max|c| are zeroed (paper: 5%); the surviving sparse matrix -- stored
// CSR and lossless-compressed -- is the reduced representation, and the
// delta against its inverse transform is compressed at delta grade.
#pragma once

#include "core/reduced_model.hpp"

namespace rmp::core {

struct WaveletOptions {
  double threshold_fraction = 0.05;
  /// Use the separable 3D transform on 3D fields instead of the paper's
  /// 2D matrix view -- an extension that decorrelates along Z as well
  /// (ablation: bench/ablation_wavelet).
  bool transform_3d = false;
};

class WaveletPreconditioner final : public ReducedModelPreconditioner {
 public:
  explicit WaveletPreconditioner(WaveletOptions options = {});

  std::string name() const override { return "wavelet"; }

  /// Section sparse (lossless CSR); meta [transform_3d].  A missing meta
  /// decodes as the paper's 2D transform.
  ReducedModel fit(const sim::Field& field, MatrixShape shape,
                   const CodecPair& codecs) const override;
  std::vector<double> rebuild(const SectionSource& sections,
                              std::span<const std::uint64_t> meta,
                              const compress::Dims& dims, MatrixShape shape,
                              const CodecPair& codecs) const override;

  const WaveletOptions& options() const noexcept { return options_; }

 private:
  WaveletOptions options_;
};

}  // namespace rmp::core
