// PCA preconditioner (paper §V-A.1).
//
// The field, viewed as an m x n matrix, is centered; the eigenvectors of
// the n x n column covariance give the principal directions.  The k
// leading components covering >= `variance_target` of the variance (paper:
// 95%) are kept: the dimension-reduced scores (m x k, compressed at
// original grade) plus the basis and column means (stored exactly) form
// the reduced representation; the delta against the rank-k reconstruction
// is compressed at delta grade.
#pragma once

#include <vector>

#include "core/reduced_model.hpp"
#include "la/eigen.hpp"

namespace rmp::core {

struct PcaOptions {
  double variance_target = 0.95;
  /// When true, the delta is computed against the reconstruction from the
  /// *decompressed* scores, so the reduced-representation loss cancels at
  /// decode time.  The paper computes the delta against the clean
  /// reconstruction (false), which is what amplifies RMSE in Fig. 10; the
  /// ablation bench flips this.
  bool delta_against_decoded = false;
  /// Eigensolver budget for the covariance diagonalization.  Exposed so
  /// tests (and cautious callers) can tighten it; a non-converged solve
  /// raises PreconditionError(kEigenNonConvergence) instead of encoding
  /// with a half-rotated basis.
  la::JacobiOptions jacobi = {};
};

class PcaPreconditioner final : public ReducedModelPreconditioner {
 public:
  explicit PcaPreconditioner(PcaOptions options = {});

  std::string name() const override { return "pca"; }

  /// Sections scores (m x k, reduced codec), basis (n x k) and means;
  /// meta [k, m].
  ReducedModel fit(const sim::Field& field, MatrixShape shape,
                   const CodecPair& codecs) const override;
  std::vector<double> rebuild(const SectionSource& sections,
                              std::span<const std::uint64_t> meta,
                              const compress::Dims& dims, MatrixShape shape,
                              const CodecPair& codecs) const override;

  const PcaOptions& options() const noexcept { return options_; }

 private:
  PcaOptions options_;
};

/// Proportion of total variance captured by each principal component of
/// the field's canonical matrix, descending (Fig. 7).
std::vector<double> pca_variance_proportions(const sim::Field& field);

/// Components needed to reach `target` cumulative proportion.
std::size_t components_for_target(const std::vector<double>& proportions,
                                  double target);

}  // namespace rmp::core
