#include "core/pca.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/precond_error.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "la/covariance.hpp"
#include "la/eigen.hpp"

namespace rmp::core {
namespace {

la::Matrix leading_columns(const la::Matrix& m, std::size_t k) {
  la::Matrix out(m.rows(), k);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      out(i, j) = m(i, j);
    }
  }
  return out;
}

}  // namespace

std::size_t components_for_target(const std::vector<double>& proportions,
                                  double target) {
  double cumulative = 0.0;
  for (std::size_t k = 0; k < proportions.size(); ++k) {
    cumulative += proportions[k];
    if (cumulative >= target) return k + 1;
  }
  return proportions.empty() ? 0 : proportions.size();
}

std::vector<double> pca_variance_proportions(const sim::Field& field) {
  const la::Matrix a = as_matrix(field);
  const la::Matrix cov = la::covariance(a);
  const auto eig = la::jacobi_eigen(cov);
  double total = 0.0;
  std::vector<double> clamped;
  clamped.reserve(eig.values.size());
  for (double v : eig.values) {
    // Tiny negative eigenvalues are numerical noise.
    clamped.push_back(std::max(v, 0.0));
    total += clamped.back();
  }
  if (total <= 0.0) {
    // Constant data: the first "component" trivially carries everything.
    std::vector<double> proportions(clamped.size(), 0.0);
    if (!proportions.empty()) proportions[0] = 1.0;
    return proportions;
  }
  for (double& v : clamped) v /= total;
  return clamped;
}

PcaPreconditioner::PcaPreconditioner(PcaOptions options) : options_(options) {
  if (options_.variance_target <= 0.0 || options_.variance_target > 1.0) {
    throw std::invalid_argument("pca: variance_target must be in (0, 1]");
  }
}

ReducedModel PcaPreconditioner::fit(const sim::Field& field,
                                    MatrixShape shape,
                                    const CodecPair& codecs) const {
  la::Matrix a = as_matrix(field, shape);
  const auto means = la::column_means(a);
  la::Matrix centered = a;
  la::center_columns(centered, means);

  const la::Matrix cov = la::covariance(a);
  const auto eig = la::jacobi_eigen(cov, options_.jacobi);
  if (!eig.converged) {
    throw PreconditionError(
        PrecondErrc::kEigenNonConvergence,
        "pca: covariance eigendecomposition left off-diagonal residual " +
            std::to_string(eig.off_diagonal_residual) + " after " +
            std::to_string(options_.jacobi.max_sweeps) + " sweep(s)");
  }

  // k components covering the variance target.
  std::vector<double> proportions;
  proportions.reserve(eig.values.size());
  double total = 0.0;
  for (double v : eig.values) total += std::max(v, 0.0);
  for (double v : eig.values) {
    proportions.push_back(total > 0.0 ? std::max(v, 0.0) / total : 0.0);
  }
  std::size_t k = components_for_target(proportions, options_.variance_target);
  k = std::max<std::size_t>(1, k);

  const la::Matrix basis = leading_columns(eig.vectors, k);  // n x k
  const la::Matrix scores = centered * basis;                // m x k

  auto scores_bytes =
      traced_compress(*codecs.reduced, "reduced-compress", scores.flat(),
                      compress::Dims::d2(scores.rows(), scores.cols()));

  // Reconstruction used for the delta: clean scores by default (the
  // paper's pipeline), decoded scores when the ablation flag is set.
  la::Matrix recon_scores = scores;
  if (options_.delta_against_decoded) {
    recon_scores = la::Matrix(scores.rows(), scores.cols(),
                              codecs.reduced->decompress(scores_bytes));
  }
  la::Matrix reconstruction = recon_scores * basis.transposed();  // m x n
  la::uncenter_columns(reconstruction, means);

  ReducedModel model;
  model.sections.push_back({"scores", std::move(scores_bytes)});
  model.sections.push_back({"basis", matrix_to_bytes(basis)});
  model.sections.push_back({"means", doubles_to_bytes(means)});
  model.meta = {k, scores.rows()};
  model.reconstruction = std::move(reconstruction).release();
  return model;
}

std::vector<double> PcaPreconditioner::rebuild(
    const SectionSource& sections, std::span<const std::uint64_t> meta,
    const compress::Dims&, MatrixShape shape, const CodecPair& codecs) const {
  const auto& scores_section = sections("scores");
  const auto& basis_section = sections("basis");
  const auto& means_section = sections("means");
  const auto [m, n] = shape;
  sections.require(meta.size() == 2 && meta[0] >= 1 && meta[0] <= n &&
                       meta[1] == m,
                   "meta [k, rows] does not fit the field", "meta");
  const std::size_t k = meta[0];

  const la::Matrix basis = bytes_to_matrix(basis_section.bytes);
  sections.require(basis.rows() == n && basis.cols() == k,
                   "basis shape mismatch", "basis");
  const auto means = bytes_to_doubles(means_section.bytes);
  sections.require(means.size() == n, "means size mismatch", "means");
  auto score_values = traced_decompress(*codecs.reduced, "reduced-decompress",
                                        scores_section.bytes);
  sections.require(score_values.size() == m * k, "scores size mismatch",
                   "scores");
  const la::Matrix scores(m, k, std::move(score_values));

  la::Matrix reconstruction = scores * basis.transposed();
  la::uncenter_columns(reconstruction, means);
  return std::move(reconstruction).release();
}

}  // namespace rmp::core
