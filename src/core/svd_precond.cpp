#include "core/svd_precond.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/pca.hpp"  // components_for_target
#include "core/precond_error.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "la/svd.hpp"

namespace rmp::core {
namespace {

// U_k scaled by the singular values: the "dimension-reduced data".
la::Matrix scaled_leading(const la::SvdResult& svd, std::size_t k) {
  la::Matrix p(svd.u.rows(), k);
  for (std::size_t i = 0; i < svd.u.rows(); ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      p(i, j) = svd.u(i, j) * svd.sigma[j];
    }
  }
  return p;
}

la::Matrix leading_v(const la::SvdResult& svd, std::size_t k) {
  la::Matrix v(svd.v.rows(), k);
  for (std::size_t i = 0; i < svd.v.rows(); ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      v(i, j) = svd.v(i, j);
    }
  }
  return v;
}

}  // namespace

std::vector<double> svd_singular_proportions(const sim::Field& field) {
  la::Matrix a = as_matrix(field);
  const auto svd = la::jacobi_svd(a);
  double total = 0.0;
  for (double s : svd.sigma) total += s;
  std::vector<double> proportions(svd.sigma.size(), 0.0);
  if (total > 0.0) {
    for (std::size_t i = 0; i < svd.sigma.size(); ++i) {
      proportions[i] = svd.sigma[i] / total;
    }
  } else if (!proportions.empty()) {
    proportions[0] = 1.0;
  }
  return proportions;
}

SvdPreconditioner::SvdPreconditioner(SvdOptionsPre options)
    : options_(options) {
  if (options_.energy_target <= 0.0 || options_.energy_target > 1.0) {
    throw std::invalid_argument("svd: energy_target must be in (0, 1]");
  }
}

ReducedModel SvdPreconditioner::fit(const sim::Field& field,
                                    MatrixShape shape,
                                    const CodecPair& codecs) const {
  const la::Matrix a = as_matrix(field, shape);
  const auto svd = la::jacobi_svd(a, options_.svd);
  if (!svd.converged) {
    throw PreconditionError(
        PrecondErrc::kSvdNonConvergence,
        "svd: column pairs still non-orthogonal (residual " +
            std::to_string(svd.max_off_orthogonality) + ") after " +
            std::to_string(options_.svd.max_sweeps) + " sweep(s)");
  }

  double total = 0.0;
  for (double s : svd.sigma) total += s;
  std::vector<double> proportions(svd.sigma.size(), 0.0);
  for (std::size_t i = 0; i < svd.sigma.size() && total > 0.0; ++i) {
    proportions[i] = svd.sigma[i] / total;
  }
  std::size_t k = components_for_target(proportions, options_.energy_target);
  k = std::max<std::size_t>(1, std::min(k, svd.sigma.size()));

  const la::Matrix p = scaled_leading(svd, k);  // (rows of internal U) x k
  const la::Matrix vk = leading_v(svd, k);

  auto p_bytes =
      traced_compress(*codecs.reduced, "reduced-compress", p.flat(),
                      compress::Dims::d2(p.rows(), p.cols()));

  la::Matrix recon_p = p;
  if (options_.delta_against_decoded) {
    recon_p = la::Matrix(p.rows(), p.cols(),
                         codecs.reduced->decompress(p_bytes));
  }
  la::Matrix reconstruction = recon_p * vk.transposed();
  if (svd.transposed) reconstruction = reconstruction.transposed();

  ReducedModel model;
  model.sections.push_back({"u_sigma", std::move(p_bytes)});
  model.sections.push_back({"v", matrix_to_bytes(vk)});
  model.meta = {k, p.rows(), svd.transposed ? 1u : 0u};
  model.reconstruction = std::move(reconstruction).release();
  return model;
}

std::vector<double> SvdPreconditioner::rebuild(
    const SectionSource& sections, std::span<const std::uint64_t> meta,
    const compress::Dims&, MatrixShape shape, const CodecPair& codecs) const {
  const auto& p_section = sections("u_sigma");
  const auto& v_section = sections("v");
  sections.require(meta.size() == 3 && meta[2] <= 1, "malformed svd meta",
                   "meta");
  const auto [m, n] = shape;
  const bool transposed = meta[2] != 0;
  // A wide matrix is factored transposed, so U and V swap extents.
  const std::size_t u_rows = transposed ? n : m;
  const std::size_t v_rows = transposed ? m : n;
  const std::size_t k = meta[0];
  sections.require(meta[1] == u_rows && k >= 1 && k <= v_rows,
                   "meta [k, rows, transposed] does not fit the field",
                   "meta");

  const la::Matrix vk = bytes_to_matrix(v_section.bytes);
  sections.require(vk.rows() == v_rows && vk.cols() == k,
                   "v shape mismatch", "v");
  auto p_values =
      traced_decompress(*codecs.reduced, "reduced-decompress", p_section.bytes);
  sections.require(p_values.size() == u_rows * k, "u_sigma size mismatch",
                   "u_sigma");
  const la::Matrix p(u_rows, k, std::move(p_values));

  la::Matrix reconstruction = p * vk.transposed();
  if (transposed) reconstruction = reconstruction.transposed();
  return std::move(reconstruction).release();
}

}  // namespace rmp::core
