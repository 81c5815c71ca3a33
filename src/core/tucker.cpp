#include "core/tucker.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "core/pca.hpp"  // components_for_target
#include "core/precond_error.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "la/eigen.hpp"

namespace rmp::core {
namespace {

// Tensor stored flat with shape (d0, d1, d2), index (i*d1 + j)*d2 + k --
// the Field layout.
struct Shape3 {
  std::size_t d0, d1, d2;
  std::size_t count() const { return d0 * d1 * d2; }
};

std::size_t flat(const Shape3& s, std::size_t i, std::size_t j,
                 std::size_t k) {
  return (i * s.d1 + j) * s.d2 + k;
}

// Gram matrix of the mode-m unfolding: G(a, b) = sum over the other two
// indices of T[a at mode m] * T[b at mode m].  Its eigenvectors are the
// HOSVD factor matrix for that mode, eigenvalues the squared singular
// values.
la::Matrix mode_gram(const std::vector<double>& t, const Shape3& s,
                     unsigned mode) {
  const std::size_t n = mode == 0 ? s.d0 : (mode == 1 ? s.d1 : s.d2);
  la::Matrix g(n, n);
  // Fiber-wise accumulation: for every fixed off-mode position, gather
  // the mode fiber and add its outer product, G += fiber * fiber^T.
  const std::size_t strides[3] = {s.d1 * s.d2, s.d2, 1};
  const std::size_t counts[3] = {s.d0, s.d1, s.d2};
  const unsigned o1 = mode == 0 ? 1 : 0;
  const unsigned o2 = mode == 2 ? 1 : 2;
  std::vector<double> fiber(n);
  for (std::size_t p = 0; p < counts[o1]; ++p) {
    for (std::size_t q = 0; q < counts[o2]; ++q) {
      const std::size_t base = p * strides[o1] + q * strides[o2];
      for (std::size_t a = 0; a < n; ++a) {
        fiber[a] = t[base + a * strides[mode]];
      }
      for (std::size_t a = 0; a < n; ++a) {
        const double fa = fiber[a];
        if (fa == 0.0) continue;
        for (std::size_t b = a; b < n; ++b) {
          g(a, b) += fa * fiber[b];
        }
      }
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < a; ++b) {
      g(a, b) = g(b, a);
    }
  }
  return g;
}

// Multiply tensor T by matrix M (r x d_mode) along `mode`; the mode's
// extent becomes r.
std::vector<double> mode_multiply(const std::vector<double>& t,
                                  const Shape3& s, unsigned mode,
                                  const la::Matrix& m, Shape3& out_shape) {
  const std::size_t r = m.rows();
  out_shape = s;
  (mode == 0 ? out_shape.d0 : mode == 1 ? out_shape.d1 : out_shape.d2) = r;
  std::vector<double> out(out_shape.count(), 0.0);

  const std::size_t n = mode == 0 ? s.d0 : (mode == 1 ? s.d1 : s.d2);
  for (std::size_t i = 0; i < out_shape.d0; ++i) {
    for (std::size_t j = 0; j < out_shape.d1; ++j) {
      for (std::size_t k = 0; k < out_shape.d2; ++k) {
        double sum = 0.0;
        const std::size_t row = mode == 0 ? i : (mode == 1 ? j : k);
        for (std::size_t a = 0; a < n; ++a) {
          const std::size_t si = mode == 0 ? a : i;
          const std::size_t sj = mode == 1 ? a : j;
          const std::size_t sk = mode == 2 ? a : k;
          sum += m(row, a) * t[flat(s, si, sj, sk)];
        }
        out[flat(out_shape, i, j, k)] = sum;
      }
    }
  }
  return out;
}

// Leading-k eigenvector block, transposed into a (k x n) projection.
la::Matrix projection_of(const la::EigenDecomposition& eig, std::size_t k) {
  la::Matrix p(k, eig.vectors.rows());
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < eig.vectors.rows(); ++c) {
      p(r, c) = eig.vectors(c, r);
    }
  }
  return p;
}

std::vector<double> sigma_proportions(const la::EigenDecomposition& eig) {
  std::vector<double> sigma;
  sigma.reserve(eig.values.size());
  double total = 0.0;
  for (double v : eig.values) {
    const double s = std::sqrt(std::max(v, 0.0));
    sigma.push_back(s);
    total += s;
  }
  if (total <= 0.0) {
    std::vector<double> proportions(sigma.size(), 0.0);
    if (!proportions.empty()) proportions[0] = 1.0;
    return proportions;
  }
  for (double& s : sigma) s /= total;
  return sigma;
}

// 3D fields keep their shape; anything else is its matrix view.
Shape3 canonical_shape(const compress::Dims& dims, MatrixShape matrix) {
  if (dims.rank() == 3) return {dims.nx, dims.ny, dims.nz};
  return {matrix.first, matrix.second, 1};
}

Shape3 canonical_shape(const sim::Field& field, MatrixShape matrix) {
  return canonical_shape(compress::Dims{field.nx(), field.ny(), field.nz()},
                         matrix);
}

// Section names of the per-mode factor matrices.
constexpr const char* kFactorSections[3] = {"u0", "u1", "u2"};

std::size_t extent(const Shape3& s, unsigned mode) {
  return mode == 0 ? s.d0 : (mode == 1 ? s.d1 : s.d2);
}

}  // namespace

std::vector<std::vector<double>> tucker_mode_proportions(
    const sim::Field& field) {
  const Shape3 shape = canonical_shape(field, matrix_shape(field));
  const std::vector<double> tensor(field.flat().begin(), field.flat().end());
  std::vector<std::vector<double>> proportions;
  for (unsigned mode = 0; mode < 3; ++mode) {
    const auto eig = la::jacobi_eigen(mode_gram(tensor, shape, mode));
    proportions.push_back(sigma_proportions(eig));
  }
  return proportions;
}

TuckerPreconditioner::TuckerPreconditioner(TuckerOptions options)
    : options_(options) {
  if (options_.energy_target <= 0.0 || options_.energy_target > 1.0) {
    throw std::invalid_argument("tucker: energy_target must be in (0, 1]");
  }
}

ReducedModel TuckerPreconditioner::fit(const sim::Field& field,
                                       MatrixShape matrix,
                                       const CodecPair& codecs) const {
  const Shape3 shape = canonical_shape(field, matrix);
  std::vector<double> tensor(field.flat().begin(), field.flat().end());

  // Per-mode factors by Gram-matrix eigendecomposition.
  std::array<la::Matrix, 3> factors;   // k_m x d_m projections
  std::array<std::size_t, 3> ranks{};
  for (unsigned mode = 0; mode < 3; ++mode) {
    if (extent(shape, mode) == 1) {
      ranks[mode] = 1;
      factors[mode] = la::Matrix::identity(1);
      continue;
    }
    const auto eig = la::jacobi_eigen(mode_gram(tensor, shape, mode));
    if (!eig.converged) {
      throw PreconditionError(
          PrecondErrc::kEigenNonConvergence,
          "tucker: mode-" + std::to_string(mode) +
              " gram eigendecomposition left off-diagonal residual " +
              std::to_string(eig.off_diagonal_residual));
    }
    std::size_t k = components_for_target(sigma_proportions(eig),
                                          options_.energy_target);
    if (k == 0) {
      throw PreconditionError(PrecondErrc::kRankFailure,
                              "tucker: mode-" + std::to_string(mode) +
                                  " rank selection produced no components");
    }
    ranks[mode] = k;
    factors[mode] = projection_of(eig, k);
  }

  // Core tensor: project along every mode.
  Shape3 core_shape = shape;
  std::vector<double> core = tensor;
  for (unsigned mode = 0; mode < 3; ++mode) {
    Shape3 next{};
    core = mode_multiply(core, core_shape, mode, factors[mode], next);
    core_shape = next;
  }

  auto core_bytes =
      traced_compress(*codecs.reduced, "reduced-compress", core,
                      {core_shape.d0, core_shape.d1, core_shape.d2});

  // Reconstruction from the clean core, paper-style.
  Shape3 recon_shape = core_shape;
  std::vector<double> recon = core;
  for (unsigned mode = 0; mode < 3; ++mode) {
    Shape3 next{};
    recon = mode_multiply(recon, recon_shape, mode,
                          factors[mode].transposed(), next);
    recon_shape = next;
  }

  ReducedModel model;
  model.sections.push_back({"core", std::move(core_bytes)});
  for (unsigned mode = 0; mode < 3; ++mode) {
    model.sections.push_back(
        {kFactorSections[mode], matrix_to_bytes(factors[mode])});
  }
  model.meta = {ranks[0], ranks[1], ranks[2], shape.d0, shape.d1, shape.d2};
  model.reconstruction = std::move(recon);
  return model;
}

std::vector<double> TuckerPreconditioner::rebuild(
    const SectionSource& sections, std::span<const std::uint64_t> meta,
    const compress::Dims& dims, MatrixShape matrix,
    const CodecPair& codecs) const {
  const auto& core_section = sections("core");
  sections.require(meta.size() == 6, "malformed tucker meta", "meta");
  const Shape3 shape = canonical_shape(dims, matrix);
  const Shape3 core_shape{meta[0], meta[1], meta[2]};
  bool fits = meta[3] == shape.d0 && meta[4] == shape.d1 && meta[5] == shape.d2;
  for (unsigned mode = 0; mode < 3; ++mode) {
    const std::size_t rank = extent(core_shape, mode);
    fits = fits && rank >= 1 && rank <= extent(shape, mode);
  }
  sections.require(fits, "meta ranks and shape do not fit the field", "meta");

  std::array<la::Matrix, 3> factors;
  for (unsigned mode = 0; mode < 3; ++mode) {
    const std::string name = kFactorSections[mode];
    factors[mode] = bytes_to_matrix(sections(name).bytes);
    sections.require(factors[mode].rows() == extent(core_shape, mode) &&
                         factors[mode].cols() == extent(shape, mode),
                     "factor shape mismatch", name);
  }

  std::vector<double> recon = traced_decompress(
      *codecs.reduced, "reduced-decompress", core_section.bytes);
  sections.require(recon.size() == core_shape.count(), "core size mismatch",
                   "core");
  Shape3 current = core_shape;
  for (unsigned mode = 0; mode < 3; ++mode) {
    Shape3 next{};
    recon = mode_multiply(recon, current, mode, factors[mode].transposed(),
                          next);
    current = next;
  }
  return recon;
}

}  // namespace rmp::core
