#include "core/wavelet_precond.hpp"

#include <stdexcept>

#include "compress/lossless.hpp"
#include "core/reshape.hpp"
#include "la/sparse.hpp"
#include "wavelet/haar.hpp"

namespace rmp::core {

WaveletPreconditioner::WaveletPreconditioner(WaveletOptions options)
    : options_(options) {
  if (options_.threshold_fraction < 0.0 || options_.threshold_fraction >= 1.0) {
    throw std::invalid_argument("wavelet: threshold_fraction must be in [0, 1)");
  }
}

ReducedModel WaveletPreconditioner::fit(const sim::Field& field,
                                        MatrixShape shape,
                                        const CodecPair&) const {
  const bool use_3d = options_.transform_3d && field.rank() == 3;
  la::Matrix coeffs = as_matrix(field, shape);
  if (use_3d) {
    // Same memory layout: the canonical (nx*ny, nz) matrix view of the
    // 3D coefficient array keeps the CSR machinery unchanged.
    wavelet::haar_forward_3d(coeffs.flat(), field.nx(), field.ny(),
                             field.nz());
  } else {
    wavelet::haar_forward_2d(coeffs);
  }

  const double theta =
      wavelet::threshold_for_fraction(coeffs, options_.threshold_fraction);
  wavelet::threshold_coefficients(coeffs, theta);

  const la::CsrMatrix sparse = la::CsrMatrix::from_dense(coeffs);

  // Reconstruction from the thresholded coefficients.
  if (use_3d) {
    wavelet::haar_inverse_3d(coeffs.flat(), field.nx(), field.ny(),
                             field.nz());
  } else {
    wavelet::haar_inverse_2d(coeffs);
  }

  ReducedModel model;
  model.sections.push_back(
      {"sparse", compress::lossless_compress(sparse.serialize())});
  model.meta = {use_3d ? 1u : 0u};
  model.reconstruction = std::move(coeffs).release();
  return model;
}

std::vector<double> WaveletPreconditioner::rebuild(
    const SectionSource& sections, std::span<const std::uint64_t> meta,
    const compress::Dims& dims, MatrixShape shape, const CodecPair&) const {
  const auto& sparse_section = sections("sparse");
  const auto raw = compress::lossless_decompress(sparse_section.bytes);
  const la::CsrMatrix sparse =
      la::CsrMatrix::deserialize(raw.data(), raw.size());
  sections.require(sparse.rows() == shape.first &&
                       sparse.cols() == shape.second,
                   "sparse matrix shape mismatch", "sparse");
  const bool use_3d = !meta.empty() && meta[0] != 0;
  sections.require(!use_3d || dims.rank() == 3,
                   "3D transform on a field of lower rank", "meta");

  la::Matrix recon = sparse.to_dense();
  if (use_3d) {
    wavelet::haar_inverse_3d(recon.flat(), dims.nx, dims.ny, dims.nz);
  } else {
    wavelet::haar_inverse_2d(recon);
  }
  return std::move(recon).release();
}

}  // namespace rmp::core
