// Field <-> matrix reshaping for the dimension-reduction preconditioners.
//
// The paper treats a dataset as an m x n matrix with columns as variables.
// Convention here (DESIGN.md §5): a 3D field (nx, ny, nz) becomes the
// (nx*ny) x nz matrix whose rows are (x, y) samples; a 2D field maps
// directly; a 1D signal is folded into the most nearly square m x n
// factorization so PCA/SVD remain meaningful.
#pragma once

#include <cstddef>
#include <utility>

#include "compress/compressor.hpp"
#include "la/matrix.hpp"
#include "sim/field.hpp"

namespace rmp::core {

/// Rows x columns of a matrix view.
using MatrixShape = std::pair<std::size_t, std::size_t>;

/// Matrix shape a field (or a field of shape `dims`) will be viewed as.
MatrixShape matrix_shape(const sim::Field& field);
MatrixShape matrix_shape(const compress::Dims& dims);

/// Most nearly square factorization m x n = count with m >= n.
std::pair<std::size_t, std::size_t> near_square_factors(std::size_t count);

/// View the field's data as the canonical matrix, or as a matrix of the
/// given shape over the same row-major data (copies).
la::Matrix as_matrix(const sim::Field& field);
la::Matrix as_matrix(const sim::Field& field, MatrixShape shape);

/// Inverse of as_matrix: rebuild a field of the given shape.
sim::Field matrix_to_field(const la::Matrix& m, std::size_t nx, std::size_t ny,
                           std::size_t nz);

}  // namespace rmp::core
