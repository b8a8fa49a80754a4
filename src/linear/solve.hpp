#pragma once

#include <vector>

#include "src/linear/matrix.hpp"

/// \file solve.hpp
/// Direct solvers for the symmetric positive-definite systems produced by
/// least-squares normal equations.

namespace hpcp {

/// In-place lower-triangular Cholesky factor L of a symmetric
/// positive-definite matrix A (A = L·Lᵀ). The strict upper triangle of the
/// result is zeroed. Throws std::invalid_argument if A is not square or a
/// non-positive pivot is met (A not SPD within tolerance).
[[nodiscard]] Matrix cholesky_factor(Matrix a);

/// Solves A x = b for SPD A via Cholesky.
[[nodiscard]] std::vector<double> cholesky_solve(const Matrix& a,
                                                 std::span<const double> b);

/// Forward substitution: solves L y = b for lower-triangular L.
[[nodiscard]] std::vector<double> forward_substitute(const Matrix& l,
                                                     std::span<const double> b);

/// Back substitution: solves Lᵀ x = y for lower-triangular L.
[[nodiscard]] std::vector<double> back_substitute_transposed(
    const Matrix& l, std::span<const double> y);

}  // namespace hpcp
