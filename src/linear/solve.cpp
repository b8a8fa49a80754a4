#include "src/linear/solve.hpp"

#include <cmath>

#include "src/common/check.hpp"

namespace hpcp {

Matrix cholesky_factor(Matrix a) {
  HPCP_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    HPCP_REQUIRE(diag > 0.0, "matrix is not positive definite");
    const double ljj = std::sqrt(diag);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= a(i, k) * a(j, k);
      a(i, j) = v / ljj;
    }
    for (std::size_t c = j + 1; c < n; ++c) a(j, c) = 0.0;
  }
  return a;
}

std::vector<double> forward_substitute(const Matrix& l,
                                       std::span<const double> b) {
  const std::size_t n = l.rows();
  HPCP_REQUIRE(b.size() == n, "rhs length must match matrix size");
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l(i, k) * y[k];
    y[i] = v / l(i, i);
  }
  return y;
}

std::vector<double> back_substitute_transposed(const Matrix& l,
                                               std::span<const double> y) {
  const std::size_t n = l.rows();
  HPCP_REQUIRE(y.size() == n, "rhs length must match matrix size");
  std::vector<double> x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double v = y[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= l(k, i) * x[k];
    x[i] = v / l(i, i);
  }
  return x;
}

std::vector<double> cholesky_solve(const Matrix& a, std::span<const double> b) {
  const Matrix l = cholesky_factor(a);
  const auto y = forward_substitute(l, b);
  return back_substitute_transposed(l, y);
}

}  // namespace hpcp
