#include "src/linear/matrix.hpp"

#include <stdexcept>

#include "src/common/check.hpp"

namespace hpcp {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    HPCP_REQUIRE(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

std::vector<double> Matrix::column(std::size_t c) const {
  HPCP_REQUIRE(c < cols_, "column index out of range");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::set_row(std::size_t r, std::span<const double> values) {
  HPCP_REQUIRE(r < rows_, "row index out of range");
  HPCP_REQUIRE(values.size() == cols_, "row width mismatch");
  auto dst = row(r);
  for (std::size_t c = 0; c < cols_; ++c) dst[c] = values[c];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::multiply(const Matrix& other) const {
  HPCP_REQUIRE(cols_ == other.rows_, "inner dimensions must match");
  Matrix out(rows_, other.cols_);
  // i-k-j loop order: streams over `other`'s rows, cache-friendly for
  // row-major storage.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      const auto brow = other.row(k);
      auto orow = out.row(i);
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += a * brow[j];
    }
  }
  return out;
}

std::vector<double> Matrix::multiply(std::span<const double> v) const {
  HPCP_REQUIRE(v.size() == cols_, "vector length must match cols");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const auto r = row(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += r[j] * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix Matrix::gram() const {
  Matrix g(cols_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const auto r = row(i);
    for (std::size_t a = 0; a < cols_; ++a) {
      const double ra = r[a];
      if (ra == 0.0) continue;
      auto grow = g.row(a);
      for (std::size_t b = a; b < cols_; ++b) grow[b] += ra * r[b];
    }
  }
  for (std::size_t a = 0; a < cols_; ++a) {
    for (std::size_t b = 0; b < a; ++b) g(a, b) = g(b, a);
  }
  return g;
}

std::vector<double> Matrix::transpose_multiply(
    std::span<const double> v) const {
  HPCP_REQUIRE(v.size() == rows_, "vector length must match rows");
  std::vector<double> out(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double vi = v[i];
    if (vi == 0.0) continue;
    const auto r = row(i);
    for (std::size_t j = 0; j < cols_; ++j) out[j] += r[j] * vi;
  }
  return out;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

Matrix Matrix::select_rows(std::span<const std::size_t> idx) const {
  Matrix out(idx.size(), cols_);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    HPCP_REQUIRE(idx[i] < rows_, "row index out of range");
    out.set_row(i, row(idx[i]));
  }
  return out;
}

void Matrix::append_column(std::span<const double> col) {
  if (empty() && rows_ == 0) {
    rows_ = col.size();
    cols_ = 1;
    data_.assign(col.begin(), col.end());
    return;
  }
  HPCP_REQUIRE(col.size() == rows_, "column length must match rows");
  std::vector<double> next((cols_ + 1) * rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      next[r * (cols_ + 1) + c] = (*this)(r, c);
    }
    next[r * (cols_ + 1) + cols_] = col[r];
  }
  data_ = std::move(next);
  ++cols_;
}

void Matrix::save(Serializer& out) const {
  out.tag("matrix");
  out.write(rows_);
  out.write(cols_);
  out.write(data_);
}

Matrix Matrix::load(Deserializer& in) {
  in.expect_tag("matrix");
  Matrix m;
  m.rows_ = in.read_size();
  m.cols_ = in.read_size();
  m.data_ = in.read_doubles();
  // Divide, not multiply: a crafted rows × cols can overflow.
  Deserializer::check(m.cols_ == 0 ? m.data_.empty()
                                   : m.data_.size() % m.cols_ == 0 &&
                                         m.data_.size() / m.cols_ == m.rows_,
                      "matrix shape does not match its data");
  return m;
}

}  // namespace hpcp
