#include "sim/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace phoenix {

Matrix Matrix::identity(std::size_t dim) {
  Matrix m(dim);
  for (std::size_t i = 0; i < dim; ++i) m.at(i, i) = 1;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  if (dim_ != o.dim_) throw std::invalid_argument("Matrix::+=: dim mismatch");
  for (std::size_t i = 0; i < a_.size(); ++i) a_[i] += o.a_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  if (dim_ != o.dim_) throw std::invalid_argument("Matrix::-=: dim mismatch");
  for (std::size_t i = 0; i < a_.size(); ++i) a_[i] -= o.a_[i];
  return *this;
}

Matrix& Matrix::operator*=(Complex s) {
  for (auto& v : a_) v *= s;
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  if (a.dim_ != b.dim_) throw std::invalid_argument("Matrix::*: dim mismatch");
  const std::size_t n = a.dim_;
  Matrix c(n);
  // ikj loop order keeps the inner loop contiguous in both b and c.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      const Complex aik = a.a_[i * n + k];
      if (aik == Complex{0, 0}) continue;
      const Complex* brow = &b.a_[k * n];
      Complex* crow = &c.a_[i * n];
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix Matrix::adjoint() const {
  Matrix m(dim_);
  for (std::size_t i = 0; i < dim_; ++i)
    for (std::size_t j = 0; j < dim_; ++j) m.at(j, i) = std::conj(at(i, j));
  return m;
}

Complex Matrix::trace() const {
  Complex t{0, 0};
  for (std::size_t i = 0; i < dim_; ++i) t += at(i, i);
  return t;
}

double Matrix::max_abs() const {
  double m = 0;
  for (const auto& v : a_) m = std::max(m, std::abs(v));
  return m;
}

double Matrix::one_norm() const {
  double best = 0;
  for (std::size_t j = 0; j < dim_; ++j) {
    double col = 0;
    for (std::size_t i = 0; i < dim_; ++i) col += std::abs(at(i, j));
    best = std::max(best, col);
  }
  return best;
}

bool Matrix::approx_equal(const Matrix& o, double tol) const {
  if (dim_ != o.dim_) return false;
  for (std::size_t i = 0; i < a_.size(); ++i)
    if (std::abs(a_[i] - o.a_[i]) > tol) return false;
  return true;
}

Matrix expm_minus_i(const Matrix& h, double t) {
  const std::size_t n = h.dim();
  // A = -i t H, scaled so ||A/2^s||_1 <= 0.5, then Taylor + repeated squaring.
  Matrix a = h;
  a *= Complex{0, -t};
  const double norm = a.one_norm();
  int s = 0;
  double scaled = norm;
  while (scaled > 0.5) {
    scaled /= 2;
    ++s;
  }
  const double factor = std::ldexp(1.0, -s);
  a *= Complex{factor, 0};

  Matrix result = Matrix::identity(n);
  Matrix term = Matrix::identity(n);
  // ||A|| <= 0.5: ~20 terms reach double precision.
  for (int k = 1; k <= 24; ++k) {
    term = term * a;
    term *= Complex{1.0 / k, 0};
    result += term;
    if (term.max_abs() < 1e-18) break;
  }
  for (int i = 0; i < s; ++i) result = result * result;
  return result;
}

double infidelity(const Matrix& u, const Matrix& v) {
  if (u.dim() != v.dim())
    throw std::invalid_argument("infidelity: dim mismatch");
  // Tr(U† V) = sum_ij conj(u_ij) v_ij: one pass over both matrices, no
  // product formed.
  Complex tr{0, 0};
  for (std::size_t i = 0; i < u.dim(); ++i)
    for (std::size_t j = 0; j < u.dim(); ++j)
      tr += std::conj(u.at(i, j)) * v.at(i, j);
  return 1.0 - std::abs(tr) / static_cast<double>(u.dim());
}

}  // namespace phoenix
