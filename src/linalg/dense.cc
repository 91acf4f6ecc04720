#include "linalg/dense.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace ektelo {

namespace {

double ColumnNorm(const double* x, std::size_t len) {
  double s = 0.0;
  for (std::size_t i = 0; i < len; ++i) s += x[i] * x[i];
  return std::sqrt(s);
}

/// Turns x = a[0, len) into a Householder reflector H = I - tau v v^T with
/// H x = beta e_0: on return a[0] = beta and a[1, len) holds v below its
/// implicit leading 1.  Returns tau; 0 when x is already a multiple of e_0.
double MakeReflector(double* a, std::size_t len) {
  double tail = 0.0;
  for (std::size_t i = 1; i < len; ++i) tail += a[i] * a[i];
  if (tail == 0.0) return 0.0;
  const double alpha = a[0];
  const double norm = std::sqrt(alpha * alpha + tail);
  const double beta = alpha >= 0.0 ? -norm : norm;
  const double inv = 1.0 / (alpha - beta);
  for (std::size_t i = 1; i < len; ++i) a[i] *= inv;
  a[0] = beta;
  return (beta - alpha) / beta;
}

/// y[0, len) = H y for the reflector MakeReflector left in v.
void Reflect(const double* v, double tau, double* y, std::size_t len) {
  if (tau == 0.0) return;
  double dot = y[0];
  for (std::size_t i = 1; i < len; ++i) dot += v[i] * y[i];
  dot *= tau;
  y[0] -= dot;
  for (std::size_t i = 1; i < len; ++i) y[i] -= dot * v[i];
}

}  // namespace

DenseMatrix DenseMatrix::Identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Vec DenseMatrix::Matvec(const Vec& x) const {
  EK_CHECK_EQ(x.size(), cols_);
  Vec y(rows_);
  Matvec(x.data(), y.data());
  return y;
}

void DenseMatrix::Matvec(const double* x, double* y) const {
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    double s = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) s += row[j] * x[j];
    y[i] = s;
  }
}

Vec DenseMatrix::RmatVec(const Vec& x) const {
  EK_CHECK_EQ(x.size(), rows_);
  Vec y(cols_);
  RmatVec(x.data(), y.data());
  return y;
}

void DenseMatrix::RmatVec(const double* x, double* y) const {
  std::fill(y, y + cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < cols_; ++j) y[j] += xi * row[j];
  }
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t.At(j, i) = At(i, j);
  return t;
}

DenseMatrix DenseMatrix::Matmul(const DenseMatrix& other) const {
  EK_CHECK_EQ(cols_, other.rows());
  DenseMatrix r(rows_, other.cols());
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = At(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.RowPtr(k);
      double* rrow = r.RowPtr(i);
      for (std::size_t j = 0; j < other.cols(); ++j) rrow[j] += aik * brow[j];
    }
  }
  return r;
}

DenseMatrix DenseMatrix::Gram() const {
  DenseMatrix g(cols_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    for (std::size_t a = 0; a < cols_; ++a) {
      const double ra = row[a];
      if (ra == 0.0) continue;
      double* grow = g.RowPtr(a);
      for (std::size_t b = 0; b < cols_; ++b) grow[b] += ra * row[b];
    }
  }
  return g;
}

DenseMatrix DenseMatrix::Abs() const {
  DenseMatrix r = *this;
  for (double& v : r.data()) v = std::abs(v);
  return r;
}

DenseMatrix DenseMatrix::Sqr() const {
  DenseMatrix r = *this;
  for (double& v : r.data()) v = v * v;
  return r;
}

double DenseMatrix::MaxColNormL1() const {
  Vec col(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) col[j] += std::abs(At(i, j));
  return col.empty() ? 0.0 : *std::max_element(col.begin(), col.end());
}

double DenseMatrix::MaxColNormL2() const {
  Vec col(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) col[j] += At(i, j) * At(i, j);
  double m = col.empty() ? 0.0 : *std::max_element(col.begin(), col.end());
  return std::sqrt(m);
}

bool DenseMatrix::ApproxEquals(const DenseMatrix& other, double tol) const {
  if (rows_ != other.rows() || cols_ != other.cols()) return false;
  for (std::size_t i = 0; i < data_.size(); ++i)
    if (std::abs(data_[i] - other.data()[i]) > tol) return false;
  return true;
}

bool CholeskyFactor(DenseMatrix* a) {
  EK_CHECK_EQ(a->rows(), a->cols());
  const std::size_t n = a->rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = a->At(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= a->At(j, k) * a->At(j, k);
    if (d <= 0.0) return false;
    d = std::sqrt(d);
    a->At(j, j) = d;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a->At(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= a->At(i, k) * a->At(j, k);
      a->At(i, j) = s / d;
    }
  }
  // Zero the strict upper triangle so the factor is unambiguous.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) a->At(i, j) = 0.0;
  return true;
}

Vec CholeskySolve(const DenseMatrix& chol, const Vec& b) {
  const std::size_t n = chol.rows();
  EK_CHECK_EQ(b.size(), n);
  Vec y(n);
  // Forward: L y = b
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= chol.At(i, k) * y[k];
    y[i] = s / chol.At(i, i);
  }
  // Backward: L^T x = y
  Vec x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= chol.At(k, ii) * x[k];
    x[ii] = s / chol.At(ii, ii);
  }
  return x;
}

Vec DirectLeastSquares(const DenseMatrix& a, const Vec& b, double ridge) {
  EK_CHECK_EQ(b.size(), a.rows());
  return SolveNormalEquations(a.Gram(), a.RmatVec(b), ridge);
}

Vec SolveNormalEquations(DenseMatrix gram, const Vec& atb, double ridge) {
  EK_CHECK_EQ(gram.rows(), gram.cols());
  EK_CHECK_EQ(atb.size(), gram.rows());
  // Scale-aware jitter keeps the factorization stable for rank-deficient
  // measurement sets without visibly biasing well-posed solves.
  double diag_max = 0.0;
  for (std::size_t i = 0; i < gram.rows(); ++i)
    diag_max = std::max(diag_max, gram.At(i, i));
  const double jitter = ridge * std::max(diag_max, 1.0);
  DenseMatrix chol = gram;
  for (std::size_t i = 0; i < chol.rows(); ++i) chol.At(i, i) += jitter;
  if (!CholeskyFactor(&chol)) {
    // Retry with a stronger ridge; the system is badly conditioned.
    chol = std::move(gram);
    for (std::size_t i = 0; i < chol.rows(); ++i)
      chol.At(i, i) += 1e-6 * std::max(diag_max, 1.0);
    EK_CHECK(CholeskyFactor(&chol));
  }
  return CholeskySolve(chol, atb);
}

Vec MinNormLeastSquares(const DenseMatrix& a, Vec b) {
  const std::size_t m = a.rows(), k = a.cols();
  EK_CHECK_EQ(b.size(), m);
  // Column-major working copy: every step below runs down columns.
  std::vector<double> q(m * k);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j) q[j * m + i] = a.At(i, j);
  auto col = [&q, m](std::size_t j) { return q.data() + j * m; };

  // 1. A P = Q R by Householder QR with column pivoting.  norm[] holds the
  //    trailing column norms, downdated per step as in LAPACK's xLAQP2 and
  //    recomputed when the downdate has lost half the digits; ref[] is a
  //    column's norm at its last recomputation.
  std::vector<std::size_t> perm(k);
  Vec norm(k), ref(k);
  double max_norm = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    perm[j] = j;
    norm[j] = ref[j] = ColumnNorm(col(j), m);
    max_norm = std::max(max_norm, norm[j]);
  }
  const double eps = std::numeric_limits<double>::epsilon();
  const double tol = double(std::max(m, k)) * eps * max_norm;
  const std::size_t steps = std::min(m, k);
  std::size_t rank = 0;
  for (; rank < steps; ++rank) {
    const std::size_t j = rank;
    std::size_t p = j;
    for (std::size_t l = j + 1; l < k; ++l)
      if (norm[l] > norm[p]) p = l;
    if (norm[p] <= tol) break;  // the trailing block is numerically zero
    if (p != j) {
      std::swap_ranges(col(p), col(p) + m, col(j));
      std::swap(perm[p], perm[j]);
      std::swap(norm[p], norm[j]);
      std::swap(ref[p], ref[j]);
    }
    const double tau = MakeReflector(col(j) + j, m - j);
    for (std::size_t l = j + 1; l < k; ++l)
      Reflect(col(j) + j, tau, col(l) + j, m - j);
    Reflect(col(j) + j, tau, b.data() + j, m - j);
    for (std::size_t l = j + 1; l < k; ++l) {
      if (norm[l] == 0.0) continue;
      const double r = std::abs(col(l)[j]) / norm[l];
      const double left = std::max(0.0, 1.0 - r * r);
      const double drift = norm[l] / ref[l];
      if (left * drift * drift <= std::sqrt(eps)) {
        norm[l] = ref[l] = ColumnNorm(col(l) + j + 1, m - j - 1);
      } else {
        norm[l] *= std::sqrt(left);
      }
    }
  }

  // 2. The minimum-norm w with T w = c, T = R[0, rank) x [0, k) (upper
  //    trapezoidal, full row rank) and c = (Q^T b)[0, rank).  Full column
  //    rank: back substitution.  Otherwise factor T^T = Q2 [S; 0] and take
  //    w = Q2 [S^-T c; 0], which lies in T's row space.
  Vec w(k, 0.0);
  if (rank == k) {
    for (std::size_t i = k; i-- > 0;) {
      double s = b[i];
      for (std::size_t l = i + 1; l < k; ++l) s -= col(l)[i] * w[l];
      w[i] = s / col(i)[i];
    }
  } else if (rank > 0) {
    std::vector<double> t(k * rank, 0.0);  // T^T, k x rank column-major
    for (std::size_t i = 0; i < rank; ++i)
      for (std::size_t l = i; l < k; ++l) t[i * k + l] = col(l)[i];
    Vec tau(rank);
    for (std::size_t i = 0; i < rank; ++i) {
      tau[i] = MakeReflector(&t[i * k + i], k - i);
      for (std::size_t l = i + 1; l < rank; ++l)
        Reflect(&t[i * k + i], tau[i], &t[l * k + i], k - i);
    }
    for (std::size_t i = 0; i < rank; ++i) {  // S^T w = c, S^T lower
      double s = b[i];
      for (std::size_t l = 0; l < i; ++l) s -= t[i * k + l] * w[l];
      w[i] = s / t[i * k + i];
    }
    for (std::size_t i = rank; i-- > 0;)
      Reflect(&t[i * k + i], tau[i], w.data() + i, k - i);
  }
  Vec x(k);
  for (std::size_t j = 0; j < k; ++j) x[perm[j]] = w[j];
  return x;
}

DenseMatrix PseudoInverse(const DenseMatrix& a, double ridge) {
  // A+ = (A^T A + rI)^{-1} A^T, adequate for the small, full-column-rank
  // matrices used in per-dimension strategy scoring.
  DenseMatrix gram = a.Gram();
  double diag_max = 0.0;
  for (std::size_t i = 0; i < gram.rows(); ++i)
    diag_max = std::max(diag_max, gram.At(i, i));
  for (std::size_t i = 0; i < gram.rows(); ++i)
    gram.At(i, i) += ridge * std::max(diag_max, 1.0);
  DenseMatrix chol = gram;
  EK_CHECK(CholeskyFactor(&chol));
  DenseMatrix at = a.Transpose();
  DenseMatrix result(a.cols(), a.rows());
  Vec col(a.cols());
  for (std::size_t j = 0; j < a.rows(); ++j) {
    for (std::size_t i = 0; i < a.cols(); ++i) col[i] = at.At(i, j);
    Vec x = CholeskySolve(chol, col);
    for (std::size_t i = 0; i < a.cols(); ++i) result.At(i, j) = x[i];
  }
  return result;
}

}  // namespace ektelo
