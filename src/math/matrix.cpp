#include "math/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace rt::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(std::span<const double> entries) {
  Matrix m(entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) m(i, i) = entries[i];
  return m;
}

Matrix Matrix::column(std::span<const double> entries) {
  Matrix m(entries.size(), 1);
  std::copy(entries.begin(), entries.end(), m.data_.begin());
  return m;
}

void Matrix::require_same_shape(const Matrix& o) const {
  if (rows_ != o.rows_ || cols_ != o.cols_) {
    throw std::invalid_argument("Matrix: shape mismatch");
  }
}

Matrix Matrix::operator+(const Matrix& o) const {
  Matrix r = *this;
  r += o;
  return r;
}

Matrix Matrix::operator-(const Matrix& o) const {
  Matrix r = *this;
  r -= o;
  return r;
}

namespace detail {

void throw_kernel_alias() {
  throw std::invalid_argument("Matrix kernel: out aliases an input");
}

void throw_inner_mismatch() {
  throw std::invalid_argument("Matrix: inner dimension mismatch");
}

void throw_singular() {
  throw std::domain_error("Matrix::inverse: singular matrix");
}

}  // namespace detail

namespace {

// The column kernel is written once with GCC vector extensions. With -mavx2
// a v4d is one ymm register; without it GCC lowers every operation to two
// SSE2 halves. Either way each lane is an IEEE multiply and an IEEE add in
// the source order (never contracted: no FMA is enabled), so both lowerings
// produce the same bits.
typedef double v4d __attribute__((vector_size(32)));
typedef double v2d __attribute__((vector_size(16)));
typedef long long v4i __attribute__((vector_size(32)));

// Vectors cross helper boundaries by reference only: passing or returning
// a 32-byte vector by value has a different ABI with and without AVX.

inline v2d load2(const double* p) {
  v2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// The 4x4 tile at `r` — rows r, r + s1, r + s2, r + s3 and 4 consecutive
/// k — transposed in registers: col[c] holds column c of the tile, one lane
/// per row. Each row pair is read as 2-wide halves ([a0 a1 c0 c1] and
/// [b0 b1 d0 d1]), so one interleave per column finishes the transpose.
inline void load_tile_transposed(const double* r, std::size_t s1,
                                 std::size_t s2, std::size_t s3,
                                 v4d col[4]) {
  const v4d lo_ac = __builtin_shufflevector(load2(r), load2(r + s2), 0, 1, 2, 3);
  const v4d lo_bd =
      __builtin_shufflevector(load2(r + s1), load2(r + s3), 0, 1, 2, 3);
  const v4d hi_ac =
      __builtin_shufflevector(load2(r + 2), load2(r + s2 + 2), 0, 1, 2, 3);
  const v4d hi_bd =
      __builtin_shufflevector(load2(r + s1 + 2), load2(r + s3 + 2), 0, 1, 2, 3);
  col[0] = __builtin_shufflevector(lo_ac, lo_bd, 0, 4, 2, 6);
  col[1] = __builtin_shufflevector(lo_ac, lo_bd, 1, 5, 3, 7);
  col[2] = __builtin_shufflevector(hi_ac, hi_bd, 0, 4, 2, 6);
  col[3] = __builtin_shufflevector(hi_ac, hi_bd, 1, 5, 3, 7);
}

/// acc += (w != 0.0 ? w * x : +0.0), lane by lane. Masking the product of
/// an exact-zero weight to +0.0 is the skip-zero loop's `continue` in
/// branch-free form: the accumulator starts at +0.0, and under
/// round-to-nearest a sum that starts at +0.0 never becomes -0.0, so adding
/// +0.0 leaves every accumulator value (finite, infinite or NaN) unchanged —
/// while a skipped 0 * inf or 0 * NaN term stays out of the sum.
inline void add_term(v4d& acc, const v4d& w, double x) {
  const v4d xv = {x, x, x, x};
  const v4i keep = w != v4d{};
  acc += (v4d)((v4i)(w * xv) & keep);
}

/// B blocks of 4 consecutive rows starting at `a` (row-major, `inner`
/// columns), one lane per row. Each block keeps its 4 row sums in one
/// vector; B > 1 keeps B independent add chains in flight to hide the add
/// latency. Every lane adds its terms in ascending k.
template <std::size_t B>
void column_blocks(const double* a, std::size_t inner, const double* x,
                   const double* bias, double* out) {
  v4d acc[B] = {};
  const std::size_t s1 = inner;
  const std::size_t s2 = 2 * inner;
  const std::size_t s3 = 3 * inner;
  std::size_t k = 0;
  for (; k + 4 <= inner; k += 4) {
    // Unrolled so every accumulator lives in a register.
#pragma GCC unroll 4
    for (std::size_t b = 0; b < B; ++b) {
      v4d col[4];
      load_tile_transposed(a + 4 * b * inner + k, s1, s2, s3, col);
      for (std::size_t c = 0; c < 4; ++c) add_term(acc[b], col[c], x[k + c]);
    }
  }
  for (; k < inner; ++k) {
#pragma GCC unroll 4
    for (std::size_t b = 0; b < B; ++b) {
      const double* r = a + 4 * b * inner + k;
      add_term(acc[b], v4d{r[0], r[s1], r[s2], r[s3]}, x[k]);
    }
  }
  for (std::size_t b = 0; b < B; ++b) {
    if (bias != nullptr) {
      v4d bv;
      std::memcpy(&bv, bias + 4 * b, sizeof bv);
      acc[b] += bv;
    }
    std::memcpy(out + 4 * b, &acc[b], sizeof acc[b]);
  }
}

/// out[i] = sum_k a[i * inner + k] * x[k] (+ bias[i] when `bias` is not
/// null) for rows i in [0, rows) of a row-major `a`: the column kernel
/// behind every one-column product. Bit-identical, for every input with
/// inf and NaN included, to the scalar skip-zero loop
///
///   double s = 0.0;
///   for (k = 0; k < inner; ++k) if (a[i*inner+k] != 0.0) s += a[i*inner+k] * x[k];
///   out[i] = s (+ bias[i]);
///
/// which is also what it runs for fewer than 4 rows.
void column_kernel(const double* a, std::size_t rows, std::size_t inner,
                   const double* x, const double* bias, double* out) {
  if (rows < 4) {
    for (std::size_t i = 0; i < rows; ++i) {
      const double* r = a + i * inner;
      double s = 0.0;
      for (std::size_t k = 0; k < inner; ++k) {
        if (r[k] != 0.0) s += r[k] * x[k];
      }
      out[i] = bias != nullptr ? s + bias[i] : s;
    }
    return;
  }
  const auto run = [&](std::size_t blocks, std::size_t i) {
    const double* ai = a + i * inner;
    const double* bi = bias != nullptr ? bias + i : nullptr;
    switch (blocks) {
      case 1: return column_blocks<1>(ai, inner, x, bi, out + i);
      case 2: return column_blocks<2>(ai, inner, x, bi, out + i);
      case 3: return column_blocks<3>(ai, inner, x, bi, out + i);
      default: return column_blocks<4>(ai, inner, x, bi, out + i);
    }
  };
  std::size_t i = 0;
  for (; i + 16 <= rows; i += 16) run(4, i);
  // The remaining rows < 16 run as one narrower group. A partial block
  // shifts back to end at the last row, recomputing (and rewriting with the
  // same bits) rows an earlier block already produced — every lane is an
  // independent sum, so overlap cannot change a value.
  const std::size_t rest = rows - i;
  if (rest == 0) return;
  const std::size_t blocks = (rest + 3) / 4;
  if (rows >= 4 * blocks) return run(blocks, rows - 4 * blocks);
  // rows < 16 and not a multiple of 4: the full blocks, then one block
  // ending at the last row.
  if (rest / 4 > 0) run(rest / 4, 0);
  run(1, rows - 4);
}

void require_no_alias(const Matrix& a, const Matrix& b, const Matrix& out) {
  if (&out == &a || &out == &b) detail::throw_kernel_alias();
}

}  // namespace

void multiply_into(const Matrix& a, const Matrix& b, Matrix& out) {
  require_no_alias(a, b, out);
  if (a.cols() != b.rows()) detail::throw_inner_mismatch();
  const std::size_t rows = a.rows();
  const std::size_t inner = a.cols();
  const std::size_t cols = b.cols();
  out.resize(rows, cols);
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  double* od = out.data().data();
  if (cols == 1) {
    return column_kernel(ad, rows, inner, bd, nullptr, od);
  }
  // Register-tiled wide path (batched NN forwards): accumulate each output
  // row in fixed-width column tiles held in a local array, so the compiler
  // keeps the whole tile in registers instead of dragging a load-add-store
  // chain through `out`, whose aliasing it cannot prove. Per output element
  // the terms still sum in ascending k with the same skip-exact-zero-lhs
  // shortcut — bit-identical to the plain i-k-j loop.
  constexpr std::size_t kTile = 16;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* arow = ad + i * inner;
    for (std::size_t j0 = 0; j0 < cols; j0 += kTile) {
      const std::size_t width = std::min(kTile, cols - j0);
      double acc[kTile] = {};
      if (width == kTile) {
        for (std::size_t k = 0; k < inner; ++k) {
          const double v = arow[k];
          if (v == 0.0) continue;
          const double* brow = bd + k * cols + j0;
          for (std::size_t j = 0; j < kTile; ++j) acc[j] += v * brow[j];
        }
      } else {
        for (std::size_t k = 0; k < inner; ++k) {
          const double v = arow[k];
          if (v == 0.0) continue;
          const double* brow = bd + k * cols + j0;
          for (std::size_t j = 0; j < width; ++j) acc[j] += v * brow[j];
        }
      }
      double* orow = od + i * cols + j0;
      for (std::size_t j = 0; j < width; ++j) orow[j] = acc[j];
    }
  }
}

void multiply_transposed_into(const Matrix& a, const Matrix& b, Matrix& out) {
  require_no_alias(a, b, out);
  if (a.cols() != b.cols()) detail::throw_inner_mismatch();
  const std::size_t rows = a.rows();
  const std::size_t inner = a.cols();
  const std::size_t cols = b.rows();
  out.resize(rows, cols);
  // out(i, j) = sum_k a(i, k) * b(j, k): rows of both operands stream
  // sequentially, and register accumulation (four independent j chains)
  // replaces the historical `a * b.transposed()` materialization. Per
  // element the terms still sum in ascending k, skipping exact-zero a —
  // bit-identical to the allocating expression.
  for (std::size_t i = 0; i < rows; ++i) {
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      double s0 = 0.0;
      double s1 = 0.0;
      double s2 = 0.0;
      double s3 = 0.0;
      for (std::size_t k = 0; k < inner; ++k) {
        const double v = a(i, k);
        if (v == 0.0) continue;
        s0 += v * b(j, k);
        s1 += v * b(j + 1, k);
        s2 += v * b(j + 2, k);
        s3 += v * b(j + 3, k);
      }
      out(i, j) = s0;
      out(i, j + 1) = s1;
      out(i, j + 2) = s2;
      out(i, j + 3) = s3;
    }
    for (; j < cols; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < inner; ++k) {
        const double v = a(i, k);
        if (v == 0.0) continue;
        s += v * b(j, k);
      }
      out(i, j) = s;
    }
  }
}

void transposed_multiply_into(const Matrix& a, const Matrix& b, Matrix& out) {
  require_no_alias(a, b, out);
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("Matrix: inner dimension mismatch");
  }
  out.resize(a.cols(), b.cols());
  std::fill(out.data().begin(), out.data().end(), 0.0);
  // a^T(i, k) = a(k, i); the loop order matches `a.transposed() * b`.
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t k = 0; k < a.rows(); ++k) {
      const double v = a(k, i);
      if (v == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += v * b(k, j);
      }
    }
  }
}

void add_into(const Matrix& a, const Matrix& b, Matrix& out) {
  require_no_alias(a, b, out);
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("Matrix: shape mismatch");
  }
  out.resize(a.rows(), a.cols());
  const auto ad = a.data();
  const auto bd = b.data();
  const auto od = out.data();
  for (std::size_t i = 0; i < ad.size(); ++i) od[i] = ad[i] + bd[i];
}

void subtract_into(const Matrix& a, const Matrix& b, Matrix& out) {
  require_no_alias(a, b, out);
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("Matrix: shape mismatch");
  }
  out.resize(a.rows(), a.cols());
  const auto ad = a.data();
  const auto bd = b.data();
  const auto od = out.data();
  for (std::size_t i = 0; i < ad.size(); ++i) od[i] = ad[i] - bd[i];
}

void affine_into(const Matrix& w, const Matrix& x, const Matrix& bias,
                 Matrix& out) {
  if (bias.rows() != w.rows() || bias.cols() != 1) {
    throw std::invalid_argument("affine_into: bias must be rows(w) x 1");
  }
  if (x.cols() == 1) {
    require_no_alias(w, x, out);
    if (&out == &bias) detail::throw_kernel_alias();
    if (w.cols() != x.rows()) detail::throw_inner_mismatch();
    out.resize(w.rows(), 1);
    return column_kernel(w.data().data(), w.rows(), w.cols(), x.data().data(),
                         bias.data().data(), out.data().data());
  }
  multiply_into(w, x, out);
  for (std::size_t i = 0; i < out.rows(); ++i) {
    const double bi = bias(i, 0);
    for (std::size_t j = 0; j < out.cols(); ++j) out(i, j) += bi;
  }
}

namespace {

void require_row_range(const Matrix& out, std::size_t rows, std::size_t cols,
                       std::size_t row_begin, std::size_t row_end) {
  if (out.rows() != rows || out.cols() != cols) {
    throw std::invalid_argument("Matrix row kernel: out not pre-sized");
  }
  if (row_begin > row_end || row_end > rows) {
    throw std::invalid_argument("Matrix row kernel: bad row range");
  }
}

}  // namespace

void affine_rows_into(const Matrix& w, const Matrix& x, const Matrix& bias,
                      Matrix& out, std::size_t row_begin,
                      std::size_t row_end) {
  require_no_alias(w, x, out);
  if (&out == &bias) detail::throw_kernel_alias();
  if (w.cols() != x.rows()) detail::throw_inner_mismatch();
  if (bias.rows() != w.rows() || bias.cols() != 1) {
    throw std::invalid_argument("affine_rows_into: bias must be rows(w) x 1");
  }
  require_row_range(out, w.rows(), x.cols(), row_begin, row_end);
  const std::size_t inner = w.cols();
  const std::size_t cols = x.cols();
  if (cols == 1) {
    // The column kernel restricted to the range: every row is its own
    // ordered sum, so the partition cannot change a value.
    return column_kernel(w.data().data() + row_begin * inner,
                         row_end - row_begin, inner, x.data().data(),
                         bias.data().data() + row_begin,
                         out.data().data() + row_begin);
  }
  // Register-tiled wide path, mirroring multiply_into's: per output row,
  // fixed-width column tiles accumulate in a local array (registers), then
  // the bias adds once per element. Ascending-k sums with the same
  // skip-exact-zero shortcut — bit-identical to the memory-accumulating
  // loop this replaces, for any row partition.
  constexpr std::size_t kTile = 16;
  const double* wd = w.data().data();
  const double* xd2 = x.data().data();
  double* od = out.data().data();
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* wrow = wd + i * inner;
    const double bi = bias(i, 0);
    for (std::size_t j0 = 0; j0 < cols; j0 += kTile) {
      const std::size_t width = std::min(kTile, cols - j0);
      double acc[kTile] = {};
      if (width == kTile) {
        for (std::size_t k = 0; k < inner; ++k) {
          const double v = wrow[k];
          if (v == 0.0) continue;
          const double* xrow = xd2 + k * cols + j0;
          for (std::size_t j = 0; j < kTile; ++j) acc[j] += v * xrow[j];
        }
      } else {
        for (std::size_t k = 0; k < inner; ++k) {
          const double v = wrow[k];
          if (v == 0.0) continue;
          const double* xrow = xd2 + k * cols + j0;
          for (std::size_t j = 0; j < width; ++j) acc[j] += v * xrow[j];
        }
      }
      double* orow = od + i * cols + j0;
      for (std::size_t j = 0; j < width; ++j) orow[j] = acc[j] + bi;
    }
  }
}

void multiply_transposed_rows_into(const Matrix& a, const Matrix& b,
                                   Matrix& out, std::size_t row_begin,
                                   std::size_t row_end) {
  require_no_alias(a, b, out);
  if (a.cols() != b.cols()) detail::throw_inner_mismatch();
  require_row_range(out, a.rows(), b.rows(), row_begin, row_end);
  const std::size_t inner = a.cols();
  const std::size_t cols = b.rows();
  // Same per-element ordered sums as multiply_transposed_into (the 4-chain
  // register grouping there never mixes elements, so a plain per-element
  // loop is bit-identical).
  for (std::size_t i = row_begin; i < row_end; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < inner; ++k) {
        const double v = a(i, k);
        if (v == 0.0) continue;
        s += v * b(j, k);
      }
      out(i, j) = s;
    }
  }
}

void transposed_multiply_rows_into(const Matrix& a, const Matrix& b,
                                   Matrix& out, std::size_t row_begin,
                                   std::size_t row_end) {
  require_no_alias(a, b, out);
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("Matrix: inner dimension mismatch");
  }
  require_row_range(out, a.cols(), b.cols(), row_begin, row_end);
  for (std::size_t i = row_begin; i < row_end; ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) = 0.0;
  }
  for (std::size_t i = row_begin; i < row_end; ++i) {
    for (std::size_t k = 0; k < a.rows(); ++k) {
      const double v = a(k, i);
      if (v == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += v * b(k, j);
      }
    }
  }
}

void invert_into(const Matrix& a, Matrix& scratch, Matrix& out) {
  require_no_alias(a, scratch, out);
  if (&scratch == &a || &scratch == &out) {
    throw std::invalid_argument("Matrix kernel: scratch aliases another");
  }
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Matrix::inverse: matrix not square");
  }
  const std::size_t n = a.rows();
  scratch = a;
  out.resize(n, n);
  std::fill(out.data().begin(), out.data().end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: find the largest-magnitude entry in this column.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(scratch(r, col)) > std::abs(scratch(pivot, col))) pivot = r;
    }
    if (std::abs(scratch(pivot, col)) < 1e-12) detail::throw_singular();
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(scratch(col, j), scratch(pivot, j));
        std::swap(out(col, j), out(pivot, j));
      }
    }
    const double d = scratch(col, col);
    for (std::size_t j = 0; j < n; ++j) {
      scratch(col, j) /= d;
      out(col, j) /= d;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = scratch(r, col);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        scratch(r, j) -= f * scratch(col, j);
        out(r, j) -= f * out(col, j);
      }
    }
  }
}

Matrix& Matrix::operator+=(const Matrix& o) {
  require_same_shape(o);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  require_same_shape(o);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix Matrix::operator*(const Matrix& o) const {
  Matrix r;
  multiply_into(*this, o, r);
  return r;
}

Matrix Matrix::operator*(double s) const {
  Matrix r = *this;
  r *= s;
  return r;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix r(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      r(j, i) = (*this)(i, j);
    }
  }
  return r;
}

Matrix Matrix::inverse() const {
  Matrix scratch;
  Matrix inv;
  invert_into(*this, scratch, inv);
  return inv;
}

Matrix Matrix::cholesky() const {
  if (rows_ != cols_) {
    throw std::invalid_argument("Matrix::cholesky: matrix not square");
  }
  const std::size_t n = rows_;
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = (*this)(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          throw std::domain_error("Matrix::cholesky: not positive definite");
        }
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

double Matrix::norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::max_abs_diff(const Matrix& o) const {
  require_same_shape(o);
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - o.data_[i]));
  }
  return m;
}

}  // namespace rt::math
