#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "math/bbox.hpp"
#include "math/matrix.hpp"
#include "math/vec2.hpp"
#include "stats/rng.hpp"

namespace rt::math {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
  EXPECT_EQ(-a, (Vec2{-1.0, -2.0}));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).norm(), 5.0);
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).squared_norm(), 25.0);
  EXPECT_DOUBLE_EQ(a.distance_to(b), std::hypot(2.0, 3.0));
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);

  const Matrix init{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(init(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(init(1, 0), 3.0);
  EXPECT_THROW((Matrix{{1.0}, {2.0, 3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityAndDiagonal) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
  const double entries[] = {2.0, 5.0};
  const Matrix d = Matrix::diagonal(entries);
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, Multiply) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  EXPECT_THROW(a * Matrix(3, 3), std::invalid_argument);
}

TEST(Matrix, AddSubtractScale) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ((a + b)(1, 1), 5.0);
  EXPECT_DOUBLE_EQ((a - b)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ((a * 2.0)(1, 0), 6.0);
  EXPECT_THROW(a + Matrix(3, 2), std::invalid_argument);
}

TEST(Matrix, Transpose) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, InverseRoundTrip) {
  stats::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 6);
    Matrix a(n, n);
    for (auto& v : a.data()) v = rng.uniform(-2.0, 2.0);
    // Diagonal dominance guarantees invertibility.
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0;
    const Matrix inv = a.inverse();
    const Matrix prod = a * inv;
    EXPECT_LT(prod.max_abs_diff(Matrix::identity(n)), 1e-9);
  }
}

TEST(Matrix, InverseSingularThrows) {
  const Matrix z(3, 3, 0.0);
  EXPECT_THROW(z.inverse(), std::domain_error);
  EXPECT_THROW(Matrix(2, 3).inverse(), std::invalid_argument);
}

TEST(Matrix, Cholesky) {
  // A = L L^T for a hand-built SPD matrix.
  const Matrix l_true{{2.0, 0.0}, {1.0, 3.0}};
  const Matrix a = l_true * l_true.transposed();
  const Matrix l = a.cholesky();
  EXPECT_LT(l.max_abs_diff(l_true), 1e-12);
  EXPECT_THROW(Matrix(2, 2, 0.0).cholesky(), std::domain_error);
}

TEST(Bbox, CornersAndArea) {
  const Bbox b = Bbox::from_corners(10.0, 20.0, 30.0, 60.0);
  EXPECT_DOUBLE_EQ(b.cx, 20.0);
  EXPECT_DOUBLE_EQ(b.cy, 40.0);
  EXPECT_DOUBLE_EQ(b.w, 20.0);
  EXPECT_DOUBLE_EQ(b.h, 40.0);
  EXPECT_DOUBLE_EQ(b.area(), 800.0);
  EXPECT_DOUBLE_EQ(b.left(), 10.0);
  EXPECT_DOUBLE_EQ(b.bottom(), 60.0);
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(Bbox{}.valid());
}

TEST(Bbox, IouIdentityAndDisjoint) {
  const Bbox a{0.0, 0.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(iou(a, a), 1.0);
  const Bbox far{100.0, 0.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(iou(a, far), 0.0);
}

TEST(Bbox, IouKnownValue) {
  // Two unit-area boxes overlapping by half.
  const Bbox a{0.0, 0.0, 2.0, 2.0};
  const Bbox b{1.0, 0.0, 2.0, 2.0};
  // intersection = 1x2 = 2, union = 4 + 4 - 2 = 6.
  EXPECT_NEAR(iou(a, b), 2.0 / 6.0, 1e-12);
}

/// Property sweep: IoU of a translated copy is symmetric, bounded, and
/// monotonically non-increasing with |shift|.
class IouShiftTest : public ::testing::TestWithParam<double> {};

TEST_P(IouShiftTest, SymmetricBoundedMonotone) {
  const double w = GetParam();
  const Bbox base{50.0, 50.0, w, w * 1.5};
  double prev = 1.0;
  for (double shift = 0.0; shift <= 2.0 * w; shift += w / 8.0) {
    const Bbox moved = base.translated(shift, 0.0);
    const double o = iou(base, moved);
    EXPECT_GE(o, 0.0);
    EXPECT_LE(o, 1.0);
    EXPECT_LE(o, prev + 1e-12);  // monotone non-increasing
    EXPECT_NEAR(o, iou(moved, base), 1e-12);  // symmetric
    prev = o;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, IouShiftTest,
                         ::testing::Values(4.0, 16.0, 64.0, 200.0));

TEST(Bbox, PureTranslationIouFormula) {
  // For equal boxes translated dx < w: IoU = (w-dx)h / ((2w - (w-dx))h)
  const double w = 20.0;
  const Bbox a{0.0, 0.0, w, 10.0};
  for (double dx = 0.0; dx < w; dx += 2.5) {
    const double expected = (w - dx) / (w + dx);
    EXPECT_NEAR(iou(a, a.translated(dx, 0.0)), expected, 1e-12);
  }
}


// ------------------------------------- destination-passing kernel layer

// The `*_into` kernels carry a bit-identity contract against the
// allocating operators (same i-k-j accumulation order, same
// skip-exact-zero shortcut); these sweeps enforce it bitwise — including
// sign-of-zero — across shapes, sparsity, and negative zeros.

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto ad = a.data();
  const auto bd = b.data();
  return std::memcmp(ad.data(), bd.data(), ad.size() * sizeof(double)) == 0;
}

/// Reference implementations: the historical allocating loops, kept here
/// verbatim so the kernel sweep is non-circular (the operators now delegate
/// to the kernels, so comparing operator vs kernel alone would be vacuous).
Matrix reference_multiply(const Matrix& a, const Matrix& b) {
  Matrix r(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double v = a(i, k);
      if (v == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        r(i, j) += v * b(k, j);
      }
    }
  }
  return r;
}

Matrix reference_inverse(const Matrix& m) {
  const std::size_t n = m.rows();
  Matrix a = m;
  Matrix inv = Matrix::identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    if (std::abs(a(pivot, col)) < 1e-12) {
      throw std::domain_error("singular");
    }
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a(col, j), a(pivot, j));
        std::swap(inv(col, j), inv(pivot, j));
      }
    }
    const double d = a(col, col);
    for (std::size_t j = 0; j < n; ++j) {
      a(col, j) /= d;
      inv(col, j) /= d;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = a(r, col);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        a(r, j) -= f * a(col, j);
        inv(r, j) -= f * inv(col, j);
      }
    }
  }
  return inv;
}

/// Random matrix with exact zeros and negatives mixed in (the zero-skip
/// path and -0.0 handling must match, not just "close" values).
Matrix random_matrix(std::size_t r, std::size_t c, stats::Rng& rng) {
  Matrix m(r, c);
  for (double& v : m.data()) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.15) {
      v = 0.0;
    } else if (roll < 0.2) {
      v = -0.0;
    } else {
      v = rng.uniform(-3.0, 3.0);
    }
  }
  return m;
}

TEST(MatrixKernels, MultiplyIntoMatchesOperatorBitwise) {
  stats::Rng rng(101);
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 13, 16, 33};
  for (const std::size_t r : sizes) {
    for (const std::size_t k : sizes) {
      for (const std::size_t c : sizes) {
        const Matrix a = random_matrix(r, k, rng);
        const Matrix b = random_matrix(k, c, rng);
        Matrix out;
        multiply_into(a, b, out);
        const Matrix expected = reference_multiply(a, b);
        EXPECT_TRUE(bitwise_equal(out, expected))
            << r << "x" << k << " * " << k << "x" << c;
        EXPECT_TRUE(bitwise_equal(a * b, expected));
      }
    }
  }
}

TEST(MatrixKernels, TransposedVariantsMatchOperatorsBitwise) {
  stats::Rng rng(102);
  const std::size_t sizes[] = {1, 2, 3, 4, 6, 8, 11, 16};
  for (const std::size_t r : sizes) {
    for (const std::size_t k : sizes) {
      for (const std::size_t c : sizes) {
        const Matrix a = random_matrix(r, k, rng);
        const Matrix bt = random_matrix(c, k, rng);  // b^T operand
        Matrix out;
        multiply_transposed_into(a, bt, out);
        EXPECT_TRUE(
            bitwise_equal(out, reference_multiply(a, bt.transposed())))
            << "a*b^T " << r << "x" << k << ", " << c << "x" << k;

        const Matrix at = random_matrix(k, r, rng);  // a^T operand
        const Matrix b = random_matrix(k, c, rng);
        transposed_multiply_into(at, b, out);
        EXPECT_TRUE(
            bitwise_equal(out, reference_multiply(at.transposed(), b)))
            << "a^T*b " << k << "x" << r << ", " << k << "x" << c;
      }
    }
  }
}

TEST(MatrixKernels, AddSubtractAffineMatchBitwise) {
  stats::Rng rng(103);
  for (const std::size_t r : {1u, 3u, 5u, 8u, 17u}) {
    for (const std::size_t c : {1u, 2u, 7u, 16u}) {
      const Matrix a = random_matrix(r, c, rng);
      const Matrix b = random_matrix(r, c, rng);
      Matrix out;
      add_into(a, b, out);
      EXPECT_TRUE(bitwise_equal(out, a + b));
      subtract_into(a, b, out);
      EXPECT_TRUE(bitwise_equal(out, a - b));

      // affine_into mirrors the dense-layer forward: w*x then a per-row
      // bias add.
      const Matrix w = random_matrix(r, 5, rng);
      const Matrix x = random_matrix(5, c, rng);
      const Matrix bias = random_matrix(r, 1, rng);
      affine_into(w, x, bias, out);
      Matrix expected = reference_multiply(w, x);
      for (std::size_t i = 0; i < expected.rows(); ++i) {
        for (std::size_t j = 0; j < expected.cols(); ++j) {
          expected(i, j) += bias(i, 0);
        }
      }
      EXPECT_TRUE(bitwise_equal(out, expected));
    }
  }
}

TEST(MatrixKernels, InvertIntoMatchesInverseBitwise) {
  stats::Rng rng(104);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 6u, 8u, 12u}) {
    // Diagonally-dominant => well-conditioned and invertible.
    Matrix a = random_matrix(n, n, rng);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 10.0;
    Matrix scratch;
    Matrix out;
    invert_into(a, scratch, out);
    const Matrix expected = reference_inverse(a);
    EXPECT_TRUE(bitwise_equal(out, expected));
    EXPECT_TRUE(bitwise_equal(a.inverse(), expected));
  }
  Matrix singular(3, 3, 0.0);
  Matrix scratch;
  Matrix out;
  EXPECT_THROW(invert_into(singular, scratch, out), std::domain_error);
}

TEST(MatrixKernels, ShapeAndAliasViolationsThrow) {
  Matrix a(2, 3, 1.0);
  Matrix b(4, 2, 1.0);
  Matrix out;
  EXPECT_THROW(multiply_into(a, b, out), std::invalid_argument);
  EXPECT_THROW(multiply_transposed_into(a, Matrix(2, 2, 1.0), out),
               std::invalid_argument);
  EXPECT_THROW(transposed_multiply_into(a, Matrix(3, 2, 1.0), out),
               std::invalid_argument);
  EXPECT_THROW(add_into(a, Matrix(3, 2, 1.0), out), std::invalid_argument);
  EXPECT_THROW(subtract_into(a, Matrix(3, 3, 1.0), out),
               std::invalid_argument);

  Matrix sq(3, 3, 1.0);
  EXPECT_THROW(multiply_into(sq, sq, sq), std::invalid_argument);
  Matrix c(3, 3, 2.0);
  EXPECT_THROW(multiply_into(sq, c, c), std::invalid_argument);
  Matrix scratch;
  EXPECT_THROW(invert_into(sq, scratch, sq), std::invalid_argument);
  EXPECT_THROW(invert_into(sq, sq, scratch), std::invalid_argument);
}

TEST(MatrixKernels, RowRangeKernelsPartitionBitwise) {
  // The minibatch trainer's parallel slots: covering [0, rows) with ANY
  // disjoint consecutive ranges must reproduce the full kernels bit for
  // bit — this is what makes TrainConfig::threads both thread-count-
  // invariant and golden-preserving.
  stats::Rng rng(105);
  const std::size_t sizes[] = {1, 2, 3, 5, 8, 13, 16, 33};
  for (const std::size_t r : sizes) {
    for (const std::size_t k : sizes) {
      for (const std::size_t c : sizes) {
        // Random partition of [0, rows) into 1..4 consecutive ranges.
        const auto partition = [&rng](std::size_t rows) {
          std::vector<std::size_t> cuts{0, rows};
          const int extra = static_cast<int>(rng.uniform_int(0, 3));
          for (int i = 0; i < extra; ++i) {
            cuts.push_back(static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(rows))));
          }
          std::sort(cuts.begin(), cuts.end());
          return cuts;
        };

        const Matrix w = random_matrix(r, k, rng);
        const Matrix x = random_matrix(k, c, rng);
        const Matrix bias = random_matrix(r, 1, rng);
        Matrix full;
        affine_into(w, x, bias, full);
        Matrix sliced(r, c, 0.123);  // poison: every row must be written
        for (auto cuts = partition(r); cuts.size() >= 2;) {
          for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            affine_rows_into(w, x, bias, sliced, cuts[i], cuts[i + 1]);
          }
          break;
        }
        EXPECT_TRUE(bitwise_equal(sliced, full))
            << "affine " << r << "x" << k << "x" << c;

        const Matrix a = random_matrix(r, k, rng);
        const Matrix bt = random_matrix(c, k, rng);
        Matrix full_t;
        multiply_transposed_into(a, bt, full_t);
        Matrix sliced_t(r, c, 0.123);
        for (auto cuts = partition(r); cuts.size() >= 2;) {
          for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            multiply_transposed_rows_into(a, bt, sliced_t, cuts[i],
                                          cuts[i + 1]);
          }
          break;
        }
        EXPECT_TRUE(bitwise_equal(sliced_t, full_t))
            << "a*b^T rows " << r << "x" << k << "x" << c;

        const Matrix at = random_matrix(k, r, rng);
        const Matrix b = random_matrix(k, c, rng);
        Matrix full_at;
        transposed_multiply_into(at, b, full_at);
        Matrix sliced_at(r, c, 0.123);
        for (auto cuts = partition(r); cuts.size() >= 2;) {
          for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            transposed_multiply_rows_into(at, b, sliced_at, cuts[i],
                                          cuts[i + 1]);
          }
          break;
        }
        EXPECT_TRUE(bitwise_equal(sliced_at, full_at))
            << "a^T*b rows " << r << "x" << k << "x" << c;
      }
    }
  }
}

TEST(MatrixKernels, RowRangeKernelsValidate) {
  Matrix w(3, 2, 1.0);
  Matrix x(2, 4, 1.0);
  Matrix bias(3, 1, 1.0);
  Matrix out;  // not pre-sized
  EXPECT_THROW(affine_rows_into(w, x, bias, out, 0, 3),
               std::invalid_argument);
  out.resize(3, 4);
  EXPECT_THROW(affine_rows_into(w, x, bias, out, 2, 1),
               std::invalid_argument);
  EXPECT_THROW(affine_rows_into(w, x, bias, out, 0, 4),
               std::invalid_argument);
  EXPECT_NO_THROW(affine_rows_into(w, x, bias, out, 0, 3));
  EXPECT_THROW(multiply_transposed_rows_into(w, Matrix(4, 3, 1.0), out, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(transposed_multiply_rows_into(w, Matrix(2, 4, 1.0), out, 0, 1),
               std::invalid_argument);
}

// multiply_into / affine_into / affine_rows_into with a one-column rhs run
// the vectorized column kernel (one lane per output row, 4x4 in-register
// transposes, partial blocks shifted back to overlap). It must match the
// plain scalar skip-zero loop bit for bit on every shape — every partial
// row block and k tail — and on every input: +-0.0 weights, and 0, -0.0,
// inf and NaN entries in x.
TEST(MatrixKernels, ColumnKernelMatchesScalarSkipZeroLoopBitwise) {
  volatile double inf_source = std::numeric_limits<double>::infinity();
  const double inf = inf_source;
  // The platform's default NaN: the same pattern inf - inf produces inside
  // the sums, so all NaNs in the sweep share one bit pattern and the
  // comparison can stay bitwise whatever order an add takes its operands.
  const double nan = inf_source - inf_source;
  const auto reference = [](const Matrix& w, const Matrix& x,
                            const Matrix* bias, std::size_t i) {
    double s = 0.0;
    for (std::size_t k = 0; k < w.cols(); ++k) {
      const double v = w(i, k);
      if (v != 0.0) s += v * x(k, 0);
    }
    return bias != nullptr ? s + (*bias)(i, 0) : s;
  };
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  stats::Rng rng(2024);
  int mismatches = 0;
  int specials_seen = 0;
  for (std::size_t rows = 1; rows <= 37; ++rows) {
    for (std::size_t inner = 1; inner <= 103; ++inner) {
      Matrix w(rows, inner);
      for (double& v : w.data()) {
        const double roll = rng.uniform(0.0, 1.0);
        v = roll < 0.1 ? 0.0 : roll < 0.2 ? -0.0 : rng.uniform(-2.0, 2.0);
      }
      // Half the inputs are finite (zeros included), half carry rare
      // infinities and NaNs, so both the finite and the non-finite sums
      // get exercised at every shape.
      const bool specials = rng.uniform(0.0, 1.0) < 0.5;
      const double rate = specials ? 1.0 / static_cast<double>(inner) : 0.0;
      Matrix x(inner, 1);
      for (double& v : x.data()) {
        const double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.1) {
          v = 0.0;
        } else if (roll < 0.2) {
          v = -0.0;
        } else if (roll < 0.2 + rate) {
          const double pick = rng.uniform(0.0, 3.0);
          v = pick < 1.0 ? inf : pick < 2.0 ? -inf : nan;
          ++specials_seen;
        } else {
          v = rng.uniform(-2.0, 2.0);
        }
      }
      Matrix bias(rows, 1);
      for (double& v : bias.data()) v = rng.uniform(-1.0, 1.0);

      Matrix out;
      multiply_into(w, x, out);
      Matrix out_affine;
      affine_into(w, x, bias, out_affine);
      Matrix out_rows(rows, 1);
      const std::size_t cut = rows / 3;
      affine_rows_into(w, x, bias, out_rows, 0, cut);
      affine_rows_into(w, x, bias, out_rows, cut, rows);
      ASSERT_EQ(out.rows(), rows);
      ASSERT_EQ(out_affine.rows(), rows);
      for (std::size_t i = 0; i < rows; ++i) {
        const double plain = reference(w, x, nullptr, i);
        const double affine = reference(w, x, &bias, i);
        if (!same_bits(out(i, 0), plain) ||
            !same_bits(out_affine(i, 0), affine) ||
            !same_bits(out_rows(i, 0), affine)) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << "rows " << rows << " inner " << inner << " row "
                          << i << ": kernel " << out(i, 0) << " / "
                          << out_affine(i, 0) << " / " << out_rows(i, 0)
                          << ", reference " << plain << " / " << affine;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(specials_seen, 1000);
}

TEST(MatrixKernels, ResizeReusesStorageWithoutShrinking) {
  Matrix m(8, 8, 1.0);
  const double* before = m.data().data();
  m.resize(4, 4);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 4u);
  // Shrinking then growing back within the original footprint must not
  // move the storage (the workspace reuse the hot paths depend on).
  m.resize(8, 8);
  EXPECT_EQ(m.data().data(), before);
  m.resize(2, 3);
  EXPECT_EQ(m.data().data(), before);
}

}  // namespace
}  // namespace rt::math
