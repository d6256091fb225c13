#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "ml/matrix.h"

namespace streamtune::ml {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 6);
}

TEST(MatrixTest, IdentityAndMatMul) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix i = Matrix::Identity(2);
  Matrix prod = a.MatMul(i);
  EXPECT_TRUE(prod.same_shape(a));
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(prod.at(r, c), a.at(r, c));
  }
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});      // 2x3
  Matrix b = Matrix::FromRows({{7, 8}, {9, 10}, {11, 12}});  // 3x2
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = a.Transpose();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 6);
  Matrix tt = t.Transpose();
  EXPECT_TRUE(tt.same_shape(a));
  EXPECT_DOUBLE_EQ(tt.at(1, 2), 6);
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  EXPECT_DOUBLE_EQ(a.Add(b).at(1, 1), 12);
  EXPECT_DOUBLE_EQ(a.Sub(b).at(0, 0), -4);
  EXPECT_DOUBLE_EQ(a.Hadamard(b).at(1, 0), 21);
  EXPECT_DOUBLE_EQ(a.Scale(-2).at(0, 1), -4);
}

TEST(MatrixTest, RowBroadcastAndSumRows) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix bias = Matrix::FromRows({{10, 20}});
  Matrix r = a.AddRowBroadcast(bias);
  EXPECT_DOUBLE_EQ(r.at(0, 0), 11);
  EXPECT_DOUBLE_EQ(r.at(1, 1), 24);
  Matrix s = a.SumRows();
  EXPECT_EQ(s.rows(), 1);
  EXPECT_DOUBLE_EQ(s.at(0, 0), 4);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 6);
}

TEST(MatrixTest, ConcatAndSliceInverse) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5}, {6}});
  Matrix cat = a.ConcatCols(b);
  EXPECT_EQ(cat.cols(), 3);
  EXPECT_DOUBLE_EQ(cat.at(1, 2), 6);
  Matrix left = cat.SliceCols(0, 2);
  Matrix right = cat.SliceCols(2, 3);
  EXPECT_DOUBLE_EQ(left.at(0, 1), 2);
  EXPECT_DOUBLE_EQ(right.at(0, 0), 5);
}

TEST(MatrixTest, RowAccessors) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(a.Row(1), (std::vector<double>{4, 5, 6}));
  a.SetRow(0, {7, 8, 9});
  EXPECT_DOUBLE_EQ(a.at(0, 2), 9);
}

TEST(MatrixTest, Reductions) {
  Matrix a = Matrix::FromRows({{1, -2}, {3, -4}});
  EXPECT_DOUBLE_EQ(a.SumAll(), -2);
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 1 + 4 + 9 + 16);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 4);
}

TEST(MatrixTest, GlorotUniformWithinLimit) {
  Rng rng(5);
  Matrix m = Matrix::GlorotUniform(8, 8, &rng);
  double limit = std::sqrt(6.0 / 16.0);
  for (double v : m.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
  EXPECT_GT(m.MaxAbs(), 0.0);  // not all zero
}

// ---- Kernel layer ----------------------------------------------------------

// Entries uniform in [-1, 1); with `zeros`, every fifth entry is an exact
// zero so the matmuls' zero-skip (compacted nonzero-k) path runs, and
// without, every row is dense and the matmuls take their dense path.
Matrix RandomMatrix(int r, int c, Rng* rng, bool zeros = true) {
  Matrix m(r, c);
  for (double& v : m.data()) v = 2 * rng->Uniform() - 1;
  if (zeros) {
    for (int i = 0; i < r * c; i += 5) m.data()[i] = 0.0;
  }
  return m;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "entry " << i;
  }
}

// m x k times k x n products checked bit for bit against the composed
// Matrix references: output widths below, at and past the 16-wide column
// block of MatMulInto/MatMulTNInto and the 8-wide dot block of
// MatMulNTInto, so every block and every tail runs.
struct MatMulShape {
  int m, k, n;
};
const MatMulShape kMatMulShapes[] = {{5, 7, 4},  {1, 1, 1},   {3, 9, 4},
                                     {5, 7, 17}, {8, 16, 32}, {2, 21, 19},
                                     {5, 13, 17}};

TEST(MatrixKernelTest, MatMulIntoMatchesMatMul) {
  Rng rng(21);
  for (const MatMulShape& s : kMatMulShapes) {
    for (bool zeros : {true, false}) {
      SCOPED_TRACE(testing::Message() << s.m << "x" << s.k << "x" << s.n
                                      << (zeros ? " with zeros" : " dense"));
      Matrix a = RandomMatrix(s.m, s.k, &rng, zeros);
      Matrix b = RandomMatrix(s.k, s.n, &rng, zeros);
      Matrix out;
      MatMulInto(a, b, &out);
      ExpectBitIdentical(out, a.MatMul(b));
    }
  }
}

TEST(MatrixKernelTest, MatMulNTIntoMatchesTransposedComposition) {
  Rng rng(22);
  for (const MatMulShape& s : kMatMulShapes) {
    for (bool zeros : {true, false}) {
      SCOPED_TRACE(testing::Message() << s.m << "x" << s.k << "x" << s.n
                                      << (zeros ? " with zeros" : " dense"));
      Matrix a = RandomMatrix(s.m, s.k, &rng, zeros);
      Matrix b = RandomMatrix(s.n, s.k, &rng, zeros);  // out = a * b^T
      Matrix out;
      MatMulNTInto(a, b, &out);
      ExpectBitIdentical(out, a.MatMul(b.Transpose()));
    }
  }
}

TEST(MatrixKernelTest, MatMulTNIntoMatchesTransposedComposition) {
  Rng rng(23);
  for (const MatMulShape& s : kMatMulShapes) {
    for (bool zeros : {true, false}) {
      SCOPED_TRACE(testing::Message() << s.m << "x" << s.k << "x" << s.n
                                      << (zeros ? " with zeros" : " dense"));
      Matrix a = RandomMatrix(s.k, s.m, &rng, zeros);  // out = a^T * b
      Matrix b = RandomMatrix(s.k, s.n, &rng, zeros);
      Matrix out;
      MatMulTNInto(a, b, &out);
      ExpectBitIdentical(out, a.Transpose().MatMul(b));
    }
  }
}

TEST(MatrixKernelTest, ElementwiseKernelsBitIdentical) {
  Rng rng(24);
  // 3 x 23 leaves an odd tail behind any vector width the compiler picks.
  for (auto [rows, cols] :
       {std::pair{4, 6}, std::pair{4, 9}, std::pair{3, 23}}) {
    SCOPED_TRACE(testing::Message() << rows << "x" << cols);
    Matrix a = RandomMatrix(rows, cols, &rng);
    Matrix b = RandomMatrix(rows, cols, &rng);
    Matrix row = RandomMatrix(1, cols, &rng);
    Matrix out;
    AddMatInto(a, b, &out);
    ExpectBitIdentical(out, a.Add(b));
    SubInto(a, b, &out);
    ExpectBitIdentical(out, a.Sub(b));
    HadamardInto(a, b, &out);
    ExpectBitIdentical(out, a.Hadamard(b));
    ScaleInto(a, -1.75, &out);
    ExpectBitIdentical(out, a.Scale(-1.75));
    AddRowBroadcastInto(a, row, &out);
    ExpectBitIdentical(out, a.AddRowBroadcast(row));
    SumRowsInto(a, &out);
    ExpectBitIdentical(out, a.SumRows());
    SliceColsInto(a, 1, 4, &out);
    ExpectBitIdentical(out, a.SliceCols(1, 4));

    Matrix acc = a;
    AddInto(b, &acc);
    ExpectBitIdentical(acc, a.Add(b));
    for (double alpha : {0.5, -1.25, 0.37}) {
      acc = a;
      AxpyInto(alpha, b, &acc);
      for (size_t i = 0; i < acc.size(); ++i) {
        EXPECT_EQ(acc.data()[i], a.data()[i] + alpha * b.data()[i])
            << "alpha " << alpha << ", entry " << i;
      }
    }
    ReluInto(a, &out);
    ASSERT_TRUE(out.same_shape(a));
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(out.data()[i], a.data()[i] > 0.0 ? a.data()[i] : 0.0)
          << "entry " << i;
    }
  }
}

// The MatrixSimdTest suite keeps its name from when a second (AVX2) kernel
// table existed; the kernels it checks are now the only ones every build runs.

// The kernels are the bit-level reference: identical to the allocating
// Matrix methods on any host.
TEST(MatrixSimdTest, ForcedScalarKernelsBitIdenticalToReferences) {
  Rng rng(31);
  // Odd shapes so every block width's tail path runs too.
  Matrix a = RandomMatrix(5, 13, &rng, /*zeros=*/false);
  Matrix b = RandomMatrix(13, 17, &rng, /*zeros=*/false);
  Matrix bt = b.Transpose();
  Matrix at = a.Transpose();
  Matrix out;
  MatMulInto(a, b, &out);
  ExpectBitIdentical(out, a.MatMul(b));
  MatMulNTInto(a, bt, &out);
  ExpectBitIdentical(out, a.MatMul(b));
  MatMulTNInto(at, b, &out);
  ExpectBitIdentical(out, a.MatMul(b));

  Matrix x = RandomMatrix(4, 9, &rng, /*zeros=*/false);
  Matrix y = RandomMatrix(4, 9, &rng, /*zeros=*/false);
  Matrix acc = x;
  AddInto(y, &acc);
  ExpectBitIdentical(acc, x.Add(y));
  acc = x;
  AxpyInto(-1.25, y, &acc);
  for (size_t i = 0; i < acc.size(); ++i) {
    EXPECT_EQ(acc.data()[i], x.data()[i] + -1.25 * y.data()[i]);
  }
  ReluInto(x, &out);
  ASSERT_TRUE(out.same_shape(x));
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(out.data()[i], x.data()[i] > 0.0 ? x.data()[i] : 0.0);
  }
}

// Textbook triple loop, written independently of the kernels and of
// Matrix::MatMul.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (int k = 0; k < a.cols(); ++k) sum += a.at(i, k) * b.at(k, j);
      out.at(i, j) = sum;
    }
  }
  return out;
}

void ExpectWithinRelTol(const Matrix& a, const Matrix& b, double tol) {
  ASSERT_TRUE(a.same_shape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    const double want = b.data()[i];
    EXPECT_NEAR(a.data()[i], want, tol * std::max(1.0, std::fabs(want)))
        << "entry " << i;
  }
}

// The default kernels against a plain scalar reference: the matmuls may
// sum in another order than the triple loop, so they agree within 1e-12
// relative; the lane-wise ops are exact.
TEST(MatrixSimdTest, DefaultDispatchMatchesScalarWithinTolerance) {
  struct Shape {
    int m, k, n;
  };
  const std::vector<Shape> shapes = {{1, 1, 1}, {3, 9, 4}, {5, 7, 17},
                                     {8, 16, 32}, {2, 21, 19}};
  for (const Shape& s : shapes) {
    SCOPED_TRACE(testing::Message() << s.m << "x" << s.k << "x" << s.n);
    Rng rng(100 + s.m + s.k + s.n);
    Matrix a = RandomMatrix(s.m, s.k, &rng, /*zeros=*/false);
    Matrix b = RandomMatrix(s.k, s.n, &rng, /*zeros=*/false);
    Matrix bt = b.Transpose();
    Matrix at = a.Transpose();
    const Matrix ref = NaiveMatMul(a, b);

    Matrix out;
    MatMulInto(a, b, &out);
    ExpectWithinRelTol(out, ref, 1e-12);
    MatMulNTInto(a, bt, &out);
    ExpectWithinRelTol(out, ref, 1e-12);
    MatMulTNInto(at, b, &out);
    ExpectWithinRelTol(out, ref, 1e-12);
  }

  Rng rng(77);
  Matrix x = RandomMatrix(3, 23, &rng, /*zeros=*/false);  // odd tail
  Matrix y = RandomMatrix(3, 23, &rng, /*zeros=*/false);
  Matrix acc = x;
  AddInto(y, &acc);
  Matrix relu_out;
  ReluInto(x, &relu_out);
  ASSERT_TRUE(relu_out.same_shape(x));
  Matrix axpy = x;
  AxpyInto(0.37, y, &axpy);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(acc.data()[i], x.data()[i] + y.data()[i]) << "entry " << i;
    EXPECT_EQ(relu_out.data()[i], x.data()[i] > 0.0 ? x.data()[i] : 0.0)
        << "entry " << i;
    EXPECT_EQ(axpy.data()[i], x.data()[i] + 0.37 * y.data()[i])
        << "entry " << i;
  }
}

TEST(MatrixKernelTest, SetShapeRetainsCapacity) {
  Matrix m(8, 8, 1.0);
  const size_t cap = m.capacity();
  ASSERT_GE(cap, 64u);
  m.SetShape(4, 4);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.capacity(), cap);
  for (double v : m.data()) EXPECT_EQ(v, 0.0);  // zero-filled
  m.Clear();
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.capacity(), cap);
  m.SetShape(8, 8);  // back to the watermark: still no reallocation
  EXPECT_EQ(m.capacity(), cap);
}

}  // namespace
}  // namespace streamtune::ml
