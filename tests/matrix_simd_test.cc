// The SIMD kernel layer.
//
// Contract under test (see matrix.h):
//   - the scalar dispatch is the bit-level reference: with
//     STREAMTUNE_FORCE_SCALAR the dispatched kernels are bit-identical to
//     the allocating Matrix methods;
//   - the AVX2 dispatch is tolerance-equal (<= 1e-12 relative) to scalar
//     for the FMA matmuls and bit-identical for the lane-wise ops.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/cpu_features.h"
#include "ml/matrix.h"
#include "ml/matrix_simd.h"

namespace streamtune::ml {
namespace {

Matrix RandomMatrix(int r, int c, Rng* rng) {
  Matrix m(r, c);
  for (double& v : m.data()) v = 2 * rng->Uniform() - 1;
  return m;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "entry " << i;
  }
}

void ExpectWithinRelTol(const Matrix& a, const Matrix& b, double tol) {
  ASSERT_TRUE(a.same_shape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    const double want = b.data()[i];
    EXPECT_NEAR(a.data()[i], want, tol * std::max(1.0, std::fabs(want)))
        << "entry " << i;
  }
}

// Pins STREAMTUNE_FORCE_SCALAR=1 and re-resolves the kernel dispatch for
// the guard's lifetime; restores both on destruction.
class ScopedForceScalar {
 public:
  ScopedForceScalar() {
    const char* prev = std::getenv("STREAMTUNE_FORCE_SCALAR");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("STREAMTUNE_FORCE_SCALAR", "1", 1);
    ReinitKernelDispatchForTest();
  }
  ~ScopedForceScalar() {
    if (had_prev_) {
      setenv("STREAMTUNE_FORCE_SCALAR", prev_.c_str(), 1);
    } else {
      unsetenv("STREAMTUNE_FORCE_SCALAR");
    }
    ReinitKernelDispatchForTest();
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(MatrixSimdTest, DispatchMatchesHostCapability) {
  const CpuFeatures f = HostCpuFeatures();
  const bool want_avx2 =
      simd::CompiledIn() && f.avx2 && f.fma && !ForceScalarRequested();
  EXPECT_STREQ(ActiveKernelDispatch(), want_avx2 ? "avx2-fma" : "scalar");
}

TEST(MatrixSimdTest, ForceScalarOverridePinsScalarDispatch) {
  {
    ScopedForceScalar guard;
    EXPECT_TRUE(ForceScalarRequested());
    EXPECT_STREQ(ActiveKernelDispatch(), "scalar");
  }
  // Restored: back to whatever the host capability dictates.
  const CpuFeatures f = HostCpuFeatures();
  const bool want_avx2 =
      simd::CompiledIn() && f.avx2 && f.fma && !ForceScalarRequested();
  EXPECT_STREQ(ActiveKernelDispatch(), want_avx2 ? "avx2-fma" : "scalar");
}

// Under the forced-scalar dispatch the kernels are the bit-level reference
// implementation: identical to the allocating Matrix methods on any host.
TEST(MatrixSimdTest, ForcedScalarKernelsBitIdenticalToReferences) {
  ScopedForceScalar guard;
  Rng rng(31);
  // Odd shapes so every tile width's tail path runs too.
  Matrix a = RandomMatrix(5, 13, &rng);
  Matrix b = RandomMatrix(13, 17, &rng);
  Matrix bt = b.Transpose();
  Matrix at = a.Transpose();
  Matrix out;
  MatMulInto(a, b, &out);
  ExpectBitIdentical(out, a.MatMul(b));
  MatMulNTInto(a, bt, &out);
  ExpectBitIdentical(out, a.MatMul(b));
  MatMulTNInto(at, b, &out);
  ExpectBitIdentical(out, a.MatMul(b));

  Matrix x = RandomMatrix(4, 9, &rng);
  Matrix y = RandomMatrix(4, 9, &rng);
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

// The default (possibly SIMD) dispatch against the scalar reference: FMA
// reassociates the matmul reductions, so equality is within 1e-12 relative;
// the lane-wise add is bit-identical even under AVX2.
TEST(MatrixSimdTest, DefaultDispatchMatchesScalarWithinTolerance) {
  struct Shape {
    int m, k, n;
  };
  // Cover the 16-wide, 4-wide, and scalar-tail column paths and the
  // 8/4/1-step dot-product paths.
  const std::vector<Shape> shapes = {{1, 1, 1}, {3, 9, 4}, {5, 7, 17},
                                     {8, 16, 32}, {2, 21, 19}};
  for (const Shape& s : shapes) {
    Rng rng(100 + s.m + s.k + s.n);
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    Matrix bt = b.Transpose();
    Matrix at = a.Transpose();

    Matrix mm_ref, nt_ref, tn_ref;
    {
      ScopedForceScalar guard;
      MatMulInto(a, b, &mm_ref);
      MatMulNTInto(a, bt, &nt_ref);
      MatMulTNInto(at, b, &tn_ref);
    }
    Matrix out;
    MatMulInto(a, b, &out);
    ExpectWithinRelTol(out, mm_ref, 1e-12);
    MatMulNTInto(a, bt, &out);
    ExpectWithinRelTol(out, nt_ref, 1e-12);
    MatMulTNInto(at, b, &out);
    ExpectWithinRelTol(out, tn_ref, 1e-12);
  }

  Rng rng(77);
  Matrix x = RandomMatrix(3, 23, &rng);  // 5 full lanes + 3-wide tail
  Matrix y = RandomMatrix(3, 23, &rng);
  Matrix add_ref = x, relu_ref;
  {
    ScopedForceScalar guard;
    AddInto(y, &add_ref);
    ReluInto(x, &relu_ref);
  }
  Matrix acc = x;
  AddInto(y, &acc);
  ExpectBitIdentical(acc, add_ref);  // lane-wise: exact under any dispatch
  Matrix relu_out;
  ReluInto(x, &relu_out);
  ExpectBitIdentical(relu_out, relu_ref);
  acc = x;
  Matrix axpy_ref = x;
  {
    ScopedForceScalar guard;
    AxpyInto(0.37, y, &axpy_ref);
  }
  AxpyInto(0.37, y, &acc);
  ExpectWithinRelTol(acc, axpy_ref, 1e-12);
}

TEST(MatrixSimdTest, AlignedStorageIs32ByteAligned) {
  for (int n : {1, 3, 17, 64}) {
    Matrix m(n, n, 1.0);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data().data()) % 32, 0u)
        << "rows " << n;
  }
}

}  // namespace
}  // namespace streamtune::ml
