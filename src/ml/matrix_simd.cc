#include "ml/matrix_simd.h"

#include <cstdlib>

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace streamtune::ml::simd {

bool CompiledIn() { return true; }

namespace {

// Sums the four lanes of a ymm accumulator into one double.
inline double HorizontalSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d s = _mm_add_pd(lo, hi);
  s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
  return _mm_cvtsd_f64(s);
}

// Shared inner tile of the AVX2 matmul cores: accumulates one output row
// block out[c0, c0+width) over the multiplier sequence av(k) * brow(k).
// `AStride` abstracts the a-operand addressing: 1 for a contiguous row
// (MatMul), the output row count for a strided column walk (MatMulTN).
//
// Loads use the unaligned forms throughout: Matrix storage is 32-byte
// aligned, but interior rows (cols % 4 != 0) and the c0 offsets are not,
// and on AVX2 hardware vmovupd on an aligned address costs the same as
// vmovapd.
template <int kWidth>
inline void FmaRowTile(const double* a, size_t a_stride, const double* b,
                       int kk, int n, double* orow, int c0) {
  static_assert(kWidth % 4 == 0);
  constexpr int kAccums = kWidth / 4;
  __m256d acc[kAccums];
  for (int j = 0; j < kAccums; ++j) acc[j] = _mm256_setzero_pd();
  for (int k = 0; k < kk; ++k) {
    const double av = a[static_cast<size_t>(k) * a_stride];
    if (av == 0.0) continue;  // same skip as the scalar kernels
    const __m256d va = _mm256_set1_pd(av);
    const double* brow = b + static_cast<size_t>(k) * n + c0;
    for (int j = 0; j < kAccums; ++j) {
      acc[j] = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 4 * j), acc[j]);
    }
  }
  for (int j = 0; j < kAccums; ++j) _mm256_storeu_pd(orow + c0 + 4 * j, acc[j]);
}

// Scalar cleanup for the < 4 rightmost output columns of a row.
inline void ScalarTail(const double* a, size_t a_stride, const double* b,
                       int kk, int n, double* orow, int c0) {
  for (int c = c0; c < n; ++c) {
    double acc = 0.0;
    for (int k = 0; k < kk; ++k) {
      const double av = a[static_cast<size_t>(k) * a_stride];
      if (av == 0.0) continue;
      acc += av * b[static_cast<size_t>(k) * n + c];
    }
    orow[c] = acc;
  }
}

// Row-major accumulation shared by MatMul (a_stride = 1 over a's row r) and
// MatMulTN (a_stride = m over a's column r).
inline void AccumulateAvx2(const double* acol, size_t a_stride,
                           const double* b, double* orow, int kk, int n) {
  int c0 = 0;
  for (; c0 + 16 <= n; c0 += 16) {
    FmaRowTile<16>(acol, a_stride, b, kk, n, orow, c0);
  }
  for (; c0 + 4 <= n; c0 += 4) {
    FmaRowTile<4>(acol, a_stride, b, kk, n, orow, c0);
  }
  if (c0 < n) ScalarTail(acol, a_stride, b, kk, n, orow, c0);
}

// 4-row x kWidth register-blocked tile: four output rows share every b-row
// load and keep 4 * kWidth/4 independent FMA chains in flight — the
// single-row tile above is load-bound at a fraction of FMA throughput.
// Per output element the accumulation is still one k-ascending chain into
// a per-4-column accumulator, exactly like the single-row tile, so blocked
// and unblocked rows produce bit-identical results on finite inputs (the
// single-row tile's zero-multiplier skip is a bitwise no-op there).
template <int kWidth>
inline void FmaBlockTile4(const double* a0, const double* a1,
                          const double* a2, const double* a3,
                          size_t a_stride, const double* b, int kk, int n,
                          double* o0, double* o1, double* o2, double* o3,
                          int c0) {
  static_assert(kWidth == 4 || kWidth == 8);
  constexpr int kAccums = kWidth / 4;
  __m256d acc0[kAccums], acc1[kAccums], acc2[kAccums], acc3[kAccums];
  for (int j = 0; j < kAccums; ++j) {
    acc0[j] = _mm256_setzero_pd();
    acc1[j] = _mm256_setzero_pd();
    acc2[j] = _mm256_setzero_pd();
    acc3[j] = _mm256_setzero_pd();
  }
  for (int k = 0; k < kk; ++k) {
    const double* brow = b + static_cast<size_t>(k) * n + c0;
    __m256d vb[kAccums];
    for (int j = 0; j < kAccums; ++j) vb[j] = _mm256_loadu_pd(brow + 4 * j);
    const size_t ka = static_cast<size_t>(k) * a_stride;
    const __m256d va0 = _mm256_set1_pd(a0[ka]);
    const __m256d va1 = _mm256_set1_pd(a1[ka]);
    const __m256d va2 = _mm256_set1_pd(a2[ka]);
    const __m256d va3 = _mm256_set1_pd(a3[ka]);
    for (int j = 0; j < kAccums; ++j) {
      acc0[j] = _mm256_fmadd_pd(va0, vb[j], acc0[j]);
      acc1[j] = _mm256_fmadd_pd(va1, vb[j], acc1[j]);
      acc2[j] = _mm256_fmadd_pd(va2, vb[j], acc2[j]);
      acc3[j] = _mm256_fmadd_pd(va3, vb[j], acc3[j]);
    }
  }
  for (int j = 0; j < kAccums; ++j) {
    _mm256_storeu_pd(o0 + c0 + 4 * j, acc0[j]);
    _mm256_storeu_pd(o1 + c0 + 4 * j, acc1[j]);
    _mm256_storeu_pd(o2 + c0 + 4 * j, acc2[j]);
    _mm256_storeu_pd(o3 + c0 + 4 * j, acc3[j]);
  }
}

// Four output rows at once; a0..a3 are the four multiplier sequences
// (consecutive a rows for MatMul, consecutive a columns for MatMulTN).
inline void AccumulateBlock4Avx2(const double* a0, const double* a1,
                                 const double* a2, const double* a3,
                                 size_t a_stride, const double* b, double* o0,
                                 double* o1, double* o2, double* o3, int kk,
                                 int n) {
  int c0 = 0;
  for (; c0 + 8 <= n; c0 += 8) {
    FmaBlockTile4<8>(a0, a1, a2, a3, a_stride, b, kk, n, o0, o1, o2, o3, c0);
  }
  for (; c0 + 4 <= n; c0 += 4) {
    FmaBlockTile4<4>(a0, a1, a2, a3, a_stride, b, kk, n, o0, o1, o2, o3, c0);
  }
  if (c0 < n) {
    ScalarTail(a0, a_stride, b, kk, n, o0, c0);
    ScalarTail(a1, a_stride, b, kk, n, o1, c0);
    ScalarTail(a2, a_stride, b, kk, n, o2, c0);
    ScalarTail(a3, a_stride, b, kk, n, o3, c0);
  }
}

}  // namespace

void MatMulCoreAvx2(const double* a, const double* b, double* out, int m,
                    int kk, int n) {
  int r = 0;
  for (; r + 4 <= m; r += 4) {
    const double* ar = a + static_cast<size_t>(r) * kk;
    double* orow = out + static_cast<size_t>(r) * n;
    AccumulateBlock4Avx2(ar, ar + kk, ar + 2 * kk, ar + 3 * kk, 1, b, orow,
                         orow + n, orow + 2 * n, orow + 3 * n, kk, n);
  }
  for (; r < m; ++r) {
    AccumulateAvx2(a + static_cast<size_t>(r) * kk, 1, b,
                   out + static_cast<size_t>(r) * n, kk, n);
  }
}

void MatMulTNCoreAvx2(const double* a, const double* b, double* out, int m,
                      int kk, int n) {
  // a is kk x m; column r of a is the multiplier sequence, stride m.
  int r = 0;
  for (; r + 4 <= m; r += 4) {
    double* orow = out + static_cast<size_t>(r) * n;
    AccumulateBlock4Avx2(a + r, a + r + 1, a + r + 2, a + r + 3,
                         static_cast<size_t>(m), b, orow, orow + n,
                         orow + 2 * n, orow + 3 * n, kk, n);
  }
  for (; r < m; ++r) {
    AccumulateAvx2(a + r, static_cast<size_t>(m), b,
                   out + static_cast<size_t>(r) * n, kk, n);
  }
}

void MatMulNTCoreAvx2(const double* a, const double* b, double* out, int m,
                      int kk, int n) {
  // out(r, c) = dot(a row r, b row c), both contiguous over kk. Two
  // independent 4-lane accumulators hide the FMA latency of a single chain.
  for (int r = 0; r < m; ++r) {
    const double* arow = a + static_cast<size_t>(r) * kk;
    double* orow = out + static_cast<size_t>(r) * n;
    for (int c = 0; c < n; ++c) {
      const double* brow = b + static_cast<size_t>(c) * kk;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      int k = 0;
      for (; k + 8 <= kk; k += 8) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + k),
                               _mm256_loadu_pd(brow + k), acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + k + 4),
                               _mm256_loadu_pd(brow + k + 4), acc1);
      }
      if (k + 4 <= kk) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + k),
                               _mm256_loadu_pd(brow + k), acc0);
        k += 4;
      }
      double dot = HorizontalSum(_mm256_add_pd(acc0, acc1));
      for (; k < kk; ++k) dot += arow[k] * brow[k];
      orow[c] = dot;
    }
  }
}

void AddCoreAvx2(const double* src, double* acc, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i),
                               _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) acc[i] += src[i];
}

void AxpyCoreAvx2(double alpha, const double* x, double* acc, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        acc + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                                 _mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) acc[i] += alpha * x[i];
}

void ReluCoreAvx2(const double* a, double* out, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_max_pd(zero, _mm256_loadu_pd(a + i)));
  }
  for (; i < n; ++i) out[i] = a[i] > 0.0 ? a[i] : 0.0;
}

}  // namespace streamtune::ml::simd

#else  // !(__AVX2__ && __FMA__)

// Stub bodies for targets (or toolchains) without AVX2+FMA codegen. The
// dispatch in matrix.cc never installs these — CompiledIn() returning false
// pins the scalar table — so reaching one is a programming error.

namespace streamtune::ml::simd {

bool CompiledIn() { return false; }

void MatMulCoreAvx2([[maybe_unused]] const double* a,
                    [[maybe_unused]] const double* b,
                    [[maybe_unused]] double* out, [[maybe_unused]] int m,
                    [[maybe_unused]] int kk, [[maybe_unused]] int n) {
  std::abort();
}

void MatMulNTCoreAvx2([[maybe_unused]] const double* a,
                      [[maybe_unused]] const double* b,
                      [[maybe_unused]] double* out, [[maybe_unused]] int m,
                      [[maybe_unused]] int kk, [[maybe_unused]] int n) {
  std::abort();
}

void MatMulTNCoreAvx2([[maybe_unused]] const double* a,
                      [[maybe_unused]] const double* b,
                      [[maybe_unused]] double* out, [[maybe_unused]] int m,
                      [[maybe_unused]] int kk, [[maybe_unused]] int n) {
  std::abort();
}

void AddCoreAvx2([[maybe_unused]] const double* src,
                 [[maybe_unused]] double* acc, [[maybe_unused]] size_t n) {
  std::abort();
}

void AxpyCoreAvx2([[maybe_unused]] double alpha,
                  [[maybe_unused]] const double* x,
                  [[maybe_unused]] double* acc, [[maybe_unused]] size_t n) {
  std::abort();
}

void ReluCoreAvx2([[maybe_unused]] const double* a,
                  [[maybe_unused]] double* out, [[maybe_unused]] size_t n) {
  std::abort();
}

}  // namespace streamtune::ml::simd

#endif  // __AVX2__ && __FMA__
