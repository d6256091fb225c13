// AVX2+FMA raw-pointer kernel cores for the dispatch table in ml/matrix.cc.
//
// This header only declares the cores; matrix_simd.cc is the single
// translation unit built with -mavx2 -mfma (set per-source in
// src/ml/CMakeLists.txt), so no AVX2 instruction can leak into code that
// runs before the runtime dispatch check. On targets where those flags are
// unavailable the same TU compiles stub bodies and CompiledIn() reports
// false, which pins the dispatch to the scalar table.
//
// Numerics: the FMA contractions (and the wider accumulator tiling in the
// NT core) reassociate the per-element addition chains relative to the
// scalar reference kernels, so the SIMD path is tolerance-equal (<= 1e-12
// relative in tests/matrix_simd_test.cc), not bit-equal. Bit-level
// reproducibility is the scalar path's contract (STREAMTUNE_FORCE_SCALAR).
//
// Core signatures match the scalar cores in matrix.cc exactly; see the
// KernelTable comment there for the shape conventions.

#pragma once

#include <cstddef>

namespace streamtune::ml::simd {

/// True when this TU was built with AVX2+FMA code generation enabled.
bool CompiledIn();

/// out(m x n, pre-shaped) = a(m x kk) * b(kk x n); out row-major stride n.
void MatMulCoreAvx2(const double* a, const double* b, double* out, int m,
                    int kk, int n);
/// out(m x n, pre-shaped) = a(m x kk) * b(n x kk)^T.
void MatMulNTCoreAvx2(const double* a, const double* b, double* out, int m,
                      int kk, int n);
/// out(m x n, pre-shaped) = a(kk x m)^T * b(kk x n).
void MatMulTNCoreAvx2(const double* a, const double* b, double* out, int m,
                      int kk, int n);
/// acc[i] += src[i] over n doubles.
void AddCoreAvx2(const double* src, double* acc, size_t n);
/// acc[i] += alpha * x[i] over n doubles.
void AxpyCoreAvx2(double alpha, const double* x, double* acc, size_t n);
/// out[i] = max(a[i], 0.0) over n doubles.
void ReluCoreAvx2(const double* a, double* out, size_t n);

}  // namespace streamtune::ml::simd
