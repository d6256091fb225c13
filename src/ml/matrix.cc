#include "ml/matrix.h"

#include <algorithm>
#include <cmath>

namespace streamtune::ml {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (int r = 0; r < m.rows_; ++r) {
    assert(static_cast<int>(rows[r].size()) == m.cols_);
    for (int c = 0; c < m.cols_; ++c) m.at(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::GlorotUniform(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  double limit = std::sqrt(6.0 / (rows + cols));
  for (double& v : m.data_) v = rng->Uniform(-limit, limit);
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
  }
  return t;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int k = 0; k < cols_; ++k) {
      double a = at(r, k);
      if (a == 0.0) continue;
      const double* brow = &other.data_[static_cast<size_t>(k) * other.cols_];
      double* orow = &out.data_[static_cast<size_t>(r) * out.cols_];
      for (int c = 0; c < other.cols_; ++c) orow[c] += a * brow[c];
    }
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  assert(same_shape(other));
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Matrix Matrix::Sub(const Matrix& other) const {
  assert(same_shape(other));
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix Matrix::Hadamard(const Matrix& other) const {
  assert(same_shape(other));
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] *= other.data_[i];
  return out;
}

Matrix Matrix::Scale(double s) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= s;
  return out;
}

Matrix Matrix::AddRowBroadcast(const Matrix& row) const {
  assert(row.rows_ == 1 && row.cols_ == cols_);
  Matrix out = *this;
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out.at(r, c) += row.at(0, c);
  }
  return out;
}

Matrix Matrix::SumRows() const {
  Matrix out(1, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out.at(0, c) += at(r, c);
  }
  return out;
}

Matrix Matrix::ConcatCols(const Matrix& other) const {
  assert(rows_ == other.rows_);
  Matrix out(rows_, cols_ + other.cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out.at(r, c) = at(r, c);
    for (int c = 0; c < other.cols_; ++c) out.at(r, cols_ + c) = other.at(r, c);
  }
  return out;
}

Matrix Matrix::SliceCols(int begin, int end) const {
  assert(begin >= 0 && begin <= end && end <= cols_);
  Matrix out(rows_, end - begin);
  for (int r = 0; r < rows_; ++r) {
    for (int c = begin; c < end; ++c) out.at(r, c - begin) = at(r, c);
  }
  return out;
}

std::vector<double> Matrix::Row(int r) const {
  std::vector<double> out(cols_);
  for (int c = 0; c < cols_; ++c) out[c] = at(r, c);
  return out;
}

void Matrix::SetRow(int r, const std::vector<double>& values) {
  assert(static_cast<int>(values.size()) == cols_);
  for (int c = 0; c < cols_; ++c) at(r, c) = values[c];
}

double Matrix::SumAll() const {
  double s = 0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::SquaredNorm() const {
  double s = 0;
  for (double v : data_) s += v * v;
  return s;
}

double Matrix::MaxAbs() const {
  double s = 0;
  for (double v : data_) s = std::max(s, std::fabs(v));
  return s;
}

// ---- Kernel layer ----------------------------------------------------------
//
// Inner loops run on raw spans; shape validation stays on the (debug-only,
// or sanitizer-forced) checked accessors at the kernel boundary. The public
// wrappers validate shapes and pre-shape `out`, then run the raw-pointer
// loops: the three matmul cores below, or an inline loop.

namespace {

// Column-block width for the register-tiled accumulation loops below: 16
// doubles = 8 SSE registers of accumulators, leaving room for the broadcast
// multiplier and the b-row loads.
constexpr int kColBlock = 16;

// Per-thread scratch for the nonzero-k index lists built by the matmul
// kernels. Grows to the largest inner dimension seen and then stays put, so
// steady-state training epochs never touch the allocator through it.
thread_local std::vector<int> tls_nonzero_k;

// Core of MatMulInto: out(r, c) = sum_k a(r, k) * b(k, c), all operands
// row-major with a: m x kk, b: kk x n, out: m x n (pre-shaped, every element
// written).
//
// Each output element accumulates over ascending k with an a(r, k) == 0.0
// skip, starting from +0.0 — exactly the reference Matrix::MatMul order, so
// results are bit-identical. The tiling only hoists a kColBlock-wide slice
// of the output row into registers for the duration of the k loop (one
// store per element instead of a load + store per k), which per-element
// accumulation order does not observe. Expects `out` pre-shaped with
// SetShapeUninit: every element is written exactly once below.
//
// The reference's a(r, k) == 0.0 test is hoisted out of the hot loops: the
// surviving k indices are compacted once per row — branchlessly, so a
// ReLU-sparse `a` (~half zeros in this model) costs no mispredicts — and the
// column blocks then iterate the compact list branch-free. Same terms, same
// ascending-k order per element, so still bit-identical.
void MatMulCore(const double* __restrict ad, const double* __restrict bd,
                double* __restrict od, int m, int kk, int n) {
  std::vector<int>& nz = tls_nonzero_k;
  if (static_cast<int>(nz.size()) < kk) nz.resize(kk);
  int* __restrict nzp = nz.data();
  for (int r = 0; r < m; ++r) {
    const double* arow = ad + static_cast<size_t>(r) * kk;
    int cnt = 0;
    for (int k = 0; k < kk; ++k) {
      nzp[cnt] = k;
      cnt += arow[k] != 0.0;
    }
    const bool dense = cnt == kk;  // fully dense row: skip the indirection
    double* orow = od + static_cast<size_t>(r) * n;
    int c0 = 0;
    for (; c0 + kColBlock <= n; c0 += kColBlock) {
      double acc[kColBlock] = {};
      if (dense) {
        for (int k = 0; k < kk; ++k) {
          const double av = arow[k];
          const double* brow = bd + static_cast<size_t>(k) * n + c0;
          for (int j = 0; j < kColBlock; ++j) acc[j] += av * brow[j];
        }
      } else {
        for (int t = 0; t < cnt; ++t) {
          const int k = nzp[t];
          const double av = arow[k];
          const double* brow = bd + static_cast<size_t>(k) * n + c0;
          for (int j = 0; j < kColBlock; ++j) acc[j] += av * brow[j];
        }
      }
      for (int j = 0; j < kColBlock; ++j) orow[c0 + j] = acc[j];
    }
    if (c0 < n) {
      for (int c = c0; c < n; ++c) orow[c] = 0.0;
      for (int t = 0; t < cnt; ++t) {
        const int k = nzp[t];
        const double av = arow[k];
        const double* brow = bd + static_cast<size_t>(k) * n;
        for (int c = c0; c < n; ++c) orow[c] += av * brow[c];
      }
    }
  }
}

// Core of MatMulNTInto: out(r, c) = sum_k a(r, k) * b(c, k) with a: m x kk,
// b: n x kk, out: m x n pre-shaped. Every output element is a dot product of
// two contiguous rows, so no transpose is materialized at all. Per element
// the terms are added over ascending k starting from +0.0 with the same
// a(r, k) == 0 skips — the identical addition chain the reference
// composition a.MatMul(b.Transpose()) produces; only the interleaving
// across elements differs, which per-element results cannot observe. A
// block of kDotBlock output columns shares one pass over a's row (and its
// compacted nonzero-k list); the block's independent accumulator chains
// hide the FP add latency a single serial chain would expose.
void MatMulNTCore(const double* __restrict ad, const double* __restrict bd,
                  double* __restrict od, int m, int kk, int n) {
  constexpr int kDotBlock = 8;
  std::vector<int>& nz = tls_nonzero_k;
  if (static_cast<int>(nz.size()) < kk) nz.resize(kk);
  int* __restrict nzp = nz.data();
  for (int r = 0; r < m; ++r) {
    const double* arow = ad + static_cast<size_t>(r) * kk;
    int cnt = 0;
    for (int k = 0; k < kk; ++k) {
      nzp[cnt] = k;
      cnt += arow[k] != 0.0;
    }
    const bool dense = cnt == kk;  // fully dense row: skip the indirection
    double* orow = od + static_cast<size_t>(r) * n;
    int c0 = 0;
    for (; c0 + kDotBlock <= n; c0 += kDotBlock) {
      const double* bblock = bd + static_cast<size_t>(c0) * kk;
      double acc[kDotBlock] = {};
      if (dense) {
        for (int k = 0; k < kk; ++k) {
          const double av = arow[k];
          const double* bcol = bblock + k;
          for (int j = 0; j < kDotBlock; ++j) {
            acc[j] += av * bcol[static_cast<size_t>(j) * kk];
          }
        }
      } else {
        for (int t = 0; t < cnt; ++t) {
          const int k = nzp[t];
          const double av = arow[k];
          const double* bcol = bblock + k;
          for (int j = 0; j < kDotBlock; ++j) {
            acc[j] += av * bcol[static_cast<size_t>(j) * kk];
          }
        }
      }
      for (int j = 0; j < kDotBlock; ++j) orow[c0 + j] = acc[j];
    }
    for (int c = c0; c < n; ++c) {
      const double* brow = bd + static_cast<size_t>(c) * kk;
      double acc = 0.0;
      for (int t = 0; t < cnt; ++t) {
        const int k = nzp[t];
        acc += arow[k] * brow[k];
      }
      orow[c] = acc;
    }
  }
}

// Core of MatMulTNInto: out(r, c) = sum_k a(k, r) * b(k, c) with a: kk x m,
// b: kk x n, out: m x n pre-shaped. Every element accumulates over
// ascending k with the same a(k, r) == 0 skip as the reference composition
// a.Transpose().MatMul(b), so each element sees the identical addition
// sequence (only the interleaving across elements differs, which cannot
// change per-element results). a's column r is read with stride m — one
// scalar load per k — while the register-tiled output block amortizes the
// out row traffic exactly as in MatMulCore, and the zero test is
// hoisted into a branchless per-column index compaction the same way.
void MatMulTNCore(const double* __restrict ad, const double* __restrict bd,
                  double* __restrict od, int m, int kk, int n) {
  std::vector<int>& nz = tls_nonzero_k;
  if (static_cast<int>(nz.size()) < kk) nz.resize(kk);
  int* __restrict nzp = nz.data();
  for (int r = 0; r < m; ++r) {
    int cnt = 0;
    for (int k = 0; k < kk; ++k) {
      nzp[cnt] = k;
      cnt += ad[static_cast<size_t>(k) * m + r] != 0.0;
    }
    const bool dense = cnt == kk;  // fully dense column: skip the indirection
    double* orow = od + static_cast<size_t>(r) * n;
    int c0 = 0;
    for (; c0 + kColBlock <= n; c0 += kColBlock) {
      double acc[kColBlock] = {};
      if (dense) {
        for (int k = 0; k < kk; ++k) {
          const double av = ad[static_cast<size_t>(k) * m + r];
          const double* brow = bd + static_cast<size_t>(k) * n + c0;
          for (int j = 0; j < kColBlock; ++j) acc[j] += av * brow[j];
        }
      } else {
        for (int t = 0; t < cnt; ++t) {
          const int k = nzp[t];
          const double av = ad[static_cast<size_t>(k) * m + r];
          const double* brow = bd + static_cast<size_t>(k) * n + c0;
          for (int j = 0; j < kColBlock; ++j) acc[j] += av * brow[j];
        }
      }
      for (int j = 0; j < kColBlock; ++j) orow[c0 + j] = acc[j];
    }
    if (c0 < n) {
      for (int c = c0; c < n; ++c) orow[c] = 0.0;
      for (int t = 0; t < cnt; ++t) {
        const int k = nzp[t];
        const double av = ad[static_cast<size_t>(k) * m + r];
        const double* brow = bd + static_cast<size_t>(k) * n;
        for (int c = c0; c < n; ++c) orow[c] += av * brow[c];
      }
    }
  }
}

}  // namespace

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.cols() == b.rows());
  assert(out != &a && out != &b);
  out->SetShapeUninit(a.rows(), b.cols());
  MatMulCore(a.data().data(), b.data().data(), out->data().data(), a.rows(),
             a.cols(), b.cols());
}

void MatMulNTInto(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.cols() == b.cols());
  assert(out != &a && out != &b);
  out->SetShapeUninit(a.rows(), b.rows());
  MatMulNTCore(a.data().data(), b.data().data(), out->data().data(),
               a.rows(), a.cols(), b.rows());
}

void MatMulTNInto(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.rows() == b.rows());
  assert(out != &a && out != &b);
  out->SetShapeUninit(a.cols(), b.cols());
  MatMulTNCore(a.data().data(), b.data().data(), out->data().data(),
               a.cols(), a.rows(), b.cols());
}

void AddInto(const Matrix& src, Matrix* acc) {
  assert(acc->same_shape(src));
  const double* __restrict sv = src.data().data();
  double* __restrict av = acc->data().data();
  const size_t n = src.size();
  for (size_t i = 0; i < n; ++i) av[i] += sv[i];
}

void AxpyInto(double alpha, const Matrix& x, Matrix* acc) {
  assert(acc->same_shape(x));
  const double* __restrict xv = x.data().data();
  double* __restrict av = acc->data().data();
  const size_t n = x.size();
  for (size_t i = 0; i < n; ++i) av[i] += alpha * xv[i];
}

namespace {

// Shapes `out` like `a` and returns the three raw spans of an elementwise
// kernel. `out` may alias `a` only when the caller guarantees pure
// elementwise writes (none of the callers below alias).
struct Spans {
  const double* __restrict a;
  const double* __restrict b;
  double* __restrict out;
  size_t n;
};

Spans BinarySpans(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.same_shape(b));
  assert(out != &a && out != &b);
  out->SetShapeUninit(a.rows(), a.cols());
  return {a.data().data(), b.data().data(), out->data().data(), a.size()};
}

}  // namespace

void AddMatInto(const Matrix& a, const Matrix& b, Matrix* out) {
  Spans s = BinarySpans(a, b, out);
  for (size_t i = 0; i < s.n; ++i) s.out[i] = s.a[i] + s.b[i];
}

void SubInto(const Matrix& a, const Matrix& b, Matrix* out) {
  Spans s = BinarySpans(a, b, out);
  for (size_t i = 0; i < s.n; ++i) s.out[i] = s.a[i] - s.b[i];
}

void HadamardInto(const Matrix& a, const Matrix& b, Matrix* out) {
  Spans s = BinarySpans(a, b, out);
  for (size_t i = 0; i < s.n; ++i) s.out[i] = s.a[i] * s.b[i];
}

void ScaleInto(const Matrix& a, double s, Matrix* out) {
  assert(out != &a);
  out->SetShapeUninit(a.rows(), a.cols());
  const double* __restrict av = a.data().data();
  double* __restrict ov = out->data().data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) ov[i] = av[i] * s;
}

void ReluInto(const Matrix& a, Matrix* out) {
  assert(out != &a);
  out->SetShapeUninit(a.rows(), a.cols());
  const double* __restrict av = a.data().data();
  double* __restrict ov = out->data().data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) ov[i] = std::max(0.0, av[i]);
}

void AddRowBroadcastInto(const Matrix& a, const Matrix& row, Matrix* out) {
  assert(row.rows() == 1 && row.cols() == a.cols());
  assert(out != &a && out != &row);
  out->SetShapeUninit(a.rows(), a.cols());
  const double* __restrict rv = row.data().data();
  for (int r = 0; r < a.rows(); ++r) {
    const double* __restrict arow = a.row_span(r);
    double* __restrict orow = out->row_span(r);
    for (int c = 0; c < a.cols(); ++c) orow[c] = arow[c] + rv[c];
  }
}

void SumRowsInto(const Matrix& a, Matrix* out) {
  assert(out != &a);
  out->SetShape(1, a.cols());
  double* __restrict ov = out->data().data();
  for (int r = 0; r < a.rows(); ++r) {
    const double* __restrict arow = a.row_span(r);
    for (int c = 0; c < a.cols(); ++c) ov[c] += arow[c];
  }
}

void SliceColsInto(const Matrix& a, int begin, int end, Matrix* out) {
  assert(begin >= 0 && begin <= end && end <= a.cols());
  assert(out != &a);
  out->SetShapeUninit(a.rows(), end - begin);
  for (int r = 0; r < a.rows(); ++r) {
    const double* arow = a.row_span(r);
    double* orow = out->row_span(r);
    for (int c = begin; c < end; ++c) orow[c - begin] = arow[c];
  }
}

}  // namespace streamtune::ml
