// Dense row-major matrix of doubles — the numeric workhorse for the ML stack.
//
// Deliberately minimal: the models in this project (GNN encoder, MLP heads,
// SVM, GP) operate on graphs with <= ~20 nodes and hidden widths <= 64, so a
// straightforward O(n^3) matmul is more than fast enough and easy to verify.
//
// Two layers:
//  - the Matrix value type with allocating, expression-style methods
//    (`a.MatMul(b)`, `a.Add(b)`), kept for cold paths and tests;
//  - a kernel layer of output-buffer-reusing free functions (`MatMulInto`,
//    `MatMulNTInto`, `AddInto`, ...) used by the tape autograd engine
//    (ml/tape.h). Kernels never allocate when the output buffer already has
//    capacity, never materialize transposes (the NT/TN variants walk the
//    untransposed operand), and are bit-compatible with the composed Matrix
//    methods they replace: same term order, same zero-skip, same roundings.
//
// One numeric path: the kernels are plain C++ for the target's baseline
// instruction set, so a build computes the same bits on every host it runs
// on (they still depend on the compiler and libm). Decisions follow these
// bits, and tests/control_plane_test.cc pins them.
//
// Bounds checks: hot kernel loops run on raw spans; `Matrix::at` keeps its
// bounds assertion in Debug builds and — via STREAMTUNE_BOUNDS_CHECK, which
// the sanitizer CMake presets define — in otherwise-optimized sanitizer
// builds, so out-of-range indexing cannot hide behind NDEBUG there.

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <vector>

#include "common/rng.h"

namespace streamtune::ml {

#if !defined(NDEBUG) || defined(STREAMTUNE_BOUNDS_CHECK)
inline constexpr bool kBoundsChecked = true;
#else
inline constexpr bool kBoundsChecked = false;
#endif

/// Dense rows x cols matrix of doubles, row-major.
class Matrix {
 public:
  using Buffer = std::vector<double>;

  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, fill) {
    assert(rows >= 0 && cols >= 0);
  }

  /// Builds a matrix from nested initializer data (row per inner vector).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);
  static Matrix Zeros(int rows, int cols) { return Matrix(rows, cols, 0.0); }
  static Matrix Identity(int n);
  /// Glorot-uniform initialization for layer weights.
  static Matrix GlorotUniform(int rows, int cols, Rng* rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  double& at(int r, int c) {
    if constexpr (kBoundsChecked) {
      if (r < 0 || r >= rows_ || c < 0 || c >= cols_) std::abort();
    }
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double at(int r, int c) const {
    if constexpr (kBoundsChecked) {
      if (r < 0 || r >= rows_ || c < 0 || c >= cols_) std::abort();
    }
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  const Buffer& data() const { return data_; }
  Buffer& data() { return data_; }

  /// Raw row-major span of row `r` (bounds-checked like `at`).
  const double* row_span(int r) const {
    if constexpr (kBoundsChecked) {
      if (r < 0 || r >= rows_) std::abort();
    }
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  double* row_span(int r) {
    if constexpr (kBoundsChecked) {
      if (r < 0 || r >= rows_) std::abort();
    }
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  /// Reshapes to rows x cols and zero-fills, retaining heap capacity — the
  /// buffer-reuse primitive behind the tape's allocation-free steady state.
  void SetShape(int rows, int cols) {
    assert(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<size_t>(rows) * cols, 0.0);
  }
  /// Reshapes without the zero-fill pass: element values are unspecified
  /// afterwards. Only for kernels that overwrite every element of the
  /// output exactly once before it is read.
  void SetShapeUninit(int rows, int cols) {
    assert(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<size_t>(rows) * cols);
  }
  /// Empties the matrix (0 x 0) while retaining heap capacity.
  void Clear() {
    rows_ = 0;
    cols_ = 0;
    data_.clear();
  }
  /// Heap capacity in doubles (allocation telemetry for reuse tests).
  size_t capacity() const { return data_.capacity(); }

  Matrix Transpose() const;
  /// Matrix product; this->cols() must equal other.rows().
  Matrix MatMul(const Matrix& other) const;
  Matrix Add(const Matrix& other) const;
  Matrix Sub(const Matrix& other) const;
  Matrix Hadamard(const Matrix& other) const;
  Matrix Scale(double s) const;
  /// Adds a 1 x cols row vector to every row.
  Matrix AddRowBroadcast(const Matrix& row) const;
  /// Sums all rows into a 1 x cols vector.
  Matrix SumRows() const;
  /// Concatenates columns: [this | other]; row counts must match.
  Matrix ConcatCols(const Matrix& other) const;
  /// Returns columns [begin, end).
  Matrix SliceCols(int begin, int end) const;
  /// Extracts one row as a flat vector.
  std::vector<double> Row(int r) const;
  void SetRow(int r, const std::vector<double>& values);

  double SumAll() const;
  /// Squared Frobenius norm.
  double SquaredNorm() const;
  /// Largest absolute entry.
  double MaxAbs() const;

 private:
  int rows_, cols_;
  Buffer data_;
};

// ---- Kernel layer ----------------------------------------------------------
//
// Output-buffer-reusing kernels. Every kernel shapes `out` itself (retaining
// its capacity) and requires `out` to alias none of its inputs unless noted.
// Each is bit-identical to the allocating composition it replaces
// (documented per kernel): identical term values, identical per-element
// accumulation order, identical zero-skip tests — so swapping a composition
// for its kernel never changes a single output bit.

/// out = a * b. Bit-identical to a.MatMul(b).
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = a * b^T without materializing the transpose. Bit-identical to
/// a.MatMul(b.Transpose()): per output element the same products are summed
/// in the same k-order, skipping the same a(r,k) == 0 terms.
void MatMulNTInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = a^T * b without materializing the transpose. Bit-identical to
/// a.Transpose().MatMul(b).
void MatMulTNInto(const Matrix& a, const Matrix& b, Matrix* out);
/// acc += src (in place; shapes must match). Bit-identical to
/// acc = acc.Add(src).
void AddInto(const Matrix& src, Matrix* acc);
/// acc += alpha * x (in place; shapes must match).
void AxpyInto(double alpha, const Matrix& x, Matrix* acc);
/// out = a + b elementwise. Bit-identical to a.Add(b).
void AddMatInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = a - b elementwise. Bit-identical to a.Sub(b).
void SubInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = a ⊙ b elementwise. Bit-identical to a.Hadamard(b).
void HadamardInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = s * a. Bit-identical to a.Scale(s).
void ScaleInto(const Matrix& a, double s, Matrix* out);
/// out = max(a, 0) elementwise.
void ReluInto(const Matrix& a, Matrix* out);
/// out = a with the 1 x cols `row` added to every row. Bit-identical to
/// a.AddRowBroadcast(row).
void AddRowBroadcastInto(const Matrix& a, const Matrix& row, Matrix* out);
/// out = 1 x cols column sums. Bit-identical to a.SumRows().
void SumRowsInto(const Matrix& a, Matrix* out);
/// out = columns [begin, end) of a. Bit-identical to a.SliceCols(begin, end).
void SliceColsInto(const Matrix& a, int begin, int end, Matrix* out);

}  // namespace streamtune::ml
