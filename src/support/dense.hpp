// Shared dense-kernel layer.
//
// The tuner's CPU time concentrates in a handful of dense linear-algebra
// shapes: the pairwise-distance/Gram matrices behind TED and BTED
// (Algorithms 1-2), the per-resample surrogate fits of BS/BAO (Algorithms
// 3-4), and the MLP inner loops of the auxiliary surrogate. Those
// hot loops share this layer instead of each carrying its own scalar
// triple-loop: a flat row-major matrix, cache-blocked Gram / pairwise
// squared-distance builders, unrolled dot/axpy, a one-pass Welford column
// standardizer, and the rank-one-deflation step of TED.
//
// Every blocked kernel has a `*_naive` reference twin used by the unit
// tests (agreement within 1e-12) and by `bench/micro_kernels` as the
// baseline side of the BENCH_kernels.json speedup tables. See docs/PERF.md
// for the measured numbers and the benchmark methodology.
#pragma once

#include <cstddef>
#include <vector>

#include "support/common.hpp"

namespace aal::dense {

/// Minimal owning row-major matrix. No arithmetic of its own — it exists so
/// the kernels below (and their callers) agree on one contiguous layout
/// instead of vector<vector<double>>'s pointer-chased rows.
struct Matrix {
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows(rows), cols(cols), data(rows * cols, 0.0) {}

  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> data;

  double* row(std::size_t i) { return data.data() + i * cols; }
  const double* row(std::size_t i) const { return data.data() + i * cols; }
  double& at(std::size_t i, std::size_t j) { return data[i * cols + j]; }
  double at(std::size_t i, std::size_t j) const { return data[i * cols + j]; }
  bool empty() const { return rows == 0; }
};

/// Copies a vector-of-rows into a Matrix; throws InvalidArgument on ragged
/// input. Zero rows give an empty matrix.
Matrix from_rows(const std::vector<std::vector<double>>& rows);

/// Dot product with four independent accumulators (so the compiler can keep
/// four vector lanes busy without reassociating a single serial sum). The
/// summation order differs from a naive left-to-right loop; callers that
/// need bit-stable streaming sums use sq_dist/axpy instead.
double dot(const double* a, const double* b, std::size_t n);

/// y += alpha * x, sequential order (bitwise equal to the scalar loop).
void axpy(double alpha, const double* x, double* y, std::size_t n);

/// Squared Euclidean distance, accumulated in index order — bitwise equal
/// to the classic scalar loop (the pairwise_sq_dist_naive reference).
double sq_dist(const double* a, const double* b, std::size_t n);

/// Gram matrix out[i*n+j] = <x_i, x_j> for the n x d row-major `x`.
/// Cache-blocked over row tiles; only the upper triangle is computed and
/// mirrored. `out` is resized to n*n.
void gram(const Matrix& x, std::vector<double>& out);

/// Reference scalar Gram build (test oracle / bench baseline).
void gram_naive(const Matrix& x, std::vector<double>& out);

/// Pairwise squared Euclidean distances via the Gram identity
/// ||xi-xj||^2 = ||xi||^2 + ||xj||^2 - 2<xi,xj>, blocked like gram() and
/// clamped at zero (the identity can go ~1 ulp negative for near-duplicate
/// rows). Symmetric with a zero diagonal; `out` is resized to n*n.
void pairwise_sq_dist(const Matrix& x, std::vector<double>& out);

/// Reference scalar pairwise build: per-pair (a[c]-b[c])^2 accumulation.
void pairwise_sq_dist_naive(const Matrix& x, std::vector<double>& out);

struct ColumnMoments {
  std::vector<double> mean;
  std::vector<double> stddev;  // population, before the min_stddev floor
};

/// Z-scores the columns of `x` in place using a single Welford pass over
/// the rows (one streaming mean/M2 accumulator per column, row-major
/// traversal), replacing the old two-full-passes-per-column recomputation.
/// Columns whose standard deviation falls below `min_stddev` are constant
/// for all practical purposes and are zeroed. Returns the column moments.
ColumnMoments standardize_columns(Matrix& x, double min_stddev = 1e-12);

/// Sum of squares of each row of the n x n row-major `k` into norm_sq
/// (index-order accumulation).
void row_sq_norms(const double* k, std::size_t n, double* norm_sq);

/// TED's rank-one deflation, K <- K - col*col^T / denom, fused with the
/// row-norm refresh the selection loop needs next: norm_sq[i] is updated to
/// ||K'_i||^2 in the same pass (index-order accumulation, bitwise equal to
/// recomputing the norms afterwards). Rows with col[i] == 0 are untouched.
/// `col` must not alias rows of k being written (callers copy it first).
void deflate_rank_one(double* k, std::size_t n, const double* col,
                      double denom, double* norm_sq);

}  // namespace aal::dense
