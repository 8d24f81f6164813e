#pragma once
/// \file spmm.hpp
/// Local SpMM kernels, in the paper's two orientations (Section II):
///   SpMMA: A += S . B      (output has A's shape; S is rows x cols,
///                           B has cols rows)
///   SpMMB: B += S^T . A    (output has B's shape)
///
/// Both kernels are nnz-load-balanced across a ThreadPool (each thread
/// gets an equal share of nonzeros, not rows — see schedule.hpp) and
/// width-specialized for the paper's benchmark widths r in {32, 64, 128}
/// (see width_dispatch.hpp).

#include "dense/dense_matrix.hpp"
#include "sparse/csr.hpp"

namespace dsk {

class ThreadPool;

/// a_out += S . b. a_out has s.rows() rows; b has s.cols() rows.
/// Returns FLOPs (2 * nnz * r). nnz-balanced row-parallel when pool is
/// provided.
std::uint64_t spmm_a(const CsrMatrix& s, const DenseMatrix& b,
                     DenseMatrix& a_out, ThreadPool* pool = nullptr);

/// b_out += S^T . a. b_out has s.cols() rows; a has s.rows() rows.
/// Returns FLOPs (2 * nnz * r). When pool is provided the scatter is
/// parallelized with per-thread private accumulation buffers over the
/// output rows followed by a parallel strip reduction — no atomics. The
/// private buffers cost (threads - 1) * s.cols() * r scalars of scratch
/// per call; pass pool = nullptr for the serial scatter when memory is
/// tighter than time.
std::uint64_t spmm_b(const CsrMatrix& s, const DenseMatrix& a,
                     DenseMatrix& b_out, ThreadPool* pool = nullptr);

} // namespace dsk
