//===- baselines/Baselines.h - Native comparator kernels ------*- C++ -*-===//
///
/// \file
/// Hand-written native C++ kernels standing in for the systems the
/// paper compares against (Section 5.2): TACO's column-major compressed
/// kernels (no symmetry exploitation), MKL's symmetric sparse SpMV
/// (`mkl_dcsrsymv`-class: canonical-triangle storage, one-pass update
/// of both triangles), and SPLATT's CSF MTTKRP with hoisted partial
/// products. These operate directly on the level storage (CSC/CSF:
/// Dense top level, Sparse below) and are compiled natively, so they
/// bound what a specializing backend would achieve; the paper's figures
/// are reproduced as ratios within one execution engine (the
/// bench/bench_*.cpp drivers).
///
/// All kernels accumulate into the caller's output.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_BASELINES_BASELINES_H
#define SYSTEC_BASELINES_BASELINES_H

#include "tensor/Tensor.h"

namespace systec {

/// TACO-style CSC SpMV: y[i] += A[i,j] * x[j].
void tacoSpmv(const Tensor &A, const Tensor &X, Tensor &Y);

/// MKL-style symmetric SpMV over the canonical (upper) triangle:
/// \p AUpper stores only entries with i <= j; both triangles of the
/// implicit symmetric matrix are applied in one pass.
void mklSymv(const Tensor &AUpper, const Tensor &X, Tensor &Y);

/// TACO-style min-plus relaxation: y[i] min= A[i,j] + d[j].
void tacoBellmanFord(const Tensor &A, const Tensor &D, Tensor &Y);

/// TACO-style triple product: returns sum_ij x[i]*A[i,j]*x[j].
double tacoSyprd(const Tensor &A, const Tensor &X);

/// TACO-style outer-product SSYRK: C[i,j] += A[i,k] * A[j,k] over the
/// full output (no symmetry exploitation). C is dense.
void tacoSsyrk(const Tensor &A, Tensor &C);

/// TACO-style TTM: C[i,j,l] += A[k,j,l] * B[k,i]; A is CSF, B and C
/// dense (C column-major [i,j,l]).
void tacoTtm(const Tensor &A, const Tensor &B, Tensor &C);

/// TACO-style 3-d MTTKRP: C[i,j] += A[i,k,l] * B[k,j] * B[l,j].
void tacoMttkrp3(const Tensor &A, const Tensor &B, Tensor &C);

/// SPLATT-style 3-d MTTKRP: CSF traversal hoisting the B[l,:] partial
/// product across the middle fiber (operand factoring).
void splattMttkrp3(const Tensor &A, const Tensor &B, Tensor &C);

/// Extracts the canonical (upper, i <= j) triangle of a symmetric
/// matrix, for the MKL-style baseline.
Tensor upperTriangle(const Tensor &A);

} // namespace systec

#endif // SYSTEC_BASELINES_BASELINES_H
