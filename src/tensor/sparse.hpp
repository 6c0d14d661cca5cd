#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

// Compile-to-sparse execution engine: turns a pruned layer's measured zero
// pattern into a compact CSR layout plus a sparse×dense microkernel, so
// prune ratio becomes wall-clock speedup on the eval path.
//
// Contract (DESIGN.md §6 "Sparse execution"): the sparse path is bit-identical
// to the dense reference. Per output element the stored nonzeros are walked
// in ascending k order with single-rounded fused multiply-adds — the exact
// chain the dense gemm executes after its own zero skip, because a term with
// a 0.0f operand is a bit-level no-op for finite operands (c + ±0 == c when
// the accumulator starts from +0 and can never become -0). The memcmp tests
// in tests/test_sparse.cpp enforce this across RP_SPARSE × RP_SIMD ×
// RP_THREADS.
//
// Selection: RP_SPARSE=off forces the dense path, =csr forces CSR for every
// compiled layer, and unset/auto picks per layer from the measured density
// (see analyze()). This mirrors the RP_SIMD escape hatch.
namespace rp::sparse {

// ---------------------------------------------------------------------------
// Mode — the RP_SPARSE escape hatch.

enum class Mode { kOff = 0, kCsr = 1, kAuto = 2 };

/// Mode resolved once from RP_SPARSE (or the last force()).
Mode mode();

/// Test hooks: pin the mode / restore env resolution — same shape as
/// simd::force/reset.
void force(Mode m);
void reset();

/// Spec name of a mode ("off", "csr", "auto").
const char* mode_name(Mode m);

/// Parses an RP_SPARSE spec: "off"/"dense" -> kOff, "csr" -> kCsr,
/// "auto" -> kAuto. Anything else (a stale "block" included) throws
/// std::invalid_argument naming RP_SPARSE — at the env-resolution site that
/// means exit(2), never a silent fall-through to auto.
Mode parse_mode_spec(const std::string& text);

// ---------------------------------------------------------------------------
// Layouts

enum class Layout { kDense = 0, kCsr = 1 };

/// Display name of a layout ("dense", "csr").
const char* layout_name(Layout l);

/// auto keeps a layer dense at or above this density — at half density the
/// dense kernel's zero skip plus its packing reuse already win — and
/// compiles it to CSR below it.
inline constexpr double kDenseDensityThreshold = 0.5;

/// What the compiler decided for one weight matrix, and why.
struct Plan {
  Layout layout = Layout::kDense;
  int64_t nnz = 0;
  double density = 1.0;  ///< nnz / numel (1.0 for an empty matrix)
};

/// Inspects the measured zero pattern of a 2-D weight matrix and picks the
/// layout `compile()` would use under mode `m`.
Plan analyze(const Tensor& w, Mode m);

// ---------------------------------------------------------------------------
// Compiled representation

/// One weight matrix compiled for sparse execution. Exactly one layout's
/// fields are populated; `to_dense()` reconstructs the original matrix
/// bit-for-bit in both layouts.
struct SparseWeight {
  Layout layout = Layout::kDense;
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t nnz = 0;

  // CSR: row i owns values[row_ptr[i]:row_ptr[i+1]] at strictly ascending
  // columns col_idx[...].
  std::vector<int32_t> row_ptr;
  std::vector<int32_t> col_idx;
  std::vector<float> values;

  // Dense layout keeps the matrix as-is so round-trips work uniformly
  // across layouts.
  Tensor dense;

  /// Bytes this representation occupies (index + value storage).
  int64_t bytes() const;
  /// Exact dense reconstruction, Shape{rows, cols}.
  Tensor to_dense() const;
};

/// Compiles a 2-D weight matrix under mode `m` (default: the RP_SPARSE
/// mode). Counts obs sparse.nnz / sparse.bytes_saved.
SparseWeight compile(const Tensor& w, Mode m);
SparseWeight compile(const Tensor& w);

// ---------------------------------------------------------------------------
// Execution

/// C[rows, n] = W @ B for dense row-major B[cols, n], overwriting C (dense
/// beta = 0 semantics). Parallel over disjoint output rows — bit-identical
/// for any RP_THREADS — and dispatched through the RP_SIMD kernel tables.
/// Counts obs gemm.sparse_calls on the CSR layout.
void matmul_into(const SparseWeight& w, const Tensor& b, Tensor& c);

/// Y[n, rows] = X[n, cols] @ Wᵀ — the Linear forward orientation — computed
/// as Yᵀ = W @ Xᵀ through per-lane transpose scratch. fma(a, b, c) ==
/// fma(b, a, c) bit-exactly, so this equals the dense
/// gemm(x, w, y, /*trans_a=*/false, /*trans_b=*/true) reference.
void rhs_matmul_into(const SparseWeight& w, const Tensor& x, Tensor& y);

}  // namespace rp::sparse
