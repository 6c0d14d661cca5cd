#pragma once

#include <cstdint>
#include <string>

// Runtime-dispatched SIMD kernels for the handful of hot loops the profiler
// actually sees: the GEMM panel microkernel and the elementwise/reduction ops
// used by layers, the optimizer, and the losses.
//
// Contract (DESIGN.md §6): every ISA implementation of a kernel performs the
// *same per-element arithmetic in the same order* as the scalar fallback.
// Vector lanes run across the n (column / element-index) dimension only, so
// each output element still sees its k-accumulation in the original serial
// order, and every multiply-add is a single-rounded fused op (`std::fma` in
// scalar code, vfmadd/vfma in vector code). Results are therefore
// bit-identical across scalar/AVX2/NEON and across RP_SIMD=off/on — the same
// guarantee the thread pool gives for RP_THREADS=1 vs N.
//
// Selection: RP_SIMD=off|scalar forces the scalar kernels, RP_SIMD=avx2|neon
// requests a specific ISA (falling back to scalar when unavailable), and
// unset/auto picks the best ISA compiled in and supported by the CPU.
namespace rp::simd {

enum class Isa { kScalar = 0, kAvx2 = 1, kNeon = 2 };

// Kernel function-pointer table. One instance per compiled-in ISA; all
// entries are non-null in every table (an ISA that has no custom version of
// an op points at the scalar one).
struct Kernels {
  // C[i0:i1, 0:nc] += alpha * A[i0:i1, 0:kc] @ panel[0:kc, 0:nc].
  // Row-major, panel rows contiguous with stride ldp. Must preserve the
  // pruning-aware zero-row skip: a == 0.0f element of alpha*A contributes
  // nothing and its panel row is not touched.
  void (*gemm_panel)(const float* a, int64_t lda, const float* panel, int64_t ldp, float* c,
                     int64_t ldc, int64_t i0, int64_t i1, int64_t kc, int64_t nc, float alpha);

  // Sparse(A)×dense(B) row kernel for the compile-to-sparse engine
  // (tensor/sparse.hpp). It accumulates into C rows [i0, i1) of a zeroed
  // C[rows, n] and must execute, per output element, the exact fma chain the
  // dense gemm_panel would: stored entries walked in ascending k order, every
  // multiply-add single-rounded, and entries equal to 0.0f skipped (so a
  // stored zero is still a bit-level no-op, matching the dense zero skip).
  //
  // CSR: row i holds values[row_ptr[i]:row_ptr[i+1]] at ascending columns
  // col_idx[...]; C[i, 0:n] += sum_t values[t] * B[col_idx[t], 0:n].
  void (*csr_gemm)(const int32_t* row_ptr, const int32_t* col_idx, const float* values,
                   const float* b, int64_t ldb, float* c, int64_t ldc, int64_t i0, int64_t i1,
                   int64_t n);

  void (*relu)(float* x, int64_t n);                                // x = max(x, 0)
  void (*relu_grad)(const float* x, float* d, int64_t n);           // d = x<=0 ? 0 : d
  void (*add)(float* dst, const float* src, int64_t n);             // dst += src
  void (*mul)(float* dst, const float* src, int64_t n);             // dst *= src
  void (*add_scalar)(float* dst, float v, int64_t n);               // dst += v
  void (*scale)(float* dst, float v, int64_t n);                    // dst *= v
  void (*div_scalar)(float* dst, float v, int64_t n);               // dst /= v
  void (*bias_add)(float* dst, const float* src, float b, int64_t n);  // dst = src + b
  void (*clamp)(float* x, float lo, float hi, int64_t n);           // x = clamp(x, lo, hi)
  float (*reduce_max)(const float* x, int64_t n);                   // max(x); n >= 1
  float (*reduce_abs_max)(const float* x, int64_t n);               // max(|x|); 0 for n == 0
  // Fused SGD+momentum step over one parameter block:
  //   g = grad + wd * p;  v = mu * v + g;  p -= lr * (nesterov ? g + mu*v : v)
  // every multiply-add single-rounded (std::fma / vfmadd).
  void (*sgd_step)(float* p, const float* grad, float* vel, float lr, float mu, float wd,
                   bool nesterov, int64_t n);
};

// ISA resolved once from RP_SIMD + CPU/compile-time support (or the last
// force()); `kernels()` is the table for that ISA.
Isa active();
const Kernels& kernels();

// Parses an RP_SIMD spec: sets *out and returns true for "off"/"scalar"
// (kScalar), "avx2", "neon"; returns false for "auto" (resolution picks the
// best available ISA). Anything else throws std::invalid_argument naming
// RP_SIMD — at the env-resolution site that means exit(2), never a silent
// fall-through to auto ("RP_SIMD=axv2" must not quietly change what a
// benchmark measured).
bool parse_isa_spec(const std::string& text, Isa* out);

// Test hooks: pin the dispatch to a specific ISA (no-op fallback to scalar if
// the ISA isn't available) / restore env+CPU resolution.
void force(Isa isa);
void reset();

// Human-readable name of an ISA ("scalar", "avx2", "neon").
const char* isa_name(Isa isa);

// Per-ISA tables; getters return nullptr when the ISA wasn't compiled in.
// (Internal wiring for simd.cpp, exposed for the dispatch unit test.)
const Kernels* avx2_kernels();
const Kernels* neon_kernels();

// -- convenience wrappers -------------------------------------------------

inline void relu(float* x, int64_t n) { kernels().relu(x, n); }
inline void relu_grad(const float* x, float* d, int64_t n) { kernels().relu_grad(x, d, n); }
inline void add(float* dst, const float* src, int64_t n) { kernels().add(dst, src, n); }
inline void mul(float* dst, const float* src, int64_t n) { kernels().mul(dst, src, n); }
inline void add_scalar(float* dst, float v, int64_t n) { kernels().add_scalar(dst, v, n); }
inline void scale(float* dst, float v, int64_t n) { kernels().scale(dst, v, n); }
inline void div_scalar(float* dst, float v, int64_t n) { kernels().div_scalar(dst, v, n); }
inline void bias_add(float* dst, const float* src, float b, int64_t n) {
  kernels().bias_add(dst, src, b, n);
}
inline void clamp(float* x, float lo, float hi, int64_t n) { kernels().clamp(x, lo, hi, n); }
inline float reduce_max(const float* x, int64_t n) { return kernels().reduce_max(x, n); }
inline float reduce_abs_max(const float* x, int64_t n) { return kernels().reduce_abs_max(x, n); }
inline void sgd_step(float* p, const float* grad, float* vel, float lr, float mu, float wd,
                     bool nesterov, int64_t n) {
  kernels().sgd_step(p, grad, vel, lr, mu, wd, nesterov, n);
}

}  // namespace rp::simd
