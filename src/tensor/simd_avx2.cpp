// AVX2/FMA kernel table. This translation unit is the only one compiled with
// -mavx2 -mfma (see src/tensor/CMakeLists.txt); everything here is guarded so
// the file is an empty stub on toolchains without AVX2 support. Dispatch
// guarantees these kernels only run on CPUs reporting avx2+fma.
//
// Bit-exactness (DESIGN.md §6): lanes run across the element index (the GEMM
// n dimension) only, every multiply-add is a fused vfmadd — the same
// single-rounded op as the scalar kernels' std::fma — and NaN/-0 semantics of
// max/min/compare formulations are chosen to match the scalar std::max /
// std::clamp exactly. Outputs are therefore bit-identical to RP_SIMD=off.
#include "tensor/simd.hpp"

#if defined(RP_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace rp::simd {

namespace {

// -- GEMM panel microkernel -------------------------------------------------
//
// Same loop nest as the scalar kernel (row i -> k index p -> column j), but
// the C row is held in ymm accumulators across the whole kc loop, cutting the
// C load/store traffic that bounds the scalar kernel. Legal because each
// output element still accumulates its k terms in the original order:
// ((c + a0*b0) + a1*b1) + ... . Column blocks of 64 use 8 independent
// accumulator chains to cover FMA latency; 16/8-wide tiers and a scalar
// std::fma tail handle the remainder. The pruning-aware zero skip is kept in
// every tier: av == 0 contributes exactly nothing in fused arithmetic
// (c + 0*b == c for finite c), and skipping also avoids touching the panel
// row of a pruned weight.

void a_gemm_panel(const float* a, int64_t lda, const float* panel, int64_t ldp, float* c,
                  int64_t ldc, int64_t i0, int64_t i1, int64_t kc, int64_t nc, float alpha) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    int64_t j = 0;
    for (; j + 64 <= nc; j += 64) {
      float* cj = ci + j;
      __m256 c0 = _mm256_loadu_ps(cj + 0);
      __m256 c1 = _mm256_loadu_ps(cj + 8);
      __m256 c2 = _mm256_loadu_ps(cj + 16);
      __m256 c3 = _mm256_loadu_ps(cj + 24);
      __m256 c4 = _mm256_loadu_ps(cj + 32);
      __m256 c5 = _mm256_loadu_ps(cj + 40);
      __m256 c6 = _mm256_loadu_ps(cj + 48);
      __m256 c7 = _mm256_loadu_ps(cj + 56);
      for (int64_t p = 0; p < kc; ++p) {
        const float av = alpha * ai[p];
        if (av == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(av);
        const float* bp = panel + p * ldp + j;
        c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 0), c0);
        c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 8), c1);
        c2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 16), c2);
        c3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 24), c3);
        c4 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 32), c4);
        c5 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 40), c5);
        c6 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 48), c6);
        c7 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 56), c7);
      }
      _mm256_storeu_ps(cj + 0, c0);
      _mm256_storeu_ps(cj + 8, c1);
      _mm256_storeu_ps(cj + 16, c2);
      _mm256_storeu_ps(cj + 24, c3);
      _mm256_storeu_ps(cj + 32, c4);
      _mm256_storeu_ps(cj + 40, c5);
      _mm256_storeu_ps(cj + 48, c6);
      _mm256_storeu_ps(cj + 56, c7);
    }
    for (; j + 16 <= nc; j += 16) {
      float* cj = ci + j;
      __m256 c0 = _mm256_loadu_ps(cj + 0);
      __m256 c1 = _mm256_loadu_ps(cj + 8);
      for (int64_t p = 0; p < kc; ++p) {
        const float av = alpha * ai[p];
        if (av == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(av);
        const float* bp = panel + p * ldp + j;
        c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 0), c0);
        c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 8), c1);
      }
      _mm256_storeu_ps(cj + 0, c0);
      _mm256_storeu_ps(cj + 8, c1);
    }
    for (; j + 8 <= nc; j += 8) {
      float* cj = ci + j;
      __m256 c0 = _mm256_loadu_ps(cj);
      for (int64_t p = 0; p < kc; ++p) {
        const float av = alpha * ai[p];
        if (av == 0.0f) continue;
        c0 = _mm256_fmadd_ps(_mm256_set1_ps(av), _mm256_loadu_ps(panel + p * ldp + j), c0);
      }
      _mm256_storeu_ps(cj, c0);
    }
    if (j < nc) {
      for (int64_t p = 0; p < kc; ++p) {
        const float av = alpha * ai[p];
        if (av == 0.0f) continue;
        const float* bp = panel + p * ldp;
        for (int64_t jj = j; jj < nc; ++jj) ci[jj] = std::fma(av, bp[jj], ci[jj]);
      }
    }
  }
}

// -- sparse×dense kernels ---------------------------------------------------
//
// Same contract as the scalar s_csr_gemm: per output element
// the stored-entry walk ascends in k and every multiply-add is a fused
// vfmadd, so the chain is bit-identical to the scalar kernels and (via the
// zero skip) to the dense reference. The column tiles run *outside* the row
// loop so one 64-column strip of B stays L2-hot across all rows of the
// sparse matrix — the access pattern CSR otherwise loses to cache misses.

void a_csr_gemm(const int32_t* row_ptr, const int32_t* col_idx, const float* values,
                const float* b, int64_t ldb, float* c, int64_t ldc, int64_t i0, int64_t i1,
                int64_t n) {
  int64_t j = 0;
  for (; j + 64 <= n; j += 64) {
    for (int64_t i = i0; i < i1; ++i) {
      float* cj = c + i * ldc + j;
      __m256 c0 = _mm256_loadu_ps(cj + 0);
      __m256 c1 = _mm256_loadu_ps(cj + 8);
      __m256 c2 = _mm256_loadu_ps(cj + 16);
      __m256 c3 = _mm256_loadu_ps(cj + 24);
      __m256 c4 = _mm256_loadu_ps(cj + 32);
      __m256 c5 = _mm256_loadu_ps(cj + 40);
      __m256 c6 = _mm256_loadu_ps(cj + 48);
      __m256 c7 = _mm256_loadu_ps(cj + 56);
      for (int32_t t = row_ptr[i]; t < row_ptr[i + 1]; ++t) {
        const float av = values[t];
        if (av == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(av);
        const float* bp = b + static_cast<int64_t>(col_idx[t]) * ldb + j;
        c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 0), c0);
        c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 8), c1);
        c2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 16), c2);
        c3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 24), c3);
        c4 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 32), c4);
        c5 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 40), c5);
        c6 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 48), c6);
        c7 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 56), c7);
      }
      _mm256_storeu_ps(cj + 0, c0);
      _mm256_storeu_ps(cj + 8, c1);
      _mm256_storeu_ps(cj + 16, c2);
      _mm256_storeu_ps(cj + 24, c3);
      _mm256_storeu_ps(cj + 32, c4);
      _mm256_storeu_ps(cj + 40, c5);
      _mm256_storeu_ps(cj + 48, c6);
      _mm256_storeu_ps(cj + 56, c7);
    }
  }
  for (; j + 16 <= n; j += 16) {
    for (int64_t i = i0; i < i1; ++i) {
      float* cj = c + i * ldc + j;
      __m256 c0 = _mm256_loadu_ps(cj + 0);
      __m256 c1 = _mm256_loadu_ps(cj + 8);
      for (int32_t t = row_ptr[i]; t < row_ptr[i + 1]; ++t) {
        const float av = values[t];
        if (av == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(av);
        const float* bp = b + static_cast<int64_t>(col_idx[t]) * ldb + j;
        c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 0), c0);
        c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 8), c1);
      }
      _mm256_storeu_ps(cj + 0, c0);
      _mm256_storeu_ps(cj + 8, c1);
    }
  }
  for (; j + 8 <= n; j += 8) {
    for (int64_t i = i0; i < i1; ++i) {
      float* cj = c + i * ldc + j;
      __m256 c0 = _mm256_loadu_ps(cj);
      for (int32_t t = row_ptr[i]; t < row_ptr[i + 1]; ++t) {
        const float av = values[t];
        if (av == 0.0f) continue;
        c0 = _mm256_fmadd_ps(_mm256_set1_ps(av),
                             _mm256_loadu_ps(b + static_cast<int64_t>(col_idx[t]) * ldb + j), c0);
      }
      _mm256_storeu_ps(cj, c0);
    }
  }
  if (j < n) {
    for (int64_t i = i0; i < i1; ++i) {
      float* ci = c + i * ldc;
      for (int32_t t = row_ptr[i]; t < row_ptr[i + 1]; ++t) {
        const float av = values[t];
        if (av == 0.0f) continue;
        const float* bp = b + static_cast<int64_t>(col_idx[t]) * ldb;
        for (int64_t jj = j; jj < n; ++jj) ci[jj] = std::fma(av, bp[jj], ci[jj]);
      }
    }
  }
}

// -- elementwise / reduction kernels ----------------------------------------

// max_ps(0, v) matches std::max(v, 0.0f) exactly: MAXPS returns the second
// operand on equal (+0 vs -0 keeps v's -0) and on unordered (NaN passes
// through), which is precisely the (a < b ? b : a) scalar behavior.
void a_relu(float* x, int64_t n) {
  const __m256 vz = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(vz, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] = std::max(x[i], 0.0f);
}

// Zero d where x <= 0 (ordered compare: NaN x leaves d untouched, like the
// scalar `if (x <= 0)`).
void a_relu_grad(const float* x, float* d, int64_t n) {
  const __m256 vz = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 dead = _mm256_cmp_ps(_mm256_loadu_ps(x + i), vz, _CMP_LE_OQ);
    _mm256_storeu_ps(d + i, _mm256_andnot_ps(dead, _mm256_loadu_ps(d + i)));
  }
  for (; i < n; ++i) {
    if (x[i] <= 0.0f) d[i] = 0.0f;
  }
}

void a_add(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void a_mul(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] *= src[i];
}

void a_add_scalar(float* dst, float v, int64_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), vv));
  }
  for (; i < n; ++i) dst[i] += v;
}

void a_scale(float* dst, float v, int64_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), vv));
  }
  for (; i < n; ++i) dst[i] *= v;
}

void a_div_scalar(float* dst, float v, int64_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_div_ps(_mm256_loadu_ps(dst + i), vv));
  }
  for (; i < n; ++i) dst[i] /= v;
}

void a_bias_add(float* dst, const float* src, float b, int64_t n) {
  const __m256 vb = _mm256_set1_ps(b);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(src + i), vb));
  }
  for (; i < n; ++i) dst[i] = src[i] + b;
}

// min_ps(hi, max_ps(lo, v)) matches std::clamp(v, lo, hi) exactly, including
// NaN passthrough (both MAXPS and MINPS return the second operand when
// unordered, and v sits in the second slot of both).
void a_clamp(float* x, float lo, float hi, int64_t n) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vhi = _mm256_set1_ps(hi);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_min_ps(vhi, _mm256_max_ps(vlo, _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) x[i] = std::clamp(x[i], lo, hi);
}

float hmax(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_movehdup_ps(m));
  return _mm_cvtss_f32(m);
}

// max over finite floats is order-independent, so the lane-parallel reduction
// is bit-identical to the scalar sequential one for any non-NaN input.
float a_reduce_max(const float* x, int64_t n) {
  if (n < 8) {
    float m = x[0];
    for (int64_t i = 1; i < n; ++i) m = std::max(m, x[i]);
    return m;
  }
  __m256 vm = _mm256_loadu_ps(x);
  int64_t i = 8;
  for (; i + 8 <= n; i += 8) vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + i));
  float m = hmax(vm);
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

float a_reduce_abs_max(const float* x, int64_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  __m256 vm = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vm = _mm256_max_ps(vm, _mm256_andnot_ps(sign, _mm256_loadu_ps(x + i)));
  }
  float m = hmax(vm);
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

// Same fused-op chain as the scalar s_sgd_step: vfnmadd computes p - lr*t
// with a single rounding, bit-identical to std::fma(-lr, t, p).
void a_sgd_step(float* p, const float* grad, float* vel, float lr, float mu, float wd,
                bool nesterov, int64_t n) {
  const __m256 vwd = _mm256_set1_ps(wd);
  const __m256 vmu = _mm256_set1_ps(mu);
  const __m256 vlr = _mm256_set1_ps(lr);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 pv = _mm256_loadu_ps(p + i);
    const __m256 g = _mm256_fmadd_ps(vwd, pv, _mm256_loadu_ps(grad + i));
    const __m256 v = _mm256_fmadd_ps(vmu, _mm256_loadu_ps(vel + i), g);
    _mm256_storeu_ps(vel + i, v);
    const __m256 t = nesterov ? _mm256_fmadd_ps(vmu, v, g) : v;
    _mm256_storeu_ps(p + i, _mm256_fnmadd_ps(vlr, t, pv));
  }
  for (; i < n; ++i) {
    const float g = std::fma(wd, p[i], grad[i]);
    const float v = std::fma(mu, vel[i], g);
    vel[i] = v;
    const float t = nesterov ? std::fma(mu, v, g) : v;
    p[i] = std::fma(-lr, t, p[i]);
  }
}

constexpr Kernels kAvx2Kernels{
    a_gemm_panel, a_csr_gemm,
    a_relu,       a_relu_grad,  a_add,      a_mul,
    a_add_scalar, a_scale, a_div_scalar, a_bias_add, a_clamp,
    a_reduce_max, a_reduce_abs_max,      a_sgd_step,
};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace rp::simd

#else  // !RP_SIMD_AVX2

namespace rp::simd {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace rp::simd

#endif
