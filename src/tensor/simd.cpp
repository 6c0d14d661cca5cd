#include "tensor/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/envspec.hpp"

namespace rp::simd {

namespace {

// -- scalar reference kernels ---------------------------------------------
//
// Every multiply-add is an explicit std::fma: a single-rounded fused op,
// exactly what the AVX2 (vfmadd) and NEON (vfma) kernels execute per lane.
// That — plus vectorizing only across the element index — is the whole
// bit-exactness argument; see DESIGN.md §6. GCC still auto-vectorizes these
// loops, so the scalar path is a correctness reference, not a slow path.

void s_gemm_panel(const float* a, int64_t lda, const float* panel, int64_t ldp, float* c,
                  int64_t ldc, int64_t i0, int64_t i1, int64_t kc, int64_t nc, float alpha) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    for (int64_t p = 0; p < kc; ++p) {
      const float av = alpha * ai[p];
      if (av == 0.0f) continue;  // masked / sparse rows are common after pruning
      const float* bp = panel + p * ldp;
      for (int64_t j = 0; j < nc; ++j) ci[j] = std::fma(av, bp[j], ci[j]);
    }
  }
}

void s_csr_gemm(const int32_t* row_ptr, const int32_t* col_idx, const float* values,
                const float* b, int64_t ldb, float* c, int64_t ldc, int64_t i0, int64_t i1,
                int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    float* ci = c + i * ldc;
    const int32_t lo = row_ptr[i], hi = row_ptr[i + 1];
    for (int32_t t = lo; t < hi; ++t) {
      const float av = values[t];
      if (av == 0.0f) continue;  // stored zeros stay no-ops, like the dense zero skip
      const float* bp = b + static_cast<int64_t>(col_idx[t]) * ldb;
      for (int64_t j = 0; j < n; ++j) ci[j] = std::fma(av, bp[j], ci[j]);
    }
  }
}

void s_relu(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = std::max(x[i], 0.0f);
}

void s_relu_grad(const float* x, float* d, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (x[i] <= 0.0f) d[i] = 0.0f;
  }
}

void s_add(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void s_mul(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] *= src[i];
}

void s_add_scalar(float* dst, float v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += v;
}

void s_scale(float* dst, float v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] *= v;
}

void s_div_scalar(float* dst, float v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] /= v;
}

void s_bias_add(float* dst, const float* src, float b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = src[i] + b;
}

void s_clamp(float* x, float lo, float hi, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = std::clamp(x[i], lo, hi);
}

float s_reduce_max(const float* x, int64_t n) {
  float m = x[0];
  for (int64_t i = 1; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

float s_reduce_abs_max(const float* x, int64_t n) {
  float m = 0.0f;
  for (int64_t i = 0; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void s_sgd_step(float* p, const float* grad, float* vel, float lr, float mu, float wd,
                bool nesterov, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float g = std::fma(wd, p[i], grad[i]);
    const float v = std::fma(mu, vel[i], g);
    vel[i] = v;
    const float t = nesterov ? std::fma(mu, v, g) : v;
    p[i] = std::fma(-lr, t, p[i]);
  }
}

constexpr Kernels kScalarKernels{
    s_gemm_panel, s_csr_gemm,
    s_relu,       s_relu_grad,  s_add,        s_mul,
    s_add_scalar, s_scale, s_div_scalar, s_bias_add,   s_clamp,
    s_reduce_max, s_reduce_abs_max,      s_sgd_step,
};

// -- dispatch --------------------------------------------------------------

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_neon() {
#if defined(__aarch64__)
  return true;  // NEON is baseline on AArch64
#else
  return false;
#endif
}

}  // namespace

bool parse_isa_spec(const std::string& text, Isa* out) {
  if (text == "off" || text == "scalar") {
    *out = Isa::kScalar;
    return true;
  }
  if (text == "avx2") {
    *out = Isa::kAvx2;
    return true;
  }
  if (text == "neon") {
    *out = Isa::kNeon;
    return true;
  }
  if (text == "auto") return false;
  throw std::invalid_argument("RP_SIMD: bad value '" + text +
                              "' (expected off|scalar|avx2|neon|auto)");
}

namespace {

Isa resolve_from_env() {
  std::string want = "auto";
  if (const char* env = std::getenv("RP_SIMD")) want = env;
  Isa requested = Isa::kScalar;
  const bool specific = env::die_on_bad_spec([&] { return parse_isa_spec(want, &requested); });
  if (specific) {
    if (requested == Isa::kAvx2) {
      return (avx2_kernels() != nullptr && cpu_has_avx2_fma()) ? Isa::kAvx2 : Isa::kScalar;
    }
    if (requested == Isa::kNeon) {
      return (neon_kernels() != nullptr && cpu_has_neon()) ? Isa::kNeon : Isa::kScalar;
    }
    return Isa::kScalar;
  }
  // auto: best ISA compiled in + supported.
  if (avx2_kernels() != nullptr && cpu_has_avx2_fma()) return Isa::kAvx2;
  if (neon_kernels() != nullptr && cpu_has_neon()) return Isa::kNeon;
  return Isa::kScalar;
}

// Dispatch override for force()/reset(); -1 = resolve from env+CPU. Written
// only by test hooks, read with acquire/release — every ISA produces
// bit-identical results, so even a racy transition could not change outputs.
// rp-lint: allow(R3) dispatch pin for tests; all ISAs are bit-identical
std::atomic<int> g_forced{-1};

Isa resolved() {
  const int f = g_forced.load(std::memory_order_acquire);
  if (f >= 0) return static_cast<Isa>(f);
  // Resolve once; RP_SIMD is read at first use, like RP_THREADS.
  static const Isa env_isa = resolve_from_env();  // rp-lint: allow(R3) resolved-once constant
  return env_isa;
}

const Kernels* table_for(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return avx2_kernels();
    case Isa::kNeon:
      return neon_kernels();
    case Isa::kScalar:
      break;
  }
  return &kScalarKernels;
}

}  // namespace

Isa active() {
  const Isa isa = resolved();
  return table_for(isa) != nullptr ? isa : Isa::kScalar;
}

const Kernels& kernels() {
  const Kernels* t = table_for(resolved());
  return t != nullptr ? *t : kScalarKernels;
}

void force(Isa isa) {
  if (table_for(isa) == nullptr) isa = Isa::kScalar;
  g_forced.store(static_cast<int>(isa), std::memory_order_release);
}

void reset() { g_forced.store(-1, std::memory_order_release); }

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace rp::simd
