#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rp {

namespace {

// Cache blocking: B is consumed in KC x NC panels (128 KiB packed,
// comfortably L2-resident) so every A element loaded is multiplied against a
// hot panel instead of streaming the whole of B per output row.
constexpr int64_t kKC = 256;
constexpr int64_t kNC = 128;

// Below this many multiply-adds the parallel dispatch overhead dominates;
// small GEMMs (per-sample conv layers, classifier heads) run serial and are
// instead parallelized by the loops above them.
constexpr int64_t kParallelMinMacs = int64_t{1} << 18;

// Scratch reused across gemm calls. Nested parallel loops run inline on the
// current lane, so each lane owns exactly one set and the buffers stop being
// reallocated per call.
// rp-lint: allow(R3) per-lane GEMM scratch; never aliased across lanes
thread_local std::vector<float> tl_at_buf, tl_bt_buf, tl_pack_buf;

void gemm_blocked(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
                  float alpha) {
  // The panel microkernel — C[i0:i1, 0:nc] += alpha * A[i0:i1, 0:kc] @
  // panel[0:kc, 0:nc] — is ISA-dispatched (simd.hpp). Each output row is
  // owned by exactly one task and its k-accumulation order is fixed by the
  // (jc, pc) loop nest and unchanged by vectorization (lanes run across
  // columns only), so results are bit-identical for any thread count AND any
  // RP_SIMD setting.
  const auto kernel_panel = simd::kernels().gemm_panel;
  const bool threaded = 2 * m * n * k >= kParallelMinMacs;
  const int64_t grain =
      std::max<int64_t>(1, m / (4 * static_cast<int64_t>(parallel::num_threads())));
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      // Pack the panel only when its rows are strided (nc < n); a
      // single-block B is already contiguous and used in place.
      const float* panel = b + pc * n + jc;
      int64_t ldp = n;
      if (nc < n) {
        tl_pack_buf.resize(static_cast<size_t>(kc * nc));  // rp-lint: allow(R12) thread_local pack scratch; grows once, steady-state alloc-free
        for (int64_t p = 0; p < kc; ++p) {
          std::memcpy(tl_pack_buf.data() + p * nc, b + (pc + p) * n + jc,
                      static_cast<size_t>(nc) * sizeof(float));
        }
        panel = tl_pack_buf.data();
        ldp = nc;
      }
      auto rows = [&](int64_t i0, int64_t i1) {
        kernel_panel(a + pc, k, panel, ldp, c + jc, n, i0, i1, kc, nc, alpha);
      };
      if (threaded) {
        parallel::parallel_for(0, m, grain, rows);
      } else {
        rows(0, m);
      }
    }
  }
}

/// Output positions [lo, hi) along one axis whose input coordinate
/// `pos * stride + off` lands inside [0, len): the unpadded span of one
/// kernel offset. Everything outside the span reads zero padding.
struct AxisSpan {
  int64_t lo, hi;
};

AxisSpan valid_span(int64_t out, int64_t len, int64_t stride, int64_t off) {
  const int64_t hi = off < len ? std::min(out, (len - 1 - off) / stride + 1) : 0;
  const int64_t lo = off >= 0 ? 0 : (stride - 1 - off) / stride;
  return {std::min(lo, hi), hi};
}

void zero_floats(float* p, int64_t n) {
  if (n > 0) std::memset(p, 0, static_cast<size_t>(n) * sizeof(float));
}

}  // namespace

// rp-lint: hot
void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a, bool trans_b, float alpha,
          float beta) {
  if (a.ndim() != 2 || b.ndim() != 2 || c.ndim() != 2) {
    throw std::invalid_argument("gemm expects 2-D tensors");
  }
  obs::count(obs::Counter::kGemmCalls);
  const int64_t m = trans_a ? a.size(1) : a.size(0);
  const int64_t k = trans_a ? a.size(0) : a.size(1);
  const int64_t kb = trans_b ? b.size(1) : b.size(0);
  const int64_t n = trans_b ? b.size(0) : b.size(1);
  if (k != kb || c.size(0) != m || c.size(1) != n) {
    throw std::invalid_argument("gemm: incompatible shapes " + a.shape().to_string() + " x " +
                                b.shape().to_string() + " -> " + c.shape().to_string());
  }
  if (m == 0 || n == 0) return;  // C is empty — nothing to scale or accumulate

  // Single beta pre-pass for every beta value, chunked so large C matrices
  // scale in parallel (disjoint ranges — bit-deterministic).
  float* cd = c.data().data();
  if (beta != 1.0f) {
    parallel::parallel_for(0, m * n, int64_t{1} << 16, [&](int64_t lo, int64_t hi) {
      if (beta == 0.0f) {
        std::memset(cd + lo, 0, static_cast<size_t>(hi - lo) * sizeof(float));
      } else {
        simd::scale(cd + lo, beta, hi - lo);
      }
    });
  }
  if (k == 0) return;

  // Materialize transposed operands once; at this repository's matrix sizes
  // (K, N <= a few thousand) the copy is cheaper than strided inner loops.
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  if (trans_a) {
    tl_at_buf.resize(static_cast<size_t>(m * k));  // rp-lint: allow(R12) thread_local transpose scratch; grows once, steady-state alloc-free
    for (int64_t p = 0; p < k; ++p)
      for (int64_t i = 0; i < m; ++i) tl_at_buf[static_cast<size_t>(i * k + p)] = ad[p * m + i];
    ad = tl_at_buf.data();
  }
  if (trans_b) {
    tl_bt_buf.resize(static_cast<size_t>(k * n));  // rp-lint: allow(R12) thread_local transpose scratch; grows once, steady-state alloc-free
    for (int64_t j = 0; j < n; ++j)
      for (int64_t p = 0; p < k; ++p) tl_bt_buf[static_cast<size_t>(p * n + j)] = bd[j * k + p];
    bd = tl_bt_buf.data();
  }

  gemm_blocked(ad, bd, cd, m, n, k, alpha);
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  const int64_t m = trans_a ? a.size(1) : a.size(0);
  const int64_t n = trans_b ? b.size(0) : b.size(1);
  Tensor c(Shape{m, n});
  gemm(a, b, c, trans_a, trans_b);
  return c;
}

void im2col(const Tensor& image, const ConvGeom& g, Tensor& cols) {
  if (image.ndim() != 3 || image.size(0) != g.in_c || image.size(1) != g.in_h ||
      image.size(2) != g.in_w) {
    throw std::invalid_argument("im2col: image shape " + image.shape().to_string() +
                                " does not match geometry");
  }
  const int64_t oh = g.out_h(), ow = g.out_w();
  if (cols.shape() != Shape{g.patch(), oh * ow}) {
    cols = Tensor::scratch(Shape{g.patch(), oh * ow});
  }
  const float* src = image.data().data();
  float* dst = cols.data().data();
  // Branch-free spans: each (c, ki, kj) row computes its valid output
  // rectangle once, copies it, and zero-fills the padding around it.
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    const float* plane = src + c * g.in_h * g.in_w;
    for (int64_t ki = 0; ki < g.k; ++ki) {
      const int64_t dy = ki - g.pad;
      const AxisSpan ys = valid_span(oh, g.in_h, g.stride, dy);
      for (int64_t kj = 0; kj < g.k; ++kj, ++row) {
        const int64_t dx = kj - g.pad;
        const AxisSpan xs = valid_span(ow, g.in_w, g.stride, dx);
        float* out = dst + row * oh * ow;
        if (xs.lo == xs.hi || ys.lo == ys.hi) {
          zero_floats(out, oh * ow);
          continue;
        }
        zero_floats(out, ys.lo * ow);
        zero_floats(out + ys.hi * ow, (oh - ys.hi) * ow);
        if (g.stride == 1 && ow == g.in_w) {
          // "Same" plane: output (y, x) reads input (y + dy, x + dx), a fixed
          // shift of the flat index, so the valid rows are one memcpy; the
          // edge columns picked up neighbouring-row pixels and are re-zeroed.
          const int64_t first = ys.lo * ow + xs.lo, last = (ys.hi - 1) * ow + xs.hi;
          std::memcpy(out + first, plane + first + dy * g.in_w + dx,
                      static_cast<size_t>(last - first) * sizeof(float));
          for (int64_t y = ys.lo; y < ys.hi; ++y) {
            zero_floats(out + y * ow, xs.lo);
            zero_floats(out + y * ow + xs.hi, ow - xs.hi);
          }
          continue;
        }
        for (int64_t y = ys.lo; y < ys.hi; ++y) {
          float* o = out + y * ow;
          const float* s = plane + (y * g.stride + dy) * g.in_w;
          zero_floats(o, xs.lo);
          zero_floats(o + xs.hi, ow - xs.hi);
          for (int64_t x = xs.lo; x < xs.hi; ++x) o[x] = s[x * g.stride + dx];
        }
      }
    }
  }
}

void col2im(const Tensor& cols, const ConvGeom& g, Tensor& image) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  if (cols.shape() != Shape{g.patch(), oh * ow}) {
    throw std::invalid_argument("col2im: cols shape " + cols.shape().to_string() +
                                " does not match geometry");
  }
  if (image.shape() != Shape{g.in_c, g.in_h, g.in_w}) {
    image = Tensor::scratch(Shape{g.in_c, g.in_h, g.in_w});
  } else {
    image.zero();
  }
  const float* src = cols.data().data();
  float* dst = image.data().data();
  // Rows add in (c, ki, kj) order and a row touches each pixel at most once,
  // so every pixel receives its contributions in the same order as a
  // position-by-position walk — the span form keeps the sums bit-identical.
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    float* plane = dst + c * g.in_h * g.in_w;
    for (int64_t ki = 0; ki < g.k; ++ki) {
      const int64_t dy = ki - g.pad;
      const AxisSpan ys = valid_span(oh, g.in_h, g.stride, dy);
      for (int64_t kj = 0; kj < g.k; ++kj, ++row) {
        const int64_t dx = kj - g.pad;
        const AxisSpan xs = valid_span(ow, g.in_w, g.stride, dx);
        if (xs.lo == xs.hi) continue;
        const float* in = src + row * oh * ow;
        for (int64_t y = ys.lo; y < ys.hi; ++y) {
          float* d = plane + (y * g.stride + dy) * g.in_w;
          const float* s = in + y * ow;
          for (int64_t x = xs.lo; x < xs.hi; ++x) d[x * g.stride + dx] += s[x];
        }
      }
    }
  }
}

}  // namespace rp
