#include "tensor/sparse.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/obs.hpp"
#include "tensor/envspec.hpp"
#include "tensor/gemm.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rp::sparse {

Mode parse_mode_spec(const std::string& text) {
  if (text == "off" || text == "dense") return Mode::kOff;
  if (text == "csr") return Mode::kCsr;
  if (text == "auto") return Mode::kAuto;
  throw std::invalid_argument("RP_SPARSE: bad value '" + text +
                              "' (expected off|dense|csr|auto)");
}

namespace {

// -- mode resolution (mirrors simd.cpp's RP_SIMD handling) ------------------

Mode resolve_from_env() {
  std::string want = "auto";
  if (const char* env = std::getenv("RP_SPARSE")) want = env;
  // Strict parse-or-exit(2): "RP_SPARSE=csrr" must not silently serve the
  // auto heuristic while the operator believes they pinned a layout.
  return env::die_on_bad_spec([&] { return parse_mode_spec(want); });
}

// Mode override for force()/reset(); -1 = resolve from env. Written only by
// test hooks; every mode produces bit-identical results, so even a racy
// transition could not change outputs — only which layout executes them.
// rp-lint: allow(R3) mode pin for tests; all layouts are bit-identical
std::atomic<int> g_forced{-1};

// Same parallel-dispatch threshold and grain recipe as gemm.cpp: below
// ~2^18 multiply-adds the dispatch overhead dominates, and each output row
// is owned by exactly one lane so any thread count is bit-identical.
constexpr int64_t kParallelMinMacs = int64_t{1} << 18;

int64_t row_grain(int64_t rows) {
  return std::max<int64_t>(1, rows / (4 * static_cast<int64_t>(parallel::num_threads())));
}

// Scratch for the transposed-operand path of rhs_matmul_into. Nested
// parallel loops run inline on the current lane, so each lane owns exactly
// one set — the same idiom as gemm.cpp's pack buffers.
// rp-lint: allow(R3) per-lane transpose scratch; never aliased across lanes
thread_local std::vector<float> tl_xt_buf, tl_yt_buf;

void require_2d(const Tensor& w, const char* who) {
  if (w.ndim() != 2) {
    throw std::invalid_argument(std::string(who) + " expects a 2-D weight, got " +
                                w.shape().to_string());
  }
}

// C[rows, n] = W @ B for raw row-major B[cols, n] / C[rows, n] with leading
// dimension n. C must be pre-zeroed; only the CSR layout comes here (the
// dense layout goes through rp::gemm).
void matmul_core(const SparseWeight& w, const float* b, float* c, int64_t n) {
  obs::count(obs::Counter::kGemmSparseCalls);
  const auto kernel = simd::kernels().csr_gemm;
  auto rows = [&](int64_t i0, int64_t i1) {
    kernel(w.row_ptr.data(), w.col_idx.data(), w.values.data(), b, n, c, n, i0, i1, n);
  };
  if (2 * w.nnz * n >= kParallelMinMacs) {
    parallel::parallel_for(0, w.rows, row_grain(w.rows), rows);
  } else {
    rows(0, w.rows);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Mode

Mode mode() {
  const int f = g_forced.load(std::memory_order_acquire);
  if (f >= 0) return static_cast<Mode>(f);
  // Resolve once; RP_SPARSE is read at first use, like RP_SIMD/RP_THREADS.
  static const Mode env_mode = resolve_from_env();  // rp-lint: allow(R3) resolved-once constant
  return env_mode;
}

void force(Mode m) { g_forced.store(static_cast<int>(m), std::memory_order_release); }

void reset() { g_forced.store(-1, std::memory_order_release); }

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kOff:
      return "off";
    case Mode::kCsr:
      return "csr";
    case Mode::kAuto:
      break;
  }
  return "auto";
}

const char* layout_name(Layout l) { return l == Layout::kCsr ? "csr" : "dense"; }

// ---------------------------------------------------------------------------
// Analysis & compilation

Plan analyze(const Tensor& w, Mode m) {
  require_2d(w, "sparse::analyze");
  Plan plan;
  for (const float v : w.data()) plan.nnz += v != 0.0f ? 1 : 0;
  const int64_t numel = w.numel();
  plan.density = numel > 0 ? static_cast<double>(plan.nnz) / static_cast<double>(numel) : 1.0;

  switch (m) {
    case Mode::kOff:
      plan.layout = Layout::kDense;
      break;
    case Mode::kCsr:
      plan.layout = Layout::kCsr;
      break;
    case Mode::kAuto:
      plan.layout = plan.density >= kDenseDensityThreshold ? Layout::kDense : Layout::kCsr;
      break;
  }
  return plan;
}

SparseWeight compile(const Tensor& w, Mode m) {
  require_2d(w, "sparse::compile");
  const Plan plan = analyze(w, m);
  const int64_t rows = w.size(0), cols = w.size(1);
  const float* d = w.data().data();

  SparseWeight sw;
  sw.layout = plan.layout;
  sw.rows = rows;
  sw.cols = cols;
  sw.nnz = plan.nnz;

  if (sw.layout == Layout::kDense) {
    sw.dense = w;
    return sw;
  }

  sw.row_ptr.reserve(static_cast<size_t>(rows) + 1);
  sw.col_idx.reserve(static_cast<size_t>(plan.nnz));
  sw.values.reserve(static_cast<size_t>(plan.nnz));
  sw.row_ptr.push_back(0);
  for (int64_t i = 0; i < rows; ++i) {
    const float* wr = d + i * cols;
    for (int64_t k = 0; k < cols; ++k) {
      if (wr[k] != 0.0f) {
        sw.col_idx.push_back(static_cast<int32_t>(k));
        sw.values.push_back(wr[k]);
      }
    }
    sw.row_ptr.push_back(static_cast<int32_t>(sw.col_idx.size()));
  }

  obs::count(obs::Counter::kSparseNnz, sw.nnz);
  const int64_t dense_bytes = rows * cols * static_cast<int64_t>(sizeof(float));
  obs::count(obs::Counter::kSparseBytesSaved, std::max<int64_t>(0, dense_bytes - sw.bytes()));
  return sw;
}

SparseWeight compile(const Tensor& w) { return compile(w, mode()); }

int64_t SparseWeight::bytes() const {
  auto vec_bytes = [](const auto& v) {
    return static_cast<int64_t>(v.size() * sizeof(v[0]));
  };
  if (layout == Layout::kDense) return dense.numel() * static_cast<int64_t>(sizeof(float));
  return vec_bytes(row_ptr) + vec_bytes(col_idx) + vec_bytes(values);
}

Tensor SparseWeight::to_dense() const {
  if (layout == Layout::kDense) return dense;
  Tensor out(Shape{rows, cols});
  float* d = out.data().data();
  for (int64_t i = 0; i < rows; ++i) {
    for (int32_t t = row_ptr[static_cast<size_t>(i)]; t < row_ptr[static_cast<size_t>(i) + 1];
         ++t) {
      d[i * cols + col_idx[static_cast<size_t>(t)]] = values[static_cast<size_t>(t)];
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Execution

void matmul_into(const SparseWeight& w, const Tensor& b, Tensor& c) {
  if (b.ndim() != 2 || c.ndim() != 2 || b.size(0) != w.cols || c.size(0) != w.rows ||
      c.size(1) != b.size(1)) {
    throw std::invalid_argument("sparse::matmul_into: incompatible shapes");
  }
  if (w.layout == Layout::kDense) {
    gemm(w.dense, b, c);
    return;
  }
  const int64_t n = b.size(1);
  float* cd = c.data().data();
  parallel::parallel_for(0, w.rows * n, int64_t{1} << 16, [&](int64_t lo, int64_t hi) {
    std::memset(cd + lo, 0, static_cast<size_t>(hi - lo) * sizeof(float));
  });
  if (w.rows == 0 || n == 0) return;
  matmul_core(w, b.data().data(), cd, n);
}

void rhs_matmul_into(const SparseWeight& w, const Tensor& x, Tensor& y) {
  if (x.ndim() != 2 || y.ndim() != 2 || x.size(1) != w.cols || y.size(0) != x.size(0) ||
      y.size(1) != w.rows) {
    throw std::invalid_argument("sparse::rhs_matmul_into: incompatible shapes");
  }
  if (w.layout == Layout::kDense) {
    gemm(x, w.dense, y, /*trans_a=*/false, /*trans_b=*/true);
    return;
  }
  const int64_t n = x.size(0);
  if (n == 0 || w.rows == 0) {
    y.zero();
    return;
  }
  // Yᵀ = W @ Xᵀ with materialized transposes — the same once-per-call copy
  // rp::gemm makes for trans_b, and fma(w, x, c) == fma(x, w, c) bitwise, so
  // this matches the dense gemm(x, w, y, false, true) reference exactly.
  const float* xd = x.data().data();
  tl_xt_buf.resize(static_cast<size_t>(w.cols * n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t k = 0; k < w.cols; ++k) {
      tl_xt_buf[static_cast<size_t>(k * n + i)] = xd[i * w.cols + k];
    }
  }
  tl_yt_buf.assign(static_cast<size_t>(w.rows * n), 0.0f);
  matmul_core(w, tl_xt_buf.data(), tl_yt_buf.data(), n);
  float* yd = y.data().data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t r = 0; r < w.rows; ++r) {
      yd[i * w.rows + r] = tl_yt_buf[static_cast<size_t>(r * n + i)];
    }
  }
}

}  // namespace rp::sparse
