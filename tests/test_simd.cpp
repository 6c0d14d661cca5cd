// SIMD dispatch + bit-exactness suite (DESIGN.md §6). The contract under
// test: every kernel produces bit-identical output under RP_SIMD=off and the
// dispatched ISA, for any thread count — including ragged shapes that miss
// the vector width, pruned (zero) rows hitting the GEMM zero-skip, and
// alpha/beta variants. On a host without a vector ISA the forced comparisons
// degenerate to scalar-vs-scalar and pass trivially; the dispatch tests
// still verify the RP_SIMD resolution machinery.

#include "tensor/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace rp {
namespace {

/// Restores env+CPU dispatch resolution when a test exits, pass or fail.
struct SimdGuard {
  ~SimdGuard() { simd::reset(); }
};

/// Restores the default lane count when a test exits, pass or fail.
struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// ----- dispatch -----------------------------------------------------------

TEST(SimdDispatch, ForceAndResetPinTheIsa) {
  SimdGuard guard;
  simd::force(simd::Isa::kScalar);
  EXPECT_EQ(simd::active(), simd::Isa::kScalar);
  EXPECT_STREQ(simd::isa_name(simd::active()), "scalar");

  if (simd::avx2_kernels() != nullptr) {
    simd::force(simd::Isa::kAvx2);
    // On an AVX2 host this pins avx2; elsewhere force() falls back to scalar.
    EXPECT_TRUE(simd::active() == simd::Isa::kAvx2 || simd::active() == simd::Isa::kScalar);
  }
  simd::reset();
  // Whatever auto resolves to, the kernel table must be complete.
  const simd::Kernels& k = simd::kernels();
  EXPECT_NE(k.gemm_panel, nullptr);
  EXPECT_NE(k.relu, nullptr);
  EXPECT_NE(k.sgd_step, nullptr);
}

TEST(SimdDispatch, EveryCompiledTableIsComplete) {
  for (const simd::Kernels* t : {simd::avx2_kernels(), simd::neon_kernels()}) {
    if (t == nullptr) continue;
    EXPECT_NE(t->gemm_panel, nullptr);
    EXPECT_NE(t->csr_gemm, nullptr);
    EXPECT_NE(t->block_gemm, nullptr);
    EXPECT_NE(t->relu, nullptr);
    EXPECT_NE(t->relu_grad, nullptr);
    EXPECT_NE(t->add, nullptr);
    EXPECT_NE(t->mul, nullptr);
    EXPECT_NE(t->add_scalar, nullptr);
    EXPECT_NE(t->scale, nullptr);
    EXPECT_NE(t->div_scalar, nullptr);
    EXPECT_NE(t->bias_add, nullptr);
    EXPECT_NE(t->clamp, nullptr);
    EXPECT_NE(t->reduce_max, nullptr);
    EXPECT_NE(t->reduce_abs_max, nullptr);
    EXPECT_NE(t->sgd_step, nullptr);
  }
}

// ----- GEMM ----------------------------------------------------------------

/// Shapes chosen to hit every microkernel tier and boundary: n % 8 != 0
/// (scalar tail), n >= 64 (wide tier), k % KC != 0 (partial panels), plus
/// sizes crossing the NC packing path.
TEST(SimdGemm, ScalarVsSimdBitExact) {
  SimdGuard guard;
  const std::tuple<int, int, int> shapes[] = {
      {1, 1, 1},       // degenerate
      {5, 7, 9},       // everything smaller than one vector
      {17, 31, 257},   // n = 257: wide tiers + 1-column scalar tail
      {33, 300, 130},  // k % KC != 0, n % 8 != 0, packed-panel path
      {64, 64, 64},    // exact multiple of the 64-wide tier
  };
  for (const auto& [m, k, n] : shapes) {
    for (const float alpha : {1.0f, 2.5f}) {
      for (const float beta : {0.0f, 0.5f, 1.0f}) {
        Rng rng(static_cast<uint64_t>(m * 7919 + k * 131 + n * 17) + 100);
        Tensor a = Tensor::randn(Shape{m, k}, rng);
        // Pruned rows and scattered zeros exercise the zero-skip in every
        // tier, including tails.
        for (int64_t j = 0; j < k; ++j) a.at(m / 2, j) = 0.0f;
        for (int64_t i = 0; i < m; i += 3) a.at(i, k / 2) = 0.0f;
        Tensor b = Tensor::randn(Shape{k, n}, rng);
        Tensor c0 = Tensor::randn(Shape{m, n}, rng);
        Tensor c1 = c0;

        simd::force(simd::Isa::kScalar);
        gemm(a, b, c0, false, false, alpha, beta);
        simd::reset();
        gemm(a, b, c1, false, false, alpha, beta);

        ASSERT_TRUE(bits_equal(c0, c1)) << "m=" << m << " k=" << k << " n=" << n
                                        << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

/// The full cross: {scalar, dispatched} x {1 thread, 8 threads} must agree
/// bitwise on a ragged shape that takes the threaded blocked path.
TEST(SimdGemm, SimdAndThreadCountCommute) {
  SimdGuard guard;
  ThreadGuard tguard;
  Rng rng(42);
  Tensor a = Tensor::randn(Shape{130, 257}, rng);
  Tensor b = Tensor::randn(Shape{257, 131}, rng);

  std::vector<Tensor> results;
  for (const bool use_simd : {false, true}) {
    for (const int threads : {1, 8}) {
      if (use_simd) {
        simd::reset();
      } else {
        simd::force(simd::Isa::kScalar);
      }
      parallel::set_num_threads(threads);
      results.push_back(matmul(a, b));
    }
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_TRUE(bits_equal(results[0], results[i])) << "combo " << i;
  }
}

// ----- elementwise / reduction ops -----------------------------------------

/// Sizes around and below the vector widths so heads, bodies, and tails are
/// all covered; data includes -0.0f and NaN (relu/clamp must pass both
/// through with identical bits).
TEST(SimdVops, ScalarVsSimdBitExact) {
  SimdGuard guard;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{9}, int64_t{31},
                          int64_t{64}, int64_t{100}, int64_t{1000}}) {
    Rng rng(static_cast<uint64_t>(n) + 7);
    Tensor base = Tensor::randn(Shape{n}, rng);
    base[0] = -0.0f;
    if (n > 3) base[3] = nan;
    Tensor other = Tensor::randn(Shape{n}, rng);
    Tensor grad = Tensor::randn(Shape{n}, rng);

    auto run_pair = [&](auto&& fn) {
      simd::force(simd::Isa::kScalar);
      Tensor scalar_out = fn();
      simd::reset();
      Tensor simd_out = fn();
      ASSERT_TRUE(bits_equal(scalar_out, simd_out)) << "n=" << n;
    };

    run_pair([&] {
      Tensor t = base;
      simd::relu(t.data().data(), n);
      return t;
    });
    run_pair([&] {
      Tensor t = other;
      simd::relu_grad(base.data().data(), t.data().data(), n);
      return t;
    });
    run_pair([&] {
      Tensor t = base;
      simd::add(t.data().data(), other.data().data(), n);
      return t;
    });
    run_pair([&] {
      Tensor t = base;
      simd::mul(t.data().data(), other.data().data(), n);
      return t;
    });
    run_pair([&] {
      Tensor t = base;
      simd::add_scalar(t.data().data(), 0.7f, n);
      return t;
    });
    run_pair([&] {
      Tensor t = base;
      simd::scale(t.data().data(), 1.3f, n);
      return t;
    });
    run_pair([&] {
      Tensor t = base;
      simd::div_scalar(t.data().data(), 0.9f, n);
      return t;
    });
    run_pair([&] {
      Tensor t(Shape{n});
      simd::bias_add(t.data().data(), base.data().data(), -0.4f, n);
      return t;
    });
    run_pair([&] {
      Tensor t = base;
      simd::clamp(t.data().data(), -0.5f, 0.5f, n);
      return t;
    });
    run_pair([&] {
      Tensor p = base, vel = other;
      simd::sgd_step(p.data().data(), grad.data().data(), vel.data().data(), 0.1f, 0.9f, 5e-4f,
                     /*nesterov=*/true, n);
      Tensor both(Shape{2 * n});
      std::memcpy(both.data().data(), p.data().data(), static_cast<size_t>(n) * sizeof(float));
      std::memcpy(both.data().data() + n, vel.data().data(),
                  static_cast<size_t>(n) * sizeof(float));
      return both;
    });
  }
}

TEST(SimdVops, ReductionsMatchScalar) {
  SimdGuard guard;
  for (const int64_t n : {int64_t{1}, int64_t{5}, int64_t{8}, int64_t{13}, int64_t{200}}) {
    Rng rng(static_cast<uint64_t>(n) * 31 + 1);
    Tensor t = Tensor::randn(Shape{n}, rng);
    simd::force(simd::Isa::kScalar);
    const float smax = simd::reduce_max(t.data().data(), n);
    const float samax = simd::reduce_abs_max(t.data().data(), n);
    simd::reset();
    EXPECT_EQ(smax, simd::reduce_max(t.data().data(), n)) << "n=" << n;
    EXPECT_EQ(samax, simd::reduce_abs_max(t.data().data(), n)) << "n=" << n;
  }
}

// ----- conv forward/backward ------------------------------------------------

struct ConvRun {
  Tensor y, dx, dw, db;
};

/// Geometry of one conv bit-identity case.
struct ConvCase {
  int64_t in_c, out_c, k, stride, pad, h, w, batch;
};

/// Default case: oplane (15*15=225) misses the vector widths.
constexpr ConvCase kRaggedConv{3, 10, 3, 1, 1, 15, 15, 6};

/// One forward+backward pass of a fresh, identically-seeded Conv2d whose
/// weight has pruned (zeroed) filter rows.
ConvRun run_conv(int threads, const ConvCase& cc = kRaggedConv) {
  Rng rng(7);
  nn::Conv2d conv("c", cc.in_c, cc.out_c, cc.k, cc.stride, cc.pad, cc.h, cc.w,
                  /*use_bias=*/true, rng);
  // Prune two filters end to end: their dW rows stay exactly zero and the
  // GEMM zero-skip sees full zero rows.
  for (int64_t j = 0; j < conv.weight().value.size(1); ++j) {
    conv.weight().value.at(2, j) = 0.0f;
    conv.weight().value.at(7, j) = 0.0f;
  }
  const ConvGeom g{cc.in_c, cc.h, cc.w, cc.k, cc.stride, cc.pad};
  Rng drng(11);
  Tensor x = Tensor::randn(Shape{cc.batch, cc.in_c, cc.h, cc.w}, drng);
  Tensor dy = Tensor::randn(Shape{cc.batch, cc.out_c, g.out_h(), g.out_w()}, drng);

  parallel::set_num_threads(threads);
  ConvRun r;
  r.y = conv.forward(x, /*train=*/true);
  r.dx = conv.backward(dy);
  std::vector<nn::Parameter*> params;
  conv.collect_params(params);
  r.dw = params[0]->grad;
  r.db = params[1]->grad;
  return r;
}

TEST(SimdConv, ForwardBackwardScalarVsSimdBitExact) {
  SimdGuard guard;
  ThreadGuard tguard;
  simd::force(simd::Isa::kScalar);
  const ConvRun scalar = run_conv(1);
  simd::reset();
  const ConvRun simd_run = run_conv(1);
  EXPECT_TRUE(bits_equal(scalar.y, simd_run.y));
  EXPECT_TRUE(bits_equal(scalar.dx, simd_run.dx));
  EXPECT_TRUE(bits_equal(scalar.dw, simd_run.dw));
  EXPECT_TRUE(bits_equal(scalar.db, simd_run.db));
}

/// The parallel backward contract: per-sample partials folded in sample order
/// make gradients bit-identical for any RP_THREADS and any chunking. Covers
/// the ragged stride-1 case, resnet8's stride-2 3x3 and 1x1 stride-2
/// projection convs, and a batch of 37 that no per-lane grain divides
/// (grain 37 / (4 * 2) = 4 at two lanes leaves a one-sample tail chunk).
TEST(SimdConv, ParallelBackwardMatchesSerialBitExact) {
  ThreadGuard tguard;
  for (const ConvCase& cc : {kRaggedConv, ConvCase{8, 16, 3, 2, 1, 16, 16, 6},
                             ConvCase{8, 16, 1, 2, 0, 16, 16, 6},
                             ConvCase{8, 16, 3, 2, 1, 16, 16, 37}}) {
    SCOPED_TRACE("k=" + std::to_string(cc.k) + " stride=" + std::to_string(cc.stride) +
                 " batch=" + std::to_string(cc.batch));
    const ConvRun serial = run_conv(1, cc);
    for (const int threads : {2, 8}) {
      const ConvRun threaded = run_conv(threads, cc);
      EXPECT_TRUE(bits_equal(serial.y, threaded.y)) << "threads=" << threads;
      EXPECT_TRUE(bits_equal(serial.dx, threaded.dx)) << "threads=" << threads;
      EXPECT_TRUE(bits_equal(serial.dw, threaded.dw)) << "threads=" << threads;
      EXPECT_TRUE(bits_equal(serial.db, threaded.db)) << "threads=" << threads;
    }
  }
}

// ----- batch norm -------------------------------------------------------------

struct BnRun {
  Tensor y_train, dx, dgamma, dbeta, running_mean, running_var, y_eval;
};

/// Train forward + backward, then an eval forward from the updated running
/// statistics, of a fresh BatchNorm2d with non-trivial gamma/beta. The plane
/// (15x17 = 255) misses the vector widths, and at batch 64 a chunk covers
/// two channels, so the channel loop really splits across lanes.
BnRun run_bn(int threads, int64_t channels, int64_t batch) {
  nn::BatchNorm2d bn("bn", channels);
  Rng rng(static_cast<uint64_t>(channels * 100 + batch));
  for (int64_t c = 0; c < channels; ++c) {
    bn.gamma().value[c] = 0.5f + 0.1f * static_cast<float>(c % 7);
    bn.beta().value[c] = 0.05f * static_cast<float>(c % 5) - 0.1f;
  }
  const Shape shape{batch, channels, 15, 17};
  Tensor x = Tensor::randn(shape, rng, 2.0f);
  Tensor dy = Tensor::randn(shape, rng);
  Tensor x_eval = Tensor::randn(shape, rng);

  parallel::set_num_threads(threads);
  BnRun r;
  r.y_train = bn.forward(x, /*train=*/true);
  r.dx = bn.backward(dy);
  r.dgamma = bn.gamma().grad;
  r.dbeta = bn.beta().grad;
  r.running_mean = bn.running_mean();
  r.running_var = bn.running_var();
  r.y_eval = bn.forward(x_eval, /*train=*/false);
  return r;
}

/// BatchNorm is channel-parallel: every channel's double sums keep their
/// serial (i, j) order, so all outputs, gradients and running statistics are
/// bit-identical to a serial scalar run for any lane count and ISA.
TEST(BatchNorm2d, ParallelMatchesSerialBitExact) {
  SimdGuard guard;
  ThreadGuard tguard;
  for (const int64_t channels : {1, 3, 8, 13, 32}) {
    for (const int64_t batch : {1, 7, 64}) {
      simd::force(simd::Isa::kScalar);
      const BnRun serial = run_bn(1, channels, batch);
      for (const bool dispatched : {false, true}) {
        if (dispatched) {
          simd::reset();
        } else {
          simd::force(simd::Isa::kScalar);
        }
        for (const int threads : {1, 2, 8}) {
          SCOPED_TRACE("channels=" + std::to_string(channels) + " batch=" +
                       std::to_string(batch) + " threads=" + std::to_string(threads) +
                       (dispatched ? " simd=auto" : " simd=off"));
          const BnRun r = run_bn(threads, channels, batch);
          EXPECT_TRUE(bits_equal(serial.y_train, r.y_train));
          EXPECT_TRUE(bits_equal(serial.dx, r.dx));
          EXPECT_TRUE(bits_equal(serial.dgamma, r.dgamma));
          EXPECT_TRUE(bits_equal(serial.dbeta, r.dbeta));
          EXPECT_TRUE(bits_equal(serial.running_mean, r.running_mean));
          EXPECT_TRUE(bits_equal(serial.running_var, r.running_var));
          EXPECT_TRUE(bits_equal(serial.y_eval, r.y_eval));
        }
      }
    }
  }
}

/// Pruned filters must receive exactly-zero input gradient contributions:
/// with the whole filter row zero, dcols = Wᵀ dy gets no contribution from
/// that filter under the zero-skip, in every ISA.
TEST(SimdConv, PrunedFilterRowsStayZeroInWeightGrad) {
  SimdGuard guard;
  ThreadGuard tguard;
  const ConvRun r = run_conv(1);
  // dW rows of pruned filters are dy_row @ colsᵀ with dy rows generally
  // nonzero — so dW is NOT zero there; what must hold is that the forward
  // output of a pruned filter is exactly its bias plane.
  for (const int64_t f : {int64_t{2}, int64_t{7}}) {
    const float b = r.y.at(0, f, 0, 0);
    for (int64_t p = 0; p < 15 * 15; ++p) {
      ASSERT_EQ(r.y.data().data()[(0 * 10 + f) * 225 + p], b);
    }
  }
}

}  // namespace
}  // namespace rp
