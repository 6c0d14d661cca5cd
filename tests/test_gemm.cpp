#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace rp {
namespace {

/// Reference triple-loop GEMM for validation.
Tensor naive_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const int64_t m = ta ? a.size(1) : a.size(0);
  const int64_t k = ta ? a.size(0) : a.size(1);
  const int64_t n = tb ? b.size(0) : b.size(1);
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        s += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

using GemmParam = std::tuple<int, int, int, bool, bool>;

class GemmTest : public ::testing::TestWithParam<GemmParam> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  const auto [m, k, n, ta, tb] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 1000 + k * 100 + n * 10 + ta * 2 + tb));
  Tensor a = Tensor::randn(ta ? Shape{k, m} : Shape{m, k}, rng);
  Tensor b = Tensor::randn(tb ? Shape{n, k} : Shape{k, n}, rng);
  Tensor got = matmul(a, b, ta, tb);
  Tensor want = naive_matmul(a, b, ta, tb);
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-3f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmParam{1, 1, 1, false, false}, GemmParam{3, 4, 5, false, false},
                      GemmParam{3, 4, 5, true, false}, GemmParam{3, 4, 5, false, true},
                      GemmParam{3, 4, 5, true, true}, GemmParam{16, 32, 8, false, false},
                      GemmParam{7, 13, 7, true, true}, GemmParam{64, 27, 64, false, false},
                      GemmParam{1, 100, 1, false, true}));

TEST(Gemm, AlphaBetaSemantics) {
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{2, 3}, rng);
  Tensor b = Tensor::randn(Shape{3, 2}, rng);
  Tensor c = Tensor::full(Shape{2, 2}, 1.0f);
  Tensor ref = naive_matmul(a, b, false, false);
  gemm(a, b, c, false, false, 2.0f, 3.0f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(c[i], 2.0f * ref[i] + 3.0f, 1e-4f);
}

TEST(Gemm, BetaOneAccumulates) {
  Rng rng(2);
  Tensor a = Tensor::randn(Shape{2, 2}, rng);
  Tensor b = Tensor::randn(Shape{2, 2}, rng);
  Tensor c(Shape{2, 2});
  gemm(a, b, c);
  Tensor once = c;
  gemm(a, b, c, false, false, 1.0f, 1.0f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(c[i], 2.0f * once[i], 1e-4f);
}

TEST(Gemm, IncompatibleShapesThrow) {
  Tensor a(Shape{2, 3}), b(Shape{4, 5}), c(Shape{2, 5});
  EXPECT_THROW(gemm(a, b, c), std::invalid_argument);
  Tensor b2(Shape{3, 5}), c_bad(Shape{3, 5});
  EXPECT_THROW(gemm(a, b2, c_bad), std::invalid_argument);
}

TEST(Gemm, NonMatrixThrows) {
  Tensor a(Shape{2, 3, 4}), b(Shape{3, 2}), c(Shape{2, 2});
  EXPECT_THROW(gemm(a, b, c), std::invalid_argument);
}

// ----- thread-count determinism ---------------------------------------------------

/// Restores the default lane count when a test exits, pass or fail.
struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

/// The determinism contract (DESIGN.md "Threading model"): parallel GEMM must
/// be bit-identical to serial for every transpose combination, including
/// ragged sizes that do not divide the KC/NC block sizes and shapes large
/// enough to cross the parallel-dispatch threshold.
TEST(GemmDeterminism, ParallelMatchesSerialBitExact) {
  ThreadGuard guard;
  const std::tuple<int, int, int> shapes[] = {
      {1, 1, 1},        // degenerate
      {3, 5, 2},        // tiny, below the parallel threshold
      {33, 129, 65},    // ragged, spans one KC/NC block boundary
      {130, 257, 131},  // ragged, multiple K blocks
      {96, 300, 260},   // multiple N panels (packed path)
  };
  for (const auto& [m, k, n] : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        Rng rng(static_cast<uint64_t>(m * 7919 + k * 131 + n * 17 + ta * 2 + tb));
        Tensor a = Tensor::randn(ta ? Shape{k, m} : Shape{m, k}, rng);
        Tensor b = Tensor::randn(tb ? Shape{n, k} : Shape{k, n}, rng);

        parallel::set_num_threads(1);
        const Tensor serial = matmul(a, b, ta, tb);
        parallel::set_num_threads(8);
        const Tensor threaded = matmul(a, b, ta, tb);

        ASSERT_EQ(serial.shape(), threaded.shape());
        ASSERT_EQ(std::memcmp(serial.data().data(), threaded.data().data(),
                              static_cast<size_t>(serial.numel()) * sizeof(float)),
                  0)
            << "m=" << m << " k=" << k << " n=" << n << " ta=" << ta << " tb=" << tb;
      }
    }
  }
}

/// The beta pre-pass is chunked across lanes too; scaling must stay
/// bit-identical for accumulating (beta=1), scaling, and zeroing calls.
TEST(GemmDeterminism, BetaPathsMatchSerialBitExact) {
  ThreadGuard guard;
  Rng rng(99);
  Tensor a = Tensor::randn(Shape{130, 70}, rng);
  Tensor b = Tensor::randn(Shape{70, 190}, rng);
  for (const float beta : {0.0f, 0.5f, 1.0f}) {
    Tensor c1 = Tensor::full(Shape{130, 190}, 0.25f);
    Tensor c8 = c1;
    parallel::set_num_threads(1);
    gemm(a, b, c1, false, false, 1.5f, beta);
    parallel::set_num_threads(8);
    gemm(a, b, c8, false, false, 1.5f, beta);
    ASSERT_EQ(std::memcmp(c1.data().data(), c8.data().data(),
                          static_cast<size_t>(c1.numel()) * sizeof(float)),
              0)
        << "beta=" << beta;
  }
}

/// k == 0 contributes nothing but must still apply the beta scale to C
/// (BLAS semantics), and empty C must stay a no-op.
TEST(Gemm, EmptyShapesKeepBetaSemantics) {
  Tensor a(Shape{2, 0}), b(Shape{0, 3});
  Tensor c = Tensor::full(Shape{2, 3}, 2.0f);
  gemm(a, b, c, false, false, 1.0f, 0.5f);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 1.0f);

  Tensor a0(Shape{0, 4}), b0(Shape{4, 3}), c0(Shape{0, 3});
  EXPECT_NO_THROW(gemm(a0, b0, c0));
}

// ----- im2col / col2im ----------------------------------------------------------

TEST(Im2col, IdentityKernelGeometry) {
  // 1x1 kernel, stride 1, no padding: cols == flattened image.
  ConvGeom g{2, 3, 3, 1, 1, 0};
  Rng rng(3);
  Tensor img = Tensor::randn(Shape{2, 3, 3}, rng);
  Tensor cols;
  im2col(img, g, cols);
  ASSERT_EQ(cols.shape(), (Shape{2, 9}));
  for (int64_t i = 0; i < img.numel(); ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2col, ZeroPaddingFillsBorders) {
  ConvGeom g{1, 2, 2, 3, 1, 1};
  Tensor img = Tensor::ones(Shape{1, 2, 2});
  Tensor cols;
  im2col(img, g, cols);
  ASSERT_EQ(cols.shape(), (Shape{9, 4}));
  // Kernel offset (0,0) reads the pixel up-left of each output: for output
  // (0,0) that's padding -> 0.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  // Kernel center (1,1) reads the pixel itself -> 1.
  EXPECT_EQ(cols.at(4, 0), 1.0f);
  EXPECT_EQ(cols.at(4, 3), 1.0f);
}

TEST(Im2col, StrideSkipsPositions) {
  ConvGeom g{1, 4, 4, 1, 2, 0};
  Tensor img = Tensor::arange(16).reshape(Shape{1, 4, 4});
  Tensor cols;
  im2col(img, g, cols);
  ASSERT_EQ(cols.shape(), (Shape{1, 4}));
  EXPECT_EQ(cols[0], 0.0f);
  EXPECT_EQ(cols[1], 2.0f);
  EXPECT_EQ(cols[2], 8.0f);
  EXPECT_EQ(cols[3], 10.0f);
}

TEST(Im2col, GeometryMismatchThrows) {
  ConvGeom g{1, 4, 4, 3, 1, 1};
  Tensor img(Shape{2, 4, 4});
  Tensor cols;
  EXPECT_THROW(im2col(img, g, cols), std::invalid_argument);
}

/// Position-by-position im2col, the form the span lowering replaced: the
/// reference the exact-lowering sweep compares against.
Tensor naive_im2col(const Tensor& image, const ConvGeom& g) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  Tensor cols(Shape{g.patch(), oh * ow});
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    for (int64_t ki = 0; ki < g.k; ++ki) {
      for (int64_t kj = 0; kj < g.k; ++kj, ++row) {
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t sy = y * g.stride + ki - g.pad;
            const int64_t sx = x * g.stride + kj - g.pad;
            const bool inside = sy >= 0 && sy < g.in_h && sx >= 0 && sx < g.in_w;
            cols.at(row, y * ow + x) = inside ? image.at(c, sy, sx) : 0.0f;
          }
        }
      }
    }
  }
  return cols;
}

/// Position-by-position col2im: each pixel accumulates its contributions in
/// (c, ki, kj, y, x) order, the order the span form must keep.
Tensor naive_col2im(const Tensor& cols, const ConvGeom& g) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  Tensor image(Shape{g.in_c, g.in_h, g.in_w});
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    for (int64_t ki = 0; ki < g.k; ++ki) {
      for (int64_t kj = 0; kj < g.k; ++kj, ++row) {
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t sy = y * g.stride + ki - g.pad;
            const int64_t sx = x * g.stride + kj - g.pad;
            if (sy >= 0 && sy < g.in_h && sx >= 0 && sx < g.in_w) {
              image.at(c, sy, sx) += cols.at(row, y * ow + x);
            }
          }
        }
      }
    }
  }
  return image;
}

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Every geometry of the sweep: k in {1, 3, 5}, stride in {1, 2}, pad in
/// {0, 1, 2}, odd, non-square and "same" planes, in_c in {1, 3}. Kernels
/// wider than the padded plane are skipped (no valid convolution).
std::vector<ConvGeom> lowering_sweep() {
  std::vector<ConvGeom> out;
  for (const int64_t in_c : {1, 3}) {
    for (const auto& [h, w] : {std::pair<int64_t, int64_t>{5, 4}, {7, 7}, {4, 6}, {16, 16}}) {
      for (const int64_t k : {1, 3, 5}) {
        for (const int64_t stride : {1, 2}) {
          for (const int64_t pad : {0, 1, 2}) {
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            out.push_back(ConvGeom{in_c, h, w, k, stride, pad});
          }
        }
      }
    }
  }
  return out;
}

std::string describe(const ConvGeom& g) {
  return "in_c=" + std::to_string(g.in_c) + " plane=" + std::to_string(g.in_h) + "x" +
         std::to_string(g.in_w) + " k=" + std::to_string(g.k) +
         " stride=" + std::to_string(g.stride) + " pad=" + std::to_string(g.pad);
}

TEST(Im2col, MatchesNaiveLoweringBitExactOverGeometrySweep) {
  for (const ConvGeom& g : lowering_sweep()) {
    SCOPED_TRACE(describe(g));
    Rng rng(static_cast<uint64_t>(g.in_h * 131 + g.in_w * 17 + g.k * 5 + g.stride * 3 + g.pad));
    const Tensor img = Tensor::randn(Shape{g.in_c, g.in_h, g.in_w}, rng);
    // A stale, wrongly-filled cols buffer of the right shape must be fully
    // overwritten — padding included.
    Tensor cols = Tensor::full(Shape{g.patch(), g.out_h() * g.out_w()}, 7.0f);
    im2col(img, g, cols);
    EXPECT_TRUE(bits_equal(cols, naive_im2col(img, g)));
  }
}

TEST(Col2im, MatchesNaiveLoweringBitExactOverGeometrySweep) {
  for (const ConvGeom& g : lowering_sweep()) {
    SCOPED_TRACE(describe(g));
    Rng rng(static_cast<uint64_t>(g.in_h * 37 + g.in_w * 11 + g.k * 7 + g.stride * 2 + g.pad));
    Tensor cols = Tensor::randn(Shape{g.patch(), g.out_h() * g.out_w()}, rng);
    // Signed zeros exercise the first add into the zeroed image.
    for (int64_t i = 0; i < cols.numel(); i += 5) cols[i] = -0.0f;
    // A reused image buffer of the right shape is re-zeroed before the adds.
    Tensor image = Tensor::full(Shape{g.in_c, g.in_h, g.in_w}, 3.0f);
    col2im(cols, g, image);
    EXPECT_TRUE(bits_equal(image, naive_col2im(cols, g)));
  }
}

/// col2im must be the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
TEST(Col2im, IsAdjointOfIm2col) {
  ConvGeom g{2, 5, 4, 3, 2, 1};
  Rng rng(4);
  Tensor x = Tensor::randn(Shape{2, 5, 4}, rng);
  Tensor cols;
  im2col(x, g, cols);
  Tensor y = Tensor::randn(cols.shape(), rng);
  Tensor back;
  col2im(y, g, back);

  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cols.numel(); ++i) lhs += static_cast<double>(cols[i]) * y[i];
  for (int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(ConvGeom, OutputDims) {
  ConvGeom g{3, 16, 16, 3, 2, 1};
  EXPECT_EQ(g.out_h(), 8);
  EXPECT_EQ(g.out_w(), 8);
  EXPECT_EQ(g.patch(), 27);
  ConvGeom same{3, 16, 16, 3, 1, 1};
  EXPECT_EQ(same.out_h(), 16);
  ConvGeom valid{1, 5, 5, 3, 1, 0};
  EXPECT_EQ(valid.out_h(), 3);
}

}  // namespace
}  // namespace rp
