// Sparse execution engine suite (DESIGN.md §6 "Sparse execution"). The
// contract under test: the compiled CSR layout reconstructs the dense
// weight bit-for-bit, the sparse×dense kernel is memcmp-identical to the
// dense reference across the full RP_SPARSE × RP_SIMD × RP_THREADS matrix,
// and the obs counters observe the sparse path without perturbing a single
// bit.

#include "tensor/sparse.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/pruner.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"
#include "obs/obs.hpp"
#include "tensor/gemm.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rp {
namespace {

/// Restores RP_SPARSE env resolution when a test exits, pass or fail.
struct SparseGuard {
  ~SparseGuard() { sparse::reset(); }
};

/// Restores RP_SIMD env+CPU dispatch resolution when a test exits.
struct SimdGuard {
  ~SimdGuard() { simd::reset(); }
};

/// Restores the default lane count when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Random matrix pruned unstructured to roughly `density`, with row
/// `rows / 2` fully zeroed so both layouts handle an empty row.
Tensor make_pruned(int64_t rows, int64_t cols, double density, uint64_t seed) {
  Rng rng(seed);
  Tensor w = Tensor::randn(Shape{rows, cols}, rng);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (rng.uniform() >= density) w.at(i, j) = 0.0f;
    }
  }
  if (rows > 2) {
    for (int64_t j = 0; j < cols; ++j) w.at(rows / 2, j) = 0.0f;
  }
  return w;
}

const double kDensities[] = {1.0, 0.5, 0.2, 0.1, 0.05, 0.0};
const std::pair<int64_t, int64_t> kShapes[] = {
    {1, 1},    // degenerate
    {7, 13},   // odd in both dims
    {10, 40},  // wide
    {64, 64},  // square
};

// ---------------------------------------------------------------------------
// Mode resolution

TEST(SparseMode, ForceAndResetPinTheMode) {
  SparseGuard guard;
  sparse::force(sparse::Mode::kOff);
  EXPECT_EQ(sparse::mode(), sparse::Mode::kOff);
  sparse::force(sparse::Mode::kCsr);
  EXPECT_EQ(sparse::mode(), sparse::Mode::kCsr);
  sparse::reset();
  // Unset RP_SPARSE resolves to auto in the test environment unless the
  // outer harness overrides it; either way the resolved value is a valid
  // mode with a printable name.
  EXPECT_STREQ(sparse::mode_name(sparse::Mode::kOff), "off");
  EXPECT_STREQ(sparse::mode_name(sparse::Mode::kCsr), "csr");
  EXPECT_STREQ(sparse::mode_name(sparse::Mode::kAuto), "auto");
  EXPECT_STREQ(sparse::layout_name(sparse::Layout::kDense), "dense");
  EXPECT_STREQ(sparse::layout_name(sparse::Layout::kCsr), "csr");
}

// ---------------------------------------------------------------------------
// analyze(): layout choice from the measured pattern

TEST(SparseAnalyze, AutoKeepsDenseAtHighDensity) {
  const Tensor w = make_pruned(32, 32, 1.0, 1);
  const auto plan = sparse::analyze(w, sparse::Mode::kAuto);
  EXPECT_EQ(plan.layout, sparse::Layout::kDense);
  EXPECT_DOUBLE_EQ(plan.density, static_cast<double>(plan.nnz) / (32.0 * 32.0));
  EXPECT_GE(plan.density, sparse::kDenseDensityThreshold);
}

TEST(SparseAnalyze, AutoPicksCsrForUnstructuredLowDensity) {
  // Weight thresholding (WT/SiPP) leaves scattered zeros.
  const Tensor w = make_pruned(64, 64, 0.1, 2);
  const auto plan = sparse::analyze(w, sparse::Mode::kAuto);
  EXPECT_EQ(plan.layout, sparse::Layout::kCsr);
  EXPECT_LT(plan.density, sparse::kDenseDensityThreshold);
}

TEST(SparseAnalyze, AutoPicksCsrForFilterPrunedRows) {
  // Filter pruning (FT/PFP) zeroes whole output rows: keep every third row
  // dense, zero the rest — density 22/64, below the dense threshold.
  ThreadGuard thread_guard;
  Rng rng(3);
  Tensor w = Tensor::randn(Shape{64, 48}, rng);
  for (int64_t i = 0; i < 64; ++i) {
    if (i % 3 == 0) continue;
    for (int64_t j = 0; j < 48; ++j) w.at(i, j) = 0.0f;
  }
  const auto plan = sparse::analyze(w, sparse::Mode::kAuto);
  EXPECT_EQ(plan.layout, sparse::Layout::kCsr);
  EXPECT_EQ(plan.nnz, 22 * 48);
  EXPECT_LT(plan.density, sparse::kDenseDensityThreshold);

  const auto sw = sparse::compile(w, sparse::Mode::kAuto);
  ASSERT_EQ(sw.layout, sparse::Layout::kCsr);
  const Tensor b = Tensor::randn(Shape{48, 37}, rng);
  Tensor ref(Shape{64, 37});
  gemm(w, b, ref);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::set_num_threads(threads);
    Tensor c(Shape{64, 37});
    sparse::matmul_into(sw, b, c);
    EXPECT_TRUE(bits_equal(c, ref));
  }
}

TEST(SparseAnalyze, ForcedModesOverrideTheMeasurement) {
  const Tensor w = make_pruned(16, 16, 1.0, 4);
  EXPECT_EQ(sparse::analyze(w, sparse::Mode::kOff).layout, sparse::Layout::kDense);
  EXPECT_EQ(sparse::analyze(w, sparse::Mode::kCsr).layout, sparse::Layout::kCsr);
}

// ---------------------------------------------------------------------------
// compile() / to_dense(): exact round-trip in both layouts

TEST(SparseRoundTrip, EveryLayoutReconstructsEveryDensityBitExact) {
  uint64_t seed = 10;
  for (const auto& [rows, cols] : kShapes) {
    for (const double density : kDensities) {
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) + " @ " +
                   std::to_string(density));
      const Tensor w = make_pruned(rows, cols, density, seed++);
      for (const auto mode : {sparse::Mode::kOff, sparse::Mode::kCsr, sparse::Mode::kAuto}) {
        SCOPED_TRACE(sparse::mode_name(mode));
        const auto sw = sparse::compile(w, mode);
        EXPECT_TRUE(bits_equal(sw.to_dense(), w));
        EXPECT_EQ(sw.rows, rows);
        EXPECT_EQ(sw.cols, cols);
        EXPECT_GT(sw.bytes(), 0);
      }
    }
  }
}

TEST(SparseRoundTrip, AllZeroMatrixCompilesToEmptySparseForms) {
  Tensor w = Tensor::zeros(Shape{12, 20});
  for (const auto mode : {sparse::Mode::kCsr, sparse::Mode::kAuto}) {
    SCOPED_TRACE(sparse::mode_name(mode));
    const auto sw = sparse::compile(w, mode);
    EXPECT_EQ(sw.nnz, 0);
    EXPECT_TRUE(bits_equal(sw.to_dense(), w));
  }
}

// ---------------------------------------------------------------------------
// Kernels: memcmp-identical to the dense reference

TEST(SparseMatmul, MatchesDenseGemmBitExactAcrossLayoutsAndThreads) {
  SimdGuard simd_guard;
  ThreadGuard thread_guard;
  uint64_t seed = 40;
  for (const auto& [rows, cols] : kShapes) {
    for (const double density : kDensities) {
      const Tensor w = make_pruned(rows, cols, density, seed++);
      const int64_t n = 33;  // misses every vector width
      Rng rng(seed++);
      const Tensor b = Tensor::randn(Shape{cols, n}, rng);
      Tensor ref(Shape{rows, n});
      gemm(w, b, ref);
      for (const auto mode : {sparse::Mode::kCsr, sparse::Mode::kAuto}) {
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(std::string(sparse::mode_name(mode)) + " threads=" +
                       std::to_string(threads) + " " + std::to_string(rows) + "x" +
                       std::to_string(cols) + " @ " + std::to_string(density));
          parallel::set_num_threads(threads);
          const auto sw = sparse::compile(w, mode);
          Tensor c(Shape{rows, n});
          sparse::matmul_into(sw, b, c);
          EXPECT_TRUE(bits_equal(c, ref));
        }
      }
    }
  }
}

TEST(SparseMatmul, RhsOrientationMatchesLinearReferenceBitExact) {
  SimdGuard simd_guard;
  ThreadGuard thread_guard;
  const Tensor w = make_pruned(24, 40, 0.1, 77);  // Linear weight [out, in]
  Rng rng(78);
  const Tensor x = Tensor::randn(Shape{9, 40}, rng);  // batch of 9
  Tensor ref(Shape{9, 24});
  gemm(x, w, ref, /*trans_a=*/false, /*trans_b=*/true);
  for (const auto mode : {sparse::Mode::kCsr, sparse::Mode::kAuto}) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(std::string(sparse::mode_name(mode)) + " threads=" + std::to_string(threads));
      parallel::set_num_threads(threads);
      const auto sw = sparse::compile(w, mode);
      Tensor y(Shape{9, 24});
      sparse::rhs_matmul_into(sw, x, y);
      EXPECT_TRUE(bits_equal(y, ref));
    }
  }
}

TEST(SparseMatmul, ScalarVsDispatchedKernelsBitExact) {
  SimdGuard simd_guard;
  const Tensor w = make_pruned(33, 65, 0.2, 90);  // odd rows and cols
  Rng rng(91);
  const Tensor b = Tensor::randn(Shape{65, 57}, rng);
  const auto sw = sparse::compile(w, sparse::Mode::kCsr);
  simd::force(simd::Isa::kScalar);
  Tensor c_scalar(Shape{33, 57});
  sparse::matmul_into(sw, b, c_scalar);
  simd::reset();
  Tensor c_auto(Shape{33, 57});
  sparse::matmul_into(sw, b, c_auto);
  EXPECT_TRUE(bits_equal(c_scalar, c_auto));
}

// ---------------------------------------------------------------------------
// End-to-end: predict is memcmp-identical across the whole matrix, and the
// obs counters see the sparse path without touching the results.

TEST(SparsePredict, MemcmpIdenticalAcrossSparseSimdThreadMatrix) {
  SparseGuard sparse_guard;
  SimdGuard simd_guard;
  ThreadGuard thread_guard;
  const auto task = nn::synth_cifar_task();
  auto net = nn::build_network("resnet8", task, 5);
  core::prune_to_ratio(*net, core::PruneMethod::WT, 0.9);
  net->enforce_masks();
  Rng rng(6);
  const Tensor images = Tensor::rand(Shape{6, task.in_c, task.in_h, task.in_w}, rng);

  sparse::force(sparse::Mode::kOff);
  parallel::set_num_threads(1);
  const Tensor ref = nn::predict(*net, images, 4);

  for (const auto mode : {sparse::Mode::kCsr, sparse::Mode::kAuto}) {
    for (const bool scalar : {true, false}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string("RP_SPARSE=") + sparse::mode_name(mode) +
                     " RP_SIMD=" + (scalar ? "off" : "auto") +
                     " RP_THREADS=" + std::to_string(threads));
        sparse::force(mode);
        if (scalar) {
          simd::force(simd::Isa::kScalar);
        } else {
          simd::reset();
        }
        parallel::set_num_threads(threads);
        EXPECT_TRUE(bits_equal(nn::predict(*net, images, 4), ref));
      }
    }
  }
}

TEST(SparsePredict, ObsCountersObserveTheSparsePathResultNeutrally) {
  SparseGuard sparse_guard;
  ThreadGuard thread_guard;
  parallel::set_num_threads(1);
  const auto task = nn::synth_cifar_task();
  auto net = nn::build_network("resnet8", task, 7);
  core::prune_to_ratio(*net, core::PruneMethod::WT, 0.9);
  net->enforce_masks();
  Rng rng(8);
  const Tensor images = Tensor::rand(Shape{4, task.in_c, task.in_h, task.in_w}, rng);

  sparse::force(sparse::Mode::kOff);
  const Tensor ref = nn::predict(*net, images, 4);

  obs::Config cfg;
  cfg.metrics = true;
  obs::configure(cfg);
  sparse::force(sparse::Mode::kCsr);
  const Tensor sparse_out = nn::predict(*net, images, 4);
  EXPECT_GT(obs::counter_value(obs::Counter::kGemmSparseCalls), 0);
  EXPECT_GT(obs::counter_value(obs::Counter::kSparseNnz), 0);
  EXPECT_GT(obs::counter_value(obs::Counter::kSparseBytesSaved), 0);
  obs::configure({});

  // Observability never affects results: counted run == uncounted reference.
  EXPECT_TRUE(bits_equal(sparse_out, ref));
}

TEST(SparsePredict, SparseScopeDiscardsCompiledFormsAfterEval) {
  // Pruning more after an evaluate must be reflected by the next evaluate:
  // the compiled forms may not outlive the call that compiled them.
  SparseGuard sparse_guard;
  ThreadGuard thread_guard;
  parallel::set_num_threads(1);
  const auto task = nn::synth_cifar_task();
  auto net = nn::build_network("resnet8", task, 9);
  Rng rng(10);
  const Tensor images = Tensor::rand(Shape{4, task.in_c, task.in_h, task.in_w}, rng);

  sparse::force(sparse::Mode::kAuto);
  const Tensor before_sparse = nn::predict(*net, images, 4);

  core::prune_to_ratio(*net, core::PruneMethod::WT, 0.95);
  net->enforce_masks();
  const Tensor after_sparse = nn::predict(*net, images, 4);
  sparse::force(sparse::Mode::kOff);
  const Tensor after_dense = nn::predict(*net, images, 4);

  // The post-prune sparse run tracked the new weights (== dense), not the
  // stale pre-prune compilation.
  EXPECT_TRUE(bits_equal(after_sparse, after_dense));
  EXPECT_FALSE(bits_equal(before_sparse, after_sparse));
}

}  // namespace
}  // namespace rp
