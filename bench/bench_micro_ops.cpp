// Micro-benchmarks (google-benchmark) for the substrate operations that
// dominate experiment wall-clock, plus the DESIGN.md ablations:
//   - GEMM / im2col / col2im / convolution forward+backward / batch-norm
//     throughput
//   - masked-vs-dense cost (the masks-not-surgery design decision)
//   - pruning-score computation per method (sensitivity ablation)
//   - corruption throughput per family
//   - one BackSelect greedy step

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/backselect.hpp"
#include "core/pruner.hpp"
#include "corrupt/corruption.hpp"
#include "data/synth.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "tensor/arena.hpp"
#include "tensor/gemm.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse.hpp"

// ---------------------------------------------------------------------------
// Heap-allocation census for the BM_*Allocs benches: every operator new in
// this binary bumps a counter. The replacement exists in the bench binary
// only — the library is untouched — and delegates to malloc/free, so the
// arena's own chunk mmap/malloc traffic (which happens once at warmup) is
// deliberately NOT counted: the benches measure per-step operator-new
// traffic, the thing the memory-discipline engine promises to eliminate.

// noinline: keeps the census bodies out of callers, which would otherwise
// trip GCC's -Wmismatched-new-delete (it sees the inlined free() paired with
// an operator-new result and cannot prove both sides route through malloc).
#define RP_ALLOC_HOOK __attribute__((noinline))

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

RP_ALLOC_HOOK void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
RP_ALLOC_HOOK void* operator new[](std::size_t size) { return ::operator new(size); }
RP_ALLOC_HOOK void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
RP_ALLOC_HOOK void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
RP_ALLOC_HOOK void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
RP_ALLOC_HOOK void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
RP_ALLOC_HOOK void operator delete(void* p) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete[](void* p) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete(void* p, std::size_t) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

using namespace rp;

namespace {

/// Reports achieved arithmetic throughput; with kIs1000 the console shows
/// G/s and the JSON carries the raw FLOP/s number for cross-PR tracking.
void report_flops(benchmark::State& state, double flops_per_iter) {
  state.counters["FLOPS"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * flops_per_iter, benchmark::Counter::kIsRate,
      benchmark::Counter::kIs1000);
}

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  report_flops(state, 2.0 * static_cast<double>(n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

/// The acceptance benchmark for the threaded backend: 512^3 GEMM at an
/// explicit lane count (1/2/4/8), bypassing RP_THREADS for the run.
void BM_GemmThreads(benchmark::State& state) {
  const int64_t n = 512;
  const int threads = static_cast<int>(state.range(0));
  parallel::set_num_threads(threads);
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  parallel::set_num_threads(0);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  report_flops(state, 2.0 * static_cast<double>(n * n * n));
  state.SetLabel("512x512x512 @ " + std::to_string(threads) + " threads");
}
// UseRealTime: rates must come from wall-clock, not the main thread's CPU
// time — otherwise multi-lane runs report inflated throughput.
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// The acceptance benchmark for the SIMD microkernel: 512^3 GEMM at one
/// thread, forced-scalar vs dispatched ISA. The two variants are bit-identical
/// in output (tests/test_simd.cpp); this measures what the dispatch buys.
void BM_GemmSimd(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  const int64_t n = 512;
  parallel::set_num_threads(1);
  if (dispatched) {
    simd::reset();
  } else {
    simd::force(simd::Isa::kScalar);
  }
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetLabel(std::string("512x512x512 @ 1 thread, ") + simd::isa_name(simd::active()));
  simd::reset();
  parallel::set_num_threads(0);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  report_flops(state, 2.0 * static_cast<double>(n * n * n));
}
BENCHMARK(BM_GemmSimd)->Arg(0)->Arg(1)->UseRealTime();

/// Conv forward at one thread, forced-scalar vs dispatched ISA. FLOPs count
/// the im2col GEMM only (2 * out_c * patch * out_hw per sample).
void BM_ConvForwardSimd(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  parallel::set_num_threads(1);
  if (dispatched) {
    simd::reset();
  } else {
    simd::force(simd::Isa::kScalar);
  }
  Rng rng(3);
  nn::Conv2d conv("c", 8, 16, 3, 1, 1, 16, 16, false, rng);
  Tensor x = Tensor::randn(Shape{8, 8, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetLabel(std::string("n8 c8->16 k3 16x16 @ 1 thread, ") +
                 simd::isa_name(simd::active()));
  simd::reset();
  parallel::set_num_threads(0);
  const double flops = 2.0 * 8 * 16 * (8 * 9) * (16 * 16);
  report_flops(state, flops);
}
BENCHMARK(BM_ConvForwardSimd)->Arg(0)->Arg(1)->UseRealTime();

/// Conv backward at one thread, forced-scalar vs dispatched ISA. FLOPs count
/// the dW and dx GEMMs (2x the forward GEMM work).
void BM_ConvBackwardSimd(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  parallel::set_num_threads(1);
  if (dispatched) {
    simd::reset();
  } else {
    simd::force(simd::Isa::kScalar);
  }
  Rng rng(4);
  nn::Conv2d conv("c", 8, 16, 3, 1, 1, 16, 16, false, rng);
  Tensor x = Tensor::randn(Shape{8, 8, 16, 16}, rng);
  Tensor y = conv.forward(x, true);
  Tensor dy = Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    Tensor dx = conv.backward(dy);
    benchmark::DoNotOptimize(dx.data().data());
  }
  state.SetLabel(std::string("n8 c8->16 k3 16x16 @ 1 thread, ") +
                 simd::isa_name(simd::active()));
  simd::reset();
  parallel::set_num_threads(0);
  const double flops = 2.0 * 2.0 * 8 * 16 * (8 * 9) * (16 * 16);
  report_flops(state, flops);
}
BENCHMARK(BM_ConvBackwardSimd)->Arg(0)->Arg(1)->UseRealTime();

/// The acceptance benchmark for the compile-to-sparse engine: n³ GEMM at one
/// thread with the A operand unstructured-pruned to a target density
/// (per-mille in arg 1), executed dense (arg 2 = 0) or through a compiled
/// CSR (1) / 4×8 block (2) layout. All three variants are bit-identical in
/// output (tests/test_sparse.cpp); the dense rows at each density are the
/// baseline of the committed speedup-vs-density curves. Acceptance: ≥3×
/// over dense at ≤10% density.
void BM_SparseGemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  const double density = static_cast<double>(state.range(1)) / 1000.0;
  const int64_t layout = state.range(2);
  parallel::set_num_threads(1);
  Rng rng(11);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  if (density < 1.0) {
    for (float& v : a.data()) {
      if (rng.uniform() >= static_cast<float>(density)) v = 0.0f;
    }
  }
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  if (layout == 0) {
    for (auto _ : state) {
      gemm(a, b, c);
      benchmark::DoNotOptimize(c.data().data());
    }
  } else {
    const auto w =
        sparse::compile(a, layout == 1 ? sparse::Mode::kCsr : sparse::Mode::kBlock);
    for (auto _ : state) {
      sparse::matmul_into(w, b, c);
      benchmark::DoNotOptimize(c.data().data());
    }
  }
  parallel::set_num_threads(0);
  // Dense-equivalent FLOPs on purpose: the curves compare layouts at equal
  // problem size, so speedup reads directly off the FLOPS ratio.
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  report_flops(state, 2.0 * static_cast<double>(n * n * n));
  const char* kLayoutNames[] = {"dense", "csr", "block"};
  state.SetLabel(std::to_string(n) + "^3 @ 1 thread, density " + std::to_string(density) +
                 ", " + kLayoutNames[layout]);
}
BENCHMARK(BM_SparseGemm)
    ->ArgsProduct({{128, 256, 512}, {1000, 500, 200, 100, 50}, {0, 1, 2}})
    ->UseRealTime();

/// The acceptance benchmark for the observability layer: counter increments
/// and span construction with obs disabled must collapse to one predicted
/// branch each — this pins that cost in the committed record. Arg(1)
/// measures the enabled path for contrast (metrics only, no trace buffer).
void BM_ObsDisabled(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  obs::Config cfg;
  cfg.metrics = on;
  obs::configure(cfg);
  for (auto _ : state) {
    obs::count(obs::Counter::kGemmCalls);
    benchmark::DoNotOptimize(obs::enabled());
  }
  state.SetLabel(on ? "counters enabled" : "counters disabled");
  obs::init_from_env();
}
BENCHMARK(BM_ObsDisabled)->Arg(0)->Arg(1);

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::configure(obs::Config{});
  for (auto _ : state) {
    const obs::Span span("bench.noop");
    benchmark::DoNotOptimize(obs::enabled());
  }
  obs::init_from_env();
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_Im2col(benchmark::State& state) {
  ConvGeom g{16, 16, 16, 3, 1, 1};
  Rng rng(2);
  Tensor img = Tensor::randn(Shape{16, 16, 16}, rng);
  Tensor cols;
  for (auto _ : state) {
    im2col(img, g, cols);
    benchmark::DoNotOptimize(cols.data().data());
  }
}
BENCHMARK(BM_Im2col);

void BM_Col2im(benchmark::State& state) {
  ConvGeom g{16, 16, 16, 3, 1, 1};
  Rng rng(2);
  Tensor cols = Tensor::randn(Shape{g.patch(), g.out_h() * g.out_w()}, rng);
  Tensor img;
  for (auto _ : state) {
    col2im(cols, g, img);
    benchmark::DoNotOptimize(img.data().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Col2im);

void BM_ConvForward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv("c", 8, 16, 3, 1, 1, 16, 16, false, rng);
  Tensor x = Tensor::randn(Shape{8, 8, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_ConvForward);

void BM_ConvBackward(benchmark::State& state) {
  Rng rng(4);
  nn::Conv2d conv("c", 8, 16, 3, 1, 1, 16, 16, false, rng);
  Tensor x = Tensor::randn(Shape{8, 8, 16, 16}, rng);
  Tensor y = conv.forward(x, false);
  Tensor dy = Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    Tensor dx = conv.backward(dy);
    benchmark::DoNotOptimize(dx.data().data());
  }
}
BENCHMARK(BM_ConvBackward);

/// One train-mode BatchNorm2d forward + backward at resnet8's first-stage
/// activation shape (64 x 8 x 16 x 16).
void BM_BatchNormTrain(benchmark::State& state) {
  Rng rng(5);
  nn::BatchNorm2d bn("bn", 8);
  Tensor x = Tensor::randn(Shape{64, 8, 16, 16}, rng);
  Tensor dy = Tensor::randn(x.shape(), rng);
  for (auto _ : state) {
    Tensor y = bn.forward(x, /*train=*/true);
    Tensor dx = bn.backward(dy);
    benchmark::DoNotOptimize(y.data().data());
    benchmark::DoNotOptimize(dx.data().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BatchNormTrain)->UseRealTime();

/// Ablation (DESIGN.md "masks, not surgery"): a forward pass at 90% sparsity
/// costs the same as dense under the mask representation — the FLOP model,
/// not the wall-clock, accounts for sparsity. Rows of zeros *are* skipped by
/// the GEMM kernel's zero check, so structured sparsity shows real savings.
void BM_MaskedForward(benchmark::State& state) {
  const bool structured = state.range(0) != 0;
  Rng rng(5);
  nn::Conv2d conv("c", 8, 16, 3, 1, 1, 16, 16, false, rng);
  auto& w = conv.weight();
  if (structured) {
    for (int64_t r = 0; r < 14; ++r) {  // kill 14 of 16 filters (rows)
      for (int64_t j = 0; j < w.value.size(1); ++j) {
        w.mask.at(r, j) = 0.0f;
      }
    }
  } else {
    for (int64_t i = 0; i < w.value.numel() * 9 / 10; ++i) w.mask[i] = 0.0f;
  }
  w.enforce_mask();
  Tensor x = Tensor::randn(Shape{8, 8, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetLabel(structured ? "structured 87% (rows zero)" : "unstructured 90%");
}
BENCHMARK(BM_MaskedForward)->Arg(0)->Arg(1);

/// Ablation: score computation cost per pruning method (the data-informed
/// methods pay for profiling separately; this isolates the ranking).
void BM_PruneToRatio(benchmark::State& state) {
  const auto method = static_cast<core::PruneMethod>(state.range(0));
  data::SynthConfig cfg;
  cfg.n = 32;
  cfg.seed = 6;
  auto ds = data::make_synth_classification(cfg);
  for (auto _ : state) {
    state.PauseTiming();
    auto net = nn::build_network("resnet8", nn::synth_cifar_task(), 1);
    nn::profile_activations(*net, *ds, 32);
    state.ResumeTiming();
    core::prune_to_ratio(*net, method, 0.5);
    benchmark::DoNotOptimize(net->prune_ratio());
  }
  state.SetLabel(core::to_string(method));
}
BENCHMARK(BM_PruneToRatio)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Iterations(10);

void BM_Corruption(benchmark::State& state) {
  const auto& c = *corrupt::registry()[static_cast<size_t>(state.range(0))];
  data::SynthConfig cfg;
  cfg.n = 1;
  cfg.seed = 7;
  Tensor img = data::make_synth_classification(cfg)->image(0);
  Rng rng(8);
  for (auto _ : state) {
    Tensor out = c.apply(img, 3, rng);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetLabel(c.name());
}
BENCHMARK(BM_Corruption)->DenseRange(0, 15);

void BM_SynthGeneration(benchmark::State& state) {
  uint64_t seed = 0;
  for (auto _ : state) {
    data::SynthConfig cfg;
    cfg.n = 64;
    cfg.seed = ++seed;
    auto ds = data::make_synth_classification(cfg);
    benchmark::DoNotOptimize(ds->size());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SynthGeneration);

void BM_TrainingStep(benchmark::State& state) {
  data::SynthConfig cfg;
  cfg.n = 64;
  cfg.seed = 9;
  auto ds = data::make_synth_classification(cfg);
  auto net = nn::build_network("resnet8", nn::synth_cifar_task(), 1);
  std::vector<int64_t> idx(64);
  for (int64_t i = 0; i < 64; ++i) idx[static_cast<size_t>(i)] = i;
  data::Batch batch = data::make_batch(*ds, idx);
  for (auto _ : state) {
    Tensor logits = net->forward(batch.images, true);
    const auto lr = nn::softmax_cross_entropy(logits, batch.labels);
    net->zero_grad();
    net->backward(lr.dlogits);
    benchmark::DoNotOptimize(lr.loss);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TrainingStep);

/// Per-step operator-new count of a warmed-up training step. Arg(0) pins
/// RP_ARENA=off (the "before" record), Arg(1) pins it on — the
/// memory-discipline acceptance number: with the arena engine the steady
/// state makes zero trips through operator new per step (tensors come from
/// the lane arena/pool, both malloc-backed and warm). Iterations are pinned
/// so the count is exact, threads at 1 so the census is single-lane.
void BM_TrainStepAllocs(benchmark::State& state) {
  parallel::set_num_threads(1);
  mem::force(state.range(0) == 1 ? mem::Mode::kOn : mem::Mode::kOff);
  data::SynthConfig cfg;
  cfg.n = 64;
  cfg.seed = 9;
  auto ds = data::make_synth_classification(cfg);
  auto net = nn::build_network("resnet8", nn::synth_cifar_task(), 1);
  std::vector<int64_t> idx(64);
  for (int64_t i = 0; i < 64; ++i) idx[static_cast<size_t>(i)] = i;
  data::Batch batch = data::make_batch(*ds, idx);
  const auto step = [&] {
    const mem::Scope scope;  // the per-batch reset boundary nn::train uses
    Tensor logits = net->forward(batch.images, true);
    const auto lr = nn::softmax_cross_entropy(logits, batch.labels);
    net->zero_grad();
    net->backward(lr.dlogits);
    benchmark::DoNotOptimize(lr.loss);
  };
  for (int i = 0; i < 3; ++i) step();  // warm the lane arena and pool
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) step();
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  state.counters["heap_allocs_per_step"] = benchmark::Counter(
      static_cast<double>(after - before) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(std::string("RP_ARENA=") + mem::mode_name(mem::mode()));
  mem::reset();
  parallel::set_num_threads(0);
}
BENCHMARK(BM_TrainStepAllocs)->Arg(0)->Arg(1)->Iterations(20);

/// Same census for a full evaluate() pass (batched forward + argmax + loss).
void BM_EvalAllocs(benchmark::State& state) {
  parallel::set_num_threads(1);
  mem::force(state.range(0) == 1 ? mem::Mode::kOn : mem::Mode::kOff);
  data::SynthConfig cfg;
  cfg.n = 128;
  cfg.seed = 13;
  auto ds = data::make_synth_classification(cfg);
  auto net = nn::build_network("resnet8", nn::synth_cifar_task(), 1);
  for (int i = 0; i < 2; ++i) nn::evaluate(*net, *ds);  // warm the lane pool
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const auto metrics = nn::evaluate(*net, *ds);
    benchmark::DoNotOptimize(metrics.loss);
  }
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  state.counters["heap_allocs_per_step"] = benchmark::Counter(
      static_cast<double>(after - before) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * 128);
  state.SetLabel(std::string("RP_ARENA=") + mem::mode_name(mem::mode()));
  mem::reset();
  parallel::set_num_threads(0);
}
BENCHMARK(BM_EvalAllocs)->Arg(0)->Arg(1)->Iterations(10);

void BM_BackselectStep(benchmark::State& state) {
  auto net = nn::build_network("resnet8", nn::synth_cifar_task(), 1);
  data::SynthConfig cfg;
  cfg.n = 1;
  cfg.seed = 10;
  Tensor img = data::make_synth_classification(cfg)->image(0);
  core::BackSelectConfig bs;
  bs.chunk = 128;  // two steps over 256 pixels
  for (auto _ : state) {
    auto order = core::backselect_order(*net, img, 0, bs);
    benchmark::DoNotOptimize(order.size());
  }
}
BENCHMARK(BM_BackselectStep)->Iterations(3);

}  // namespace

/// Shared micro-bench main (bench/common.hpp): median-of-5 repetitions,
/// aggregates-only reporting, JSON record in BENCH_micro_ops.json for
/// cross-PR trajectory tracking. Explicit command-line flags win.
int main(int argc, char** argv) {
  return rp::bench::run_micro_bench_main(argc, argv, "BENCH_micro_ops.json");
}
