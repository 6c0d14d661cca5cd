// Load-generator benchmark for the rp::serve batched inference engine
// (google-benchmark): closed-loop client threads drive bursts of
// single-sample requests through a resnet8 prune-ratio family and the
// committed record captures throughput (QPS) and per-request latency
// percentiles (p50/p99), swept over
//
//   batch window   (RP_SERVE_WAIT_US: 0 = flush immediately, up to 5ms)
//   queue depth    (RP_SERVE_QUEUE: 8 forces admission-control rejects
//                   under the burst load, 64 absorbs it)
//   variant count  (1 = every covered tag shares one pruned model,
//                   3 = mixed tags split each flush across the ladder)
//
// Results land in BENCH_serving.json (median-of-5, Release-tagged) for
// cross-PR trajectory tracking; scripts/check.sh gates on the record.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>  // rp-lint: allow(R2) closed-loop load-generator clients are the workload
#include <vector>

#include "common.hpp"
#include "core/pruner.hpp"
#include "nn/models.hpp"
#include "serve/engine.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace rp;

constexpr uint64_t kSeed = 21;
constexpr double kRatios[] = {0.3, 0.6, 0.8};

/// The bench keeps its family in an own pid-unique cache directory so a
/// concurrently running experiment sweep can never collide with it (or pull
/// its artifacts through the quarantine path mid-run).
std::string bench_cache_dir() {
  return (std::filesystem::temp_directory_path() /
          ("rp_cache_serving_" + std::to_string(::getpid())))
      .string();
}

std::string variant_key(double ratio) {
  return "serving/p" + std::to_string(static_cast<int>(ratio * 100));
}

/// Family spec for `variant_count` pruned variants. The artifacts are
/// published on first use (keyed on the parent) and reused by every later
/// benchmark run in the process; training is irrelevant to serving cost, so
/// the nets stay untrained.
serve::FamilySpec family_spec(exp::ArtifactCache& cache, int variant_count) {
  serve::FamilySpec spec;
  spec.arch = "resnet8";
  spec.task = nn::synth_cifar_task();
  spec.parent_key = "serving/parent";
  if (!cache.has(spec.parent_key)) {
    const auto parent = nn::build_network(spec.arch, spec.task, kSeed);
    for (const double ratio : kRatios) {
      auto net = nn::build_network(spec.arch, spec.task, kSeed);
      net->load_state(parent->state());
      core::prune_to_ratio(*net, core::PruneMethod::WT, ratio);
      cache.put_state(variant_key(ratio), net->state());
    }
    cache.put_state(spec.parent_key, parent->state());  // published last: marks the family complete
  }
  for (int i = 0; i < variant_count; ++i) spec.variant_keys.push_back(variant_key(kRatios[i]));
  return spec;
}

/// One load-generation run: kClients closed-loop clients, each submitting
/// kBurst-ticket bursts (on a reject, answering the tickets it already holds
/// and retrying) and waiting the burst out, for kBursts rounds per benchmark
/// iteration. Per-request latency is submit-to-response wall time — exactly
/// what a caller of infer() sees, including the batching window and any
/// admission-control retries.
void BM_ServeLoad(benchmark::State& state) {
  const int64_t wait_us = state.range(0);
  const int queue_depth = static_cast<int>(state.range(1));
  const int variant_count = static_cast<int>(state.range(2));
  constexpr int kClients = 4;
  constexpr int kBurst = 4;
  constexpr int kBursts = 8;

  exp::ArtifactCache cache(bench_cache_dir());
  const serve::ModelRegistry registry(family_spec(cache, variant_count), cache);
  serve::Router router(registry);
  core::PotentialEvidence high;  // covers the whole ladder -> cheapest variant
  high.train = 0.95;
  high.test_average = 0.9;
  high.test_minimum = 0.95;
  router.set_evidence("nominal", high);
  core::PotentialEvidence mid = high;  // covers p60 but not p80
  mid.test_minimum = 0.65;
  router.set_evidence("shifted", mid);
  // Third tag stays unregistered: "unknown" falls back to the dense parent.

  serve::EngineConfig cfg;
  cfg.max_batch = std::min(16, queue_depth);  // a batch never exceeds the slot table
  cfg.queue_depth = queue_depth;
  cfg.max_wait_us = wait_us;
  serve::Engine engine(registry, router, cfg);
  engine.start();

  const nn::TaskSpec& task = registry.task();
  Rng rng(kSeed);
  std::vector<Tensor> samples;  // one image per client: threads never share a tensor
  samples.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    samples.push_back(Tensor::randn(Shape{task.in_c, task.in_h, task.in_w}, rng));
  }
  const char* kTags[] = {"nominal", "shifted", "unknown"};

  std::vector<double> lat_us;
  int64_t requests = 0;
  for (auto _ : state) {
    std::vector<std::vector<double>> lat(kClients);
    std::vector<std::thread> clients;  // rp-lint: allow(R2) the concurrent load is the thing being measured
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {  // rp-lint: allow(R2) see above
        lat[c].reserve(kBurst * kBursts);
        Tensor logits;
        std::vector<serve::Engine::Ticket> tickets(kBurst);
        std::vector<std::chrono::steady_clock::time_point> sent(kBurst);
        int waited = 0;  // tickets of the current burst already answered
        const auto wait_upto = [&](int upto) {
          for (; waited < upto; ++waited) {
            engine.wait_into(tickets[static_cast<size_t>(waited)], &logits);
            const auto done = std::chrono::steady_clock::now();  // rp-lint: allow(R1) see above
            lat[c].push_back(std::chrono::duration<double, std::micro>(
                                 done - sent[static_cast<size_t>(waited)])
                                 .count());
          }
        };
        for (int b = 0; b < kBursts; ++b) {
          waited = 0;
          for (int i = 0; i < kBurst; ++i) {
            const char* tag = kTags[(c + i) % 3];
            sent[static_cast<size_t>(i)] = std::chrono::steady_clock::now();  // rp-lint: allow(R1) request latency is the bench's output
            for (;;) {
              const auto t = engine.submit(samples[static_cast<size_t>(c)], tag);
              if (t) {
                tickets[static_cast<size_t>(i)] = *t;
                break;
              }
              // Rejected: a slot frees only after some client's wait_into.
              // Holding part of a burst while retrying deadlocks once every
              // client holds a few slots and needs more, so answer the
              // tickets this client holds first; then yield instead of
              // hammering the lock, which would starve the dispatcher.
              wait_upto(i);
              std::this_thread::yield();  // rp-lint: allow(R2) load-generator backoff
            }
          }
          wait_upto(kBurst);
        }
      });
    }
    for (auto& t : clients) t.join();
    for (const auto& v : lat) lat_us.insert(lat_us.end(), v.begin(), v.end());
    requests += kClients * kBurst * kBursts;
  }
  engine.stop();

  std::sort(lat_us.begin(), lat_us.end());
  const auto pct = [&](double p) {
    const auto idx = static_cast<size_t>(p * static_cast<double>(lat_us.size() - 1) + 0.5);
    return lat_us[std::min(idx, lat_us.size() - 1)];
  };
  state.counters["QPS"] =
      benchmark::Counter(static_cast<double>(requests), benchmark::Counter::kIsRate);
  state.counters["p50_us"] = pct(0.50);
  state.counters["p99_us"] = pct(0.99);
  state.counters["rejects"] = static_cast<double>(engine.stats().rejects);
  state.counters["batches"] = static_cast<double>(engine.stats().batches);
  state.SetItemsProcessed(requests);
  state.SetLabel("window " + std::to_string(wait_us) + "us, depth " +
                 std::to_string(queue_depth) + ", " + std::to_string(variant_count) +
                 " pruned variant(s)");
}
// UseRealTime: QPS must come from wall-clock — the clients spend most of
// their time blocked in wait_into, not burning main-thread CPU.
BENCHMARK(BM_ServeLoad)
    ->ArgsProduct({{0, 500, 5000}, {8, 64}, {1, 3}})
    ->Iterations(3)
    ->UseRealTime();

}  // namespace

/// Shared micro-bench main (bench/common.hpp): median-of-5 repetitions,
/// aggregates-only reporting, Release-tagged JSON in BENCH_serving.json.
int main(int argc, char** argv) {
  const int rc = rp::bench::run_micro_bench_main(argc, argv, "BENCH_serving.json");
  std::filesystem::remove_all(bench_cache_dir());
  return rc;
}
