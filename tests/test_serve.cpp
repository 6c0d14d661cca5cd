#include "serve/engine.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>  // rp-lint: allow(R2) serving tests drive the engine with real client threads
#include <vector>

#include "core/pruner.hpp"
#include "fault/fault.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"
#include "tensor/sparse.hpp"

namespace rp::serve {
namespace {

namespace fs = std::filesystem;

/// Builds the miniature prune-ratio family every test serves: an untrained
/// dense resnet8 parent plus WT-pruned copies at 30% / 60% / 80%. Training
/// is irrelevant to routing and bit-identity, so we skip it for speed.
FamilySpec make_family(exp::ArtifactCache& cache, uint64_t seed = 7) {
  FamilySpec spec;
  spec.arch = "resnet8";
  spec.task = nn::synth_cifar_task();
  spec.parent_key = "fam/parent";
  const auto parent = nn::build_network(spec.arch, spec.task, seed);
  cache.put_state(spec.parent_key, parent->state());
  for (const double ratio : {0.3, 0.6, 0.8}) {
    auto net = nn::build_network(spec.arch, spec.task, seed);
    net->load_state(parent->state());
    core::prune_to_ratio(*net, core::PruneMethod::WT, ratio);
    const std::string key = "fam/p" + std::to_string(static_cast<int>(ratio * 100));
    cache.put_state(key, net->state());
    spec.variant_keys.push_back(key);
  }
  return spec;
}

/// Deterministic batch of request images, one row per sample.
Tensor make_images(int n, uint64_t seed = 11) {
  const auto task = nn::synth_cifar_task();
  Rng rng(seed);
  return Tensor::randn(Shape{n, task.in_c, task.in_h, task.in_w}, rng);
}

/// Row `i` of an [N, ...] stack as a standalone [...] tensor.
Tensor nth_image(const Tensor& images, int64_t i) {
  const int64_t row = images.numel() / images.size(0);
  Tensor out(Shape{std::vector<int64_t>(images.shape().dims().begin() + 1,
                                        images.shape().dims().end())});
  std::memcpy(out.data().data(), images.data().data() + i * row,
              static_cast<size_t>(row) * sizeof(float));
  return out;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / ("rp_serve_test_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fault::configure("");
  }
  void TearDown() override {
    fault::configure("");
    sparse::reset();
    parallel::set_num_threads(0);
    fs::remove_all(dir_);
  }
  std::string dir_;
};

// ---------------------------------------------------------------------------
// Registry

TEST_F(ServeTest, RegistryLoadsFamilyParentFirstRatioAscending) {
  exp::ArtifactCache cache(dir_);
  const auto spec = make_family(cache);
  ModelRegistry registry(spec, cache);
  ASSERT_EQ(registry.variants().size(), 4u);
  EXPECT_EQ(registry.dropped(), 0);
  EXPECT_EQ(registry.parent().key, "fam/parent");
  EXPECT_EQ(registry.parent().ratio, 0.0);
  for (size_t i = 1; i < registry.variants().size(); ++i) {
    EXPECT_GT(registry.variants()[i].ratio, registry.variants()[i - 1].ratio);
  }
  // Measured ratios track the requested ones (WT hits targets closely).
  EXPECT_NEAR(registry.variants()[1].ratio, 0.3, 0.05);
  EXPECT_NEAR(registry.variants()[3].ratio, 0.8, 0.05);
  // A pruned variant never costs more than its parent.
  EXPECT_LE(registry.variants()[3].flops, registry.parent().flops);
}

TEST_F(ServeTest, RegistryDropsCorruptVariantAndQuarantinesIt) {
  exp::ArtifactCache cache(dir_);
  auto spec = make_family(cache);
  // Re-publish one variant with a self-armed bitflip: the artifact lands on
  // disk damaged, exactly what a decayed checkpoint looks like.
  {
    auto net = nn::build_network(spec.arch, spec.task, 7);
    fault::configure("bitflip:once=1");
    cache.put_state("fam/p60", net->state());
    fault::configure("");
  }
  ModelRegistry registry(spec, cache);
  EXPECT_EQ(registry.dropped(), 1);
  ASSERT_EQ(registry.variants().size(), 3u);
  for (const Variant& v : registry.variants()) EXPECT_NE(v.key, "fam/p60");
  // The damaged file was parked for forensics, not left loadable.
  EXPECT_FALSE(cache.has("fam/p60"));
  bool corrupt_seen = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    corrupt_seen = corrupt_seen || entry.path().string().ends_with(".corrupt");
  }
  EXPECT_TRUE(corrupt_seen);
}

TEST_F(ServeTest, RegistryThrowsWithoutServableParent) {
  exp::ArtifactCache cache(dir_);
  auto spec = make_family(cache);
  spec.parent_key = "fam/never-written";
  EXPECT_THROW(ModelRegistry(spec, cache), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Router

TEST_F(ServeTest, RouterMapsEvidenceToCheapestCoveredVariant) {
  exp::ArtifactCache cache(dir_);
  ModelRegistry registry(make_family(cache), cache);
  Router router(registry);

  // Unmodeled shifts: safe ratio is the worst-case test potential.
  core::PotentialEvidence mid;
  mid.train = 0.9;
  mid.test_average = 0.8;
  mid.test_minimum = 0.65;
  router.set_evidence("shifted", mid);
  const auto d = router.route("shifted");
  EXPECT_TRUE(d.evidence_found);
  EXPECT_EQ(d.variant->key, "fam/p60");  // 0.6 <= 0.65 < 0.8

  // Evidence covering the whole ladder picks the cheapest variant.
  core::PotentialEvidence high = mid;
  high.test_minimum = 0.95;
  router.set_evidence("nominal", high);
  EXPECT_EQ(router.route("nominal").variant->key, "fam/p80");

  // Modeled shifts route on the average instead of the minimum.
  core::PotentialEvidence modeled;
  modeled.train = 0.95;
  modeled.test_average = 0.7;
  modeled.test_minimum = 0.2;
  modeled.shifts_modeled = true;
  router.set_evidence("augmented", modeled);
  const auto da = router.route("augmented");
  EXPECT_EQ(da.variant->key, "fam/p60");
  EXPECT_EQ(da.guideline, core::Guideline::PruneWithAugmentation);
}

TEST_F(ServeTest, RouterFallsBackToParentOnDoNotPruneAndUnknownTags) {
  exp::ArtifactCache cache(dir_);
  ModelRegistry registry(make_family(cache), cache);
  Router router(registry);

  core::PotentialEvidence brittle;
  brittle.train = 0.9;
  brittle.test_average = 0.5;
  brittle.test_minimum = 0.03;  // a shift this network cannot absorb
  router.set_evidence("adversarial", brittle);
  const auto d = router.route("adversarial");
  EXPECT_EQ(d.guideline, core::Guideline::DoNotPrune);
  EXPECT_EQ(d.variant, &registry.parent());

  const auto unknown = router.route("never-measured");
  EXPECT_FALSE(unknown.evidence_found);
  EXPECT_EQ(unknown.variant, &registry.parent());
  EXPECT_FALSE(router.has_evidence("never-measured"));
}

// ---------------------------------------------------------------------------
// Engine lifecycle

TEST(ServeEnvDeathTest, BadServeKnobsExitLoudly) {
  // RP_SERVE_* follows the strict parse-or-exit(2) convention: a typo'd
  // knob must never run with a silent default. from_env re-reads the
  // environment on every call, so the death-test children walk the real
  // resolution path.
  ::setenv("RP_SERVE_BATCH", "16junk", 1);
  EXPECT_EXIT(EngineConfig::from_env(), ::testing::ExitedWithCode(2), "RP_SERVE_BATCH");
  ::unsetenv("RP_SERVE_BATCH");
  ::setenv("RP_SERVE_QUEUE", "0", 1);  // below the minimum of 1
  EXPECT_EXIT(EngineConfig::from_env(), ::testing::ExitedWithCode(2), "RP_SERVE_QUEUE");
  ::unsetenv("RP_SERVE_QUEUE");
  ::setenv("RP_SERVE_WAIT_US", "-1", 1);
  EXPECT_EXIT(EngineConfig::from_env(), ::testing::ExitedWithCode(2), "RP_SERVE_WAIT_US");
  ::unsetenv("RP_SERVE_WAIT_US");
}

TEST(ServeEnv, FromEnvOverridesDefaults) {
  const EngineConfig defaults = EngineConfig::from_env();
  EXPECT_EQ(defaults.max_batch, EngineConfig{}.max_batch);
  ::setenv("RP_SERVE_BATCH", "8", 1);
  ::setenv("RP_SERVE_QUEUE", "32", 1);
  ::setenv("RP_SERVE_WAIT_US", "0", 1);
  const EngineConfig cfg = EngineConfig::from_env();
  EXPECT_EQ(cfg.max_batch, 8);
  EXPECT_EQ(cfg.queue_depth, 32);
  EXPECT_EQ(cfg.max_wait_us, 0);
  ::unsetenv("RP_SERVE_BATCH");
  ::unsetenv("RP_SERVE_QUEUE");
  ::unsetenv("RP_SERVE_WAIT_US");
}

TEST_F(ServeTest, EngineValidatesConfig) {
  exp::ArtifactCache cache(dir_);
  ModelRegistry registry(make_family(cache), cache);
  Router router(registry);
  EngineConfig bad;
  bad.max_batch = 0;
  EXPECT_THROW(Engine(registry, router, bad), std::invalid_argument);
  bad = EngineConfig{};
  bad.queue_depth = -1;
  EXPECT_THROW(Engine(registry, router, bad), std::invalid_argument);
  bad = EngineConfig{};
  bad.max_wait_us = -5;
  EXPECT_THROW(Engine(registry, router, bad), std::invalid_argument);
}

TEST_F(ServeTest, SubmitRejectsMalformedShapeAndFullQueue) {
  exp::ArtifactCache cache(dir_);
  ModelRegistry registry(make_family(cache), cache);
  Router router(registry);
  EngineConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_depth = 2;
  Engine engine(registry, router, cfg);  // not started: requests sit queued

  EXPECT_THROW(engine.submit(Tensor(Shape{2, 2}), "nominal"), std::invalid_argument);

  const Tensor images = make_images(3);
  const auto t0 = engine.submit(nth_image(images, 0), "nominal");
  const auto t1 = engine.submit(nth_image(images, 1), "nominal");
  ASSERT_TRUE(t0.has_value());
  ASSERT_TRUE(t1.has_value());
  // Admission control: the slot table is full — reject, don't queue.
  EXPECT_FALSE(engine.submit(nth_image(images, 2), "nominal").has_value());
  EXPECT_EQ(engine.stats().rejects, 1);
  EXPECT_EQ(engine.stats().requests, 2);

  // stop() drains: both pre-start requests are answered.
  engine.start();
  engine.stop();
  EXPECT_FALSE(engine.running());
  Tensor logits;
  engine.wait_into(*t0, &logits);
  EXPECT_EQ(logits.size(0), 10);
  engine.wait_into(*t1, &logits);
  // A freed slot re-admits.
  EXPECT_FALSE(engine.submit(nth_image(images, 2), "nominal").has_value())
      << "admission stays closed after stop()";
  engine.start();
  EXPECT_TRUE(engine.submit(nth_image(images, 2), "nominal").has_value());
  engine.stop();
}

TEST_F(ServeTest, WaitedTicketGoesStale) {
  exp::ArtifactCache cache(dir_);
  ModelRegistry registry(make_family(cache), cache);
  Router router(registry);
  Engine engine(registry, router, EngineConfig{});
  engine.start();
  const Tensor images = make_images(1);
  const auto ticket = engine.submit(nth_image(images, 0), "nominal");
  ASSERT_TRUE(ticket.has_value());
  Tensor logits;
  engine.wait_into(*ticket, &logits);
  EXPECT_THROW(engine.wait_into(*ticket, &logits), std::logic_error);
  Engine::Ticket forged;
  forged.slot = -3;
  EXPECT_THROW(engine.wait_into(forged, &logits), std::logic_error);
}

TEST_F(ServeTest, DeadlineFlushServesPartialBatches) {
  exp::ArtifactCache cache(dir_);
  ModelRegistry registry(make_family(cache), cache);
  Router router(registry);
  EngineConfig cfg;
  cfg.max_batch = 64;        // never fills with one request...
  cfg.max_wait_us = 2000;    // ...so only the deadline can flush it
  Engine engine(registry, router, cfg);
  engine.start();
  Tensor logits;
  ASSERT_TRUE(engine.infer(nth_image(make_images(1), 0), "nominal", &logits));
  EXPECT_EQ(logits.size(0), 10);
  EXPECT_EQ(engine.stats().batches, 1);
  engine.stop();
}

TEST_F(ServeTest, FullBatchFlushesBeforeTheDeadline) {
  exp::ArtifactCache cache(dir_);
  ModelRegistry registry(make_family(cache), cache);
  Router router(registry);
  EngineConfig cfg;
  cfg.max_batch = 2;
  cfg.max_wait_us = 60'000'000;  // a stuck deadline wait would hang the test
  Engine engine(registry, router, cfg);
  const Tensor images = make_images(2);
  const auto t0 = engine.submit(nth_image(images, 0), "nominal");
  const auto t1 = engine.submit(nth_image(images, 1), "nominal");
  ASSERT_TRUE(t0 && t1);
  engine.start();
  Tensor logits;
  engine.wait_into(*t0, &logits);
  engine.wait_into(*t1, &logits);
  EXPECT_EQ(engine.stats().batches, 1);  // both rode one coalesced pass
  engine.stop();
}

TEST_F(ServeTest, BatchLargerThanQueueIsRejected) {
  exp::ArtifactCache cache(dir_);
  ModelRegistry registry(make_family(cache), cache);
  Router router(registry);
  EngineConfig cfg;
  cfg.max_batch = 16;  // at most 8 requests can ever be pending
  cfg.queue_depth = 8;
  try {
    Engine engine(registry, router, cfg);
    FAIL() << "max_batch > queue_depth must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_batch (16)"), std::string::npos) << what;
    EXPECT_NE(what.find("queue_depth (8)"), std::string::npos) << what;
  }
}

TEST_F(ServeTest, FullSlotTableFlushesBeforeTheDeadline) {
  exp::ArtifactCache cache(dir_);
  ModelRegistry registry(make_family(cache), cache);
  Router router(registry);
  EngineConfig cfg;
  cfg.max_batch = 8;
  cfg.queue_depth = 8;
  cfg.max_wait_us = 30'000'000;  // one window: 30 s
  Engine engine(registry, router, cfg);
  engine.start();
  const Tensor images = make_images(12);
  const auto t0 = std::chrono::steady_clock::now();  // rp-lint: allow(R1) test stopwatch: pins the flush inside the window, feeds no result
  std::vector<Engine::Ticket> first;
  for (int64_t i = 0; i < 8; ++i) {
    const auto t = engine.submit(nth_image(images, i), "nominal");
    ASSERT_TRUE(t.has_value());
    first.push_back(*t);
  }
  Tensor logits;
  for (size_t i = 0; i < 4; ++i) engine.wait_into(first[i], &logits);
  // Four answered requests still hold their slots, so the four new ones fill
  // the table: no further arrival can join, and the partial batch of 4 must
  // flush now instead of sleeping out the window.
  std::vector<Engine::Ticket> second;
  for (int64_t i = 8; i < 12; ++i) {
    const auto t = engine.submit(nth_image(images, i), "nominal");
    ASSERT_TRUE(t.has_value());
    second.push_back(*t);
  }
  for (const auto& t : second) engine.wait_into(t, &logits);
  const auto t1 = std::chrono::steady_clock::now();  // rp-lint: allow(R1) test stopwatch: pins the flush inside the window, feeds no result
  const double waited_s = std::chrono::duration<double>(t1 - t0).count();
  EXPECT_EQ(engine.stats().batches, 2);  // two flushes inside one window
  EXPECT_LT(waited_s, 10.0);
  for (size_t i = 4; i < 8; ++i) engine.wait_into(first[i], &logits);
  engine.stop();
}

// ---------------------------------------------------------------------------
// Bit-identity: batched async serving vs direct predict

TEST_F(ServeTest, ServedLogitsMatchDirectPredictAcrossEngines) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  const Tensor images = make_images(kClients * kPerClient);
  const auto task = nn::synth_cifar_task();

  for (const int threads : {1, 3}) {
    for (const sparse::Mode sm : {sparse::Mode::kOff, sparse::Mode::kAuto}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " sparse=" + sparse::mode_name(sm));
      parallel::set_num_threads(threads);
      sparse::force(sm);

      const std::string dir = dir_ + "_x";
      fs::remove_all(dir);
      exp::ArtifactCache cache(dir);
      const auto spec = make_family(cache);
      ModelRegistry registry(spec, cache);
      Router router(registry);
      core::PotentialEvidence high;
      high.train = 0.95;
      high.test_average = 0.9;
      high.test_minimum = 0.85;  // covers fam/p80
      router.set_evidence("nominal", high);

      // Reference: direct single-sample predict on an independently loaded
      // copy of the routed variant.
      auto ref_net = nn::build_network(spec.arch, task, 0);
      ref_net->load_state(*cache.get_state("fam/p80"));
      ref_net->enforce_masks();
      const Tensor ref = nn::predict(*ref_net, images, /*batch_size=*/1);

      EngineConfig cfg;
      cfg.max_batch = 5;  // never divides the request count evenly
      cfg.max_wait_us = 200;
      Engine engine(registry, router, cfg);
      engine.start();

      std::vector<Tensor> got(kClients * kPerClient);
      std::vector<std::string> keys(kClients * kPerClient);
      std::vector<std::thread> clients;  // rp-lint: allow(R2) concurrent client load is the thing under test
      clients.reserve(kClients);
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {  // rp-lint: allow(R2) see above
          for (int i = 0; i < kPerClient; ++i) {
            const int idx = c * kPerClient + i;
            RouteInfo info;
            while (!engine.infer(nth_image(images, idx), "nominal", &got[idx], &info)) {
            }
            keys[idx] = info.variant_key;
          }
        });
      }
      for (auto& t : clients) t.join();
      engine.stop();

      const int64_t row = ref.numel() / ref.size(0);
      for (int idx = 0; idx < kClients * kPerClient; ++idx) {
        EXPECT_EQ(keys[idx], "fam/p80");
        ASSERT_EQ(got[idx].numel(), row);
        EXPECT_EQ(std::memcmp(got[idx].data().data(), ref.data().data() + idx * row,
                              static_cast<size_t>(row) * sizeof(float)),
                  0)
            << "sample " << idx << " diverged from direct predict";
      }
      EXPECT_EQ(engine.stats().requests, kClients * kPerClient);
      EXPECT_GE(engine.stats().batches, 3);  // 12 requests / max_batch 5
      fs::remove_all(dir);
    }
  }
}

TEST_F(ServeTest, MixedTagBatchesRouteEachRequestIndependently) {
  exp::ArtifactCache cache(dir_);
  const auto spec = make_family(cache);
  ModelRegistry registry(spec, cache);
  Router router(registry);
  core::PotentialEvidence high;
  high.train = 0.95;
  high.test_average = 0.9;
  high.test_minimum = 0.85;
  router.set_evidence("nominal", high);  // -> fam/p80

  const Tensor images = make_images(4);
  EngineConfig cfg;
  cfg.max_batch = 4;
  Engine engine(registry, router, cfg);
  // Interleave tags so one coalesced flush serves two variants.
  const auto t0 = engine.submit(nth_image(images, 0), "nominal");
  const auto t1 = engine.submit(nth_image(images, 1), "unknown");
  const auto t2 = engine.submit(nth_image(images, 2), "nominal");
  const auto t3 = engine.submit(nth_image(images, 3), "unknown");
  ASSERT_TRUE(t0 && t1 && t2 && t3);
  engine.start();
  engine.stop();

  auto parent_net = nn::build_network(spec.arch, spec.task, 0);
  parent_net->load_state(*cache.get_state(spec.parent_key));
  parent_net->enforce_masks();
  auto pruned_net = nn::build_network(spec.arch, spec.task, 0);
  pruned_net->load_state(*cache.get_state("fam/p80"));
  pruned_net->enforce_masks();
  const Tensor ref_parent = nn::predict(*parent_net, images, 1);
  const Tensor ref_pruned = nn::predict(*pruned_net, images, 1);
  const int64_t row = ref_parent.numel() / 4;

  const Engine::Ticket tickets[] = {*t0, *t1, *t2, *t3};
  for (int i = 0; i < 4; ++i) {
    Tensor logits;
    RouteInfo info;
    engine.wait_into(tickets[i], &logits, &info);
    const bool pruned = i % 2 == 0;
    EXPECT_EQ(info.variant_key, pruned ? "fam/p80" : spec.parent_key);
    EXPECT_EQ(info.evidence_found, pruned);
    const Tensor& ref = pruned ? ref_pruned : ref_parent;
    EXPECT_EQ(std::memcmp(logits.data().data(), ref.data().data() + i * row,
                          static_cast<size_t>(row) * sizeof(float)),
              0)
        << "sample " << i;
  }
}

}  // namespace
}  // namespace rp::serve
