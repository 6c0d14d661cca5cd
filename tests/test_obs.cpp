#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "data/synth.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"

namespace rp::obs {
namespace {

/// Each TEST runs in its own process (ctest per-case discovery), so
/// configure() here cannot leak into other suites.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_path_ = (std::filesystem::temp_directory_path() /
                   ("rp_obs_test_" + std::to_string(::getpid()) + ".json"))
                      .string();
    std::filesystem::remove(trace_path_);
  }
  void TearDown() override {
    configure(Config{});  // off, counters reset
    std::filesystem::remove(trace_path_);
  }
  std::string trace_path_;
};

/// Structural JSON check sufficient for chrome://tracing compatibility:
/// string-aware brace/bracket balance plus the required top-level key.
/// (scripts/check.sh additionally runs a real JSON parser over the trace.)
void expect_valid_trace_json(const std::string& text) {
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.find("{\"traceEvents\":["), 0u);
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST_F(ObsTest, CountersOffByDefault) {
  configure(Config{});
  EXPECT_FALSE(enabled());
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(tracing_enabled());
  count(Counter::kGemmCalls, 5);
  count(Counter::kCacheHits);
  EXPECT_EQ(counter_value(Counter::kGemmCalls), 0);
  EXPECT_EQ(counter_value(Counter::kCacheHits), 0);
  {
    const Span span("ignored");
  }
  EXPECT_TRUE(span_stats().empty());
}

TEST_F(ObsTest, CountersAccumulateWhenEnabled) {
  Config cfg;
  cfg.metrics = true;
  configure(cfg);
  EXPECT_TRUE(enabled());
  EXPECT_TRUE(metrics_enabled());
  EXPECT_FALSE(tracing_enabled());
  count(Counter::kCacheHits, 2);
  count(Counter::kCacheHits);
  count(Counter::kCacheBytesWritten, 1024);
  EXPECT_EQ(counter_value(Counter::kCacheHits), 3);
  EXPECT_EQ(counter_value(Counter::kCacheBytesWritten), 1024);
  // Reconfiguring resets.
  configure(cfg);
  EXPECT_EQ(counter_value(Counter::kCacheHits), 0);
}

TEST_F(ObsTest, CounterNamesAreStable) {
  for (int i = 0; i < static_cast<int>(Counter::kCount); ++i) {
    const std::string name = counter_name(static_cast<Counter>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
  }
}

TEST_F(ObsTest, SpanAggregatesNestAndSort) {
  Config cfg;
  cfg.metrics = true;
  configure(cfg);
  {
    const Span outer("b.outer");
    {
      const Span inner("a.inner");
    }
    {
      const Span inner("a.inner");
    }
  }
  const auto stats = span_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "a.inner");  // deterministic name order
  EXPECT_EQ(stats[0].calls, 2);
  EXPECT_EQ(stats[1].name, "b.outer");
  EXPECT_EQ(stats[1].calls, 1);
  EXPECT_GE(stats[1].wall_ns, stats[0].wall_ns);  // outer encloses both inners
  EXPECT_EQ(counter_value(Counter::kSpans), 3);
}

TEST_F(ObsTest, NestedSpansEmitValidTraceJson) {
  Config cfg;
  cfg.metrics = true;
  cfg.trace_path = trace_path_;
  configure(cfg);
  EXPECT_TRUE(tracing_enabled());
  {
    const Span outer("phase.outer");
    const Span inner(std::string("phase.inner \"quoted\\name\""));
  }
  finish();
  const std::string text = slurp(trace_path_);
  expect_valid_trace_json(text);
  EXPECT_NE(text.find("phase.outer"), std::string::npos);
  EXPECT_NE(text.find("\\\"quoted\\\\name\\\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"tid\":"), std::string::npos);
}

TEST_F(ObsTest, EmptyTraceIsStillValidJson) {
  Config cfg;
  cfg.trace_path = trace_path_;
  configure(cfg);
  finish();
  expect_valid_trace_json(slurp(trace_path_));
}

TEST_F(ObsTest, FinishIsIdempotent) {
  Config cfg;
  cfg.metrics = true;
  cfg.trace_path = trace_path_;
  configure(cfg);
  {
    const Span span("once");
  }
  finish();
  const std::string first = slurp(trace_path_);
  finish();  // second flush: no-op, file unchanged
  EXPECT_EQ(slurp(trace_path_), first);
}

TEST_F(ObsTest, ThreadIdsAreStablePerThread) {
  const int a = thread_id();
  EXPECT_EQ(thread_id(), a);
  set_thread_id(a);  // pinning to the same id is a no-op
  EXPECT_EQ(thread_id(), a);
}

/// The observability contract: tracing on vs off produces bit-identical
/// results. Train + evaluate a small network both ways and compare exactly.
TEST_F(ObsTest, TracingDoesNotAffectResults) {
  const auto task = nn::synth_cifar_task();
  data::SynthConfig dcfg;
  dcfg.n = 48;
  dcfg.seed = 7;
  auto ds = data::make_synth_classification(dcfg);
  nn::TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 16;
  tcfg.seed = 11;

  auto run = [&] {
    auto net = nn::build_network("resnet8", task, 3);
    nn::train(*net, *ds, tcfg);
    return nn::evaluate(*net, *ds);
  };

  configure(Config{});
  const auto baseline = run();

  Config cfg;
  cfg.metrics = true;
  cfg.trace_path = trace_path_;
  configure(cfg);
  const auto traced = run();
  finish();

  EXPECT_EQ(baseline.loss, traced.loss);
  EXPECT_EQ(baseline.accuracy, traced.accuracy);
  // The traced run actually observed the work…
  EXPECT_GT(counter_value(Counter::kGemmCalls), 0);
  EXPECT_EQ(counter_value(Counter::kTrainSamples), 48);
  EXPECT_EQ(counter_value(Counter::kEvalSamples), 48);
  // …and produced a loadable trace with the nn-phase spans.
  const std::string text = slurp(trace_path_);
  expect_valid_trace_json(text);
  EXPECT_NE(text.find("nn.train"), std::string::npos);
  EXPECT_NE(text.find("nn.evaluate"), std::string::npos);
}

/// The one remaining mem counter is vestigial (nothing increments it), but
/// the end-to-end benchmark reads it by name, so the name must stay.
TEST_F(ObsTest, MemCounterNamesAreRegistered) {
  EXPECT_EQ(counter_name(Counter::kMemHeapAllocsHot), std::string("mem.heap_allocs_hot"));
  EXPECT_EQ(counter_value(Counter::kMemHeapAllocsHot), 0);
}

}  // namespace
}  // namespace rp::obs
