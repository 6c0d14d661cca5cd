// prune_cold: Algorithm 1 from an empty cache directory — the cold time to
// reproduce one table row. exp::Runner at the fast profile trains resnet8 on
// SynthCIFAR, runs the WT prune-retrain sweep (5 cycles), then evaluates the
// family on the nominal test set and takes its prune potential. Dense
// training (nn forward/backward, tensor gemm/conv, SGD) dominates; the
// checkpoints publish through exp/fault/sched. corrupt and serve stay idle.
// Set-up, timed apart, is the empty directory plus the repetition's data
// synthesis, so setup_s has real work to measure; each repetition runs on
// its own seed-derived data and initialization.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench/common.hpp"
#include "core/prune_potential.hpp"
#include "exp/runner.hpp"
#include "harness.hpp"
#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "obs/obs.hpp"

namespace perfbench {

namespace {

using namespace rp;

/// Repetitions of an untraced run, fixed by --seconds (a repetition takes
/// about 11-13 s here) so the work, and the data sets the runner keeps for
/// each repetition, does not depend on speed. A traced run makes 3.
int rep_count(const Args& args) { return args.trace ? 3 : std::clamp(args.seconds / 10, 2, 8); }
/// Set-ups of a run: one per repetition, and at least 3 for setup_s.
int setup_count(const Args& args) { return std::max(3, rep_count(args)); }

/// Each repetition gets its own data and initialization, derived from the
/// workload seed (the task name keys both).
nn::TaskSpec task_for(uint64_t seed, int rep) {
  nn::TaskSpec task = nn::synth_cifar_task();
  task.name += "_s" + std::to_string(seed) + "r" + std::to_string(rep);
  return task;
}

struct Setup {
  std::unique_ptr<exp::Runner> runner;
  nn::TaskSpec task;
  double synth_s = 0.0;
};

/// Set-up of one repetition: an empty cache directory, a Runner on it, and
/// the repetition's synthetic train/test sets.
Setup set_up(const Args& args, Trace& trace, int rep, std::vector<double>& setup_s) {
  Span span(trace, "setup");
  const std::string dir = args.work_dir + "/cold" + std::to_string(rep);
  fresh_dir(dir);
  exp::ArtifactCache cache(dir);
  Setup s{std::make_unique<exp::Runner>(exp::fast_scale(), cache), task_for(args.seed, rep)};
  {
    Span synth(trace, "data.synth");
    s.runner->train_set(s.task);
    s.runner->test_set(s.task);
    s.synth_s = synth.stop();
  }
  setup_s.push_back(span.stop());
  return s;
}

struct RepResult {
  std::vector<exp::Checkpoint> family;
  std::vector<core::CurvePoint> curve;
  double base_error = 0.0;
  double potential = 0.0;
  double wall_s = 0.0;
};

RepResult run_rep(Setup& s, Trace& trace) {
  RepResult r;
  Span rep(trace, "cold.rep");
  {
    Span span(trace, "exp.trained");
    s.runner->trained(kArch, s.task, 0);
  }
  {
    Span span(trace, "exp.sweep");
    r.family = s.runner->sweep(kArch, s.task, core::PruneMethod::WT, 0);
  }
  {
    Span span(trace, "exp.curve");
    const data::Dataset& test = *s.runner->test_set(s.task);
    r.base_error = s.runner->dense_error(kArch, s.task, 0, test);
    r.curve = s.runner->curve_cached(kArch, s.task, core::PruneMethod::WT, 0, test);
    r.potential = core::prune_potential(r.curve, r.base_error, bench::kDelta);
  }
  r.wall_s = rep.stop();
  std::fprintf(stderr, "prune_cold rep %s: %.3f s\n", s.task.name.c_str(), r.wall_s);
  return r;
}

/// One check per published cell: the dense train, each cycle's checkpoint,
/// each checkpoint's eval and the dense eval.
void check_rep(const RepResult& r, int cycles, Outcome& out) {
  out.check(in_unit_interval(r.base_error));
  out.check(r.family.size() == static_cast<size_t>(cycles) &&
            r.curve.size() == static_cast<size_t>(cycles));
  for (size_t c = 0; c < r.family.size(); ++c) {
    const double prev = c == 0 ? 0.0 : r.family[c - 1].ratio;
    out.check(!r.family[c].state.empty() && r.family[c].ratio > prev && r.family[c].ratio < 1.0);
    out.check(c < r.curve.size() && r.curve[c].ratio == r.family[c].ratio &&
              in_unit_interval(r.curve[c].error));
  }
  bool potential_ok = r.potential == 0.0;
  for (const auto& p : r.curve) potential_ok |= p.ratio == r.potential;
  out.check(potential_ok);
}

uint32_t digest_of(const RepResult& r) {
  Digest d;
  for (const auto& c : r.family) {
    d.add(c.ratio);
    d.add_state(c.state);
  }
  d.add(r.base_error);
  for (const auto& p : r.curve) d.add(p.error);
  d.add(r.potential);
  return d.value();
}

/// Forward/backward time per top-level module of resnet8 on one training
/// batch. The net is rebuilt here as an explicit Sequential — the registry's
/// make_mini_resnet(task, 1 block per stage, base width 8) — so each child
/// can be driven on its own; it loads the trained dense state, which also
/// proves the two builds name the same parameters.
void module_ledger(Setup& s, Report& report) {
  constexpr int64_t kBatch = 64;
  constexpr int kRounds = 15;
  const nn::TaskSpec& task = s.task;
  Rng rng(1);
  auto root = std::make_unique<nn::Sequential>(kArch);
  nn::Sequential* seq = root.get();
  int64_t h = task.in_h;
  int64_t w = task.in_w;
  constexpr int64_t kWidth = 8;
  seq->add(nn::make_conv_bn_relu("stem", task.in_c, kWidth, 1, h, w, rng));
  int64_t in_c = kWidth;
  for (int stage = 0; stage < 3; ++stage) {
    const int64_t out_c = kWidth << stage;
    const int64_t stride = stage > 0 ? 2 : 1;
    seq->add(std::make_unique<nn::ResidualBlock>("s" + std::to_string(stage + 1) + ".b1", in_c,
                                                 out_c, stride, h, w, rng));
    h /= stride;
    w /= stride;
    in_c = out_c;
  }
  seq->add(std::make_unique<nn::GlobalAvgPool>());
  seq->add(std::make_unique<nn::Linear>("fc", in_c, task.num_classes, true, rng));
  nn::Network net(kArch, task, std::move(root));

  const auto trained = s.runner->trained(kArch, task, 0)->state();
  const auto mine = net.state();
  bool same_names = trained.size() == mine.size();
  for (size_t i = 0; same_names && i < mine.size(); ++i) {
    same_names = trained[i].first == mine[i].first;
  }
  report.outcome.check(same_names);
  net.load_state(trained);

  std::vector<int64_t> idx(kBatch);
  for (int64_t i = 0; i < kBatch; ++i) idx[static_cast<size_t>(i)] = i;
  const data::Batch batch = data::make_batch(*s.runner->train_set(task), idx);

  const size_t n = seq->size();
  std::vector<std::vector<double>> fwd(n);
  std::vector<std::vector<double>> bwd(n);
  for (int round = 0; round < kRounds; ++round) {
    Tensor x = batch.images;
    for (size_t i = 0; i < n; ++i) {
      const int64_t t = now_ns();
      x = seq->child(i).forward(x, true);
      fwd[i].push_back(1e-6 * static_cast<double>(now_ns() - t));
    }
    Tensor dy = Tensor::full(x.shape(), 1.0f / static_cast<float>(kBatch));
    for (size_t i = n; i-- > 0;) {
      const int64_t t = now_ns();
      dy = seq->child(i).backward(dy);
      bwd[i].push_back(1e-6 * static_cast<double>(now_ns() - t));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const std::string id = std::to_string(i) + "-" + metric_safe(seq->child(i).name());
    const double fwd_ms = median(fwd[i]);
    report.per_layer.set("nn.fwd_ms." + id, fwd_ms, "ms");
    report.per_layer.set("nn.bwd_ms." + id, median(bwd[i]), "ms");
    const double flop = 2.0 * static_cast<double>(seq->child(i).flops()) * kBatch;
    report.per_layer.set("nn.gflops." + id, flop / (fwd_ms * 1e-3) / 1e9, "GFLOP/s");
  }
}

}  // namespace

void run_prune_cold(const Args& args, Trace& trace, Report& report) {
  const int cycles = exp::fast_scale().cycles;
  std::vector<double> setup_s;
  std::vector<Setup> setups;
  for (int k = 0; k < setup_count(args); ++k) setups.push_back(set_up(args, trace, k, setup_s));

  std::vector<double> wall;
  // Repetition 0 always runs untraced: its digest is the workload's output
  // check.
  const RepResult first = run_rep(setups[0], trace);
  check_rep(first, cycles, report.outcome);
  report.outcome.digest = digest_of(first);
  report.outcome.digest_set = true;
  wall.push_back(first.wall_s);

  if (args.trace) {
    // Repetition 0 also warms the process up, so the overhead baseline is a
    // second untraced repetition.
    const RepResult baseline = run_rep(setups[1], trace);
    check_rep(baseline, cycles, report.outcome);
    wall.push_back(baseline.wall_s);
    obs::configure(obs::Config{true, ""});
    trace.set_recording(true);
    const RepResult traced = run_rep(setups[2], trace);
    trace.set_recording(false);
    check_rep(traced, cycles, report.outcome);
    auto& L = report.per_layer;
    L.set("data.synth_s", setups[2].synth_s, "s");
    const double trained_s = trace.total_s("exp.trained");
    const double sweep_s = trace.total_s("exp.sweep");
    L.set("exp.trained_s", trained_s, "s");
    L.set("exp.sweep_s", sweep_s, "s");
    L.set("exp.curve_s", trace.total_s("exp.curve"), "s");
    L.set("nn.train_samples_per_s", counter(obs::Counter::kTrainSamples) / (trained_s + sweep_s),
          "1/s");
    L.set("tensor.gemm_calls", counter(obs::Counter::kGemmCalls), "count");
    L.set("tensor.pool_chunks", counter(obs::Counter::kPoolChunks), "count");
    L.set("tensor.heap_allocs_hot", counter(obs::Counter::kMemHeapAllocsHot), "count");
    L.set("exp.bytes_written", counter(obs::Counter::kCacheBytesWritten), "B");
    L.set("sched.cells_claimed", counter(obs::Counter::kSchedCellsClaimed), "count");
    L.set("sched.retries", counter(obs::Counter::kSchedRetries), "count");
    L.set("trace.overhead_s", traced.wall_s - baseline.wall_s, "s");
    obs::configure(obs::Config{});
    module_ledger(setups[2], report);
  } else {
    for (int k = 1; k < rep_count(args); ++k) {
      const RepResult r = run_rep(setups[static_cast<size_t>(k)], trace);
      check_rep(r, cycles, report.outcome);
      wall.push_back(r.wall_s);
    }
  }

  // The workload's request is a whole table row, one cold Algorithm 1; its
  // time is the best repetition's, so a stall of the host has to hit every
  // repetition to move it.
  set_batch_metrics({*std::min_element(wall.begin(), wall.end())}, report);
  report.end_to_end.set("setup_s", median(setup_s), "s");
  report.per_layer.set("bench.reps", static_cast<double>(wall.size()), "count");
}

}  // namespace perfbench
