// potential_warm: the per-corruption prune-potential table from cached
// checkpoints — the path bench_potential_corrupt takes, with no training at
// all. Set-up publishes a WT family (unstructured masks) and an FT family
// (whole-filter masks) at a reduced training scale. The timed pass bakes each
// corruption at severity 3 and, for nominal plus every corruption, runs
// dense_error + curve_cached + prune_potential with no eval value cached
// yet: eval forwards through the sparse engine at batch 128 on two mask
// structures that `auto` lays out differently, corrupt baking, and many
// small value publishes beside checkpoint reads.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench/common.hpp"
#include "core/prune_potential.hpp"
#include "corrupt/corruption.hpp"
#include "exp/runner.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"

namespace perfbench {

namespace {

using namespace rp;

/// Timed passes of an untraced run, fixed by --seconds (a pass takes about
/// 6-7 s on a 4-CPU host at 2 threads) so the work, and the memory it holds,
/// does not depend on speed. A traced run makes 3. Each pass needs its own
/// set-up: a cache with checkpoints but no evals.
int pass_count(const Args& args) { return args.trace ? 3 : std::clamp(args.seconds / 7, 3, 8); }
constexpr core::PruneMethod kMethods[] = {core::PruneMethod::WT, core::PruneMethod::FT};
constexpr int kNumMethods = 2;

/// Reduced training scale: the checkpoints only need to exist and carry real
/// masks; the eval set is what the timed pass spends its time on.
exp::ExperimentScale warm_scale() {
  exp::ExperimentScale s = exp::fast_scale();
  s.train_n = 256;
  s.test_n = 128;  // one eval batch
  s.epochs = 2;
  s.retrain_epochs = 1;
  return s;
}

struct Setup {
  std::unique_ptr<exp::Runner> runner;
  std::vector<exp::Checkpoint> family[kNumMethods];
};

/// All set-ups publish the same families (same seed) into separate empty
/// directories, so every timed pass starts with checkpoints but no evals.
Setup set_up(const Args& args, const nn::TaskSpec& task, Trace& trace, int k,
             std::vector<double>& setup_s) {
  Span span(trace, "setup");
  const std::string dir = args.work_dir + "/warm" + std::to_string(k);
  fresh_dir(dir);
  exp::ArtifactCache cache(dir);
  Setup s{std::make_unique<exp::Runner>(warm_scale(), cache), {}};
  for (int m = 0; m < kNumMethods; ++m) s.family[m] = s.runner->sweep(kArch, task, kMethods[m], 0);
  setup_s.push_back(span.stop());
  return s;
}

struct Row {
  std::string dist;
  data::DatasetPtr ds;  ///< kept only by a pass that asks for it
  double base_error = 0.0;
  std::vector<core::CurvePoint> curve[kNumMethods];
  double potential[kNumMethods] = {0.0, 0.0};
  double seconds = 0.0;  ///< the row's time: bake, dense error, both curves
};

/// Counter deltas of the sparse engine per mask structure (traced pass only:
/// the counters read zero while obs is off).
struct SparseTally {
  double gemm[kNumMethods] = {0.0, 0.0};
  double sparse[kNumMethods] = {0.0, 0.0};
  double bytes_saved[kNumMethods] = {0.0, 0.0};
};

/// One pass over the table. A row drops its baked set once it is timed
/// unless `keep_data`, so the passes of a run do not pile up data sets.
std::vector<Row> run_pass(exp::Runner& runner, const nn::TaskSpec& task, Trace& trace,
                          bool keep_data, SparseTally* tally = nullptr) {
  Span pass(trace, "warm.pass");
  const int severity = runner.scale().severity;
  std::vector<std::string> dists{"nominal"};
  for (const auto& name : corrupt::all_names()) dists.push_back(name);
  std::vector<Row> rows;
  for (const auto& dist : dists) {
    Row row;
    row.dist = dist;
    const int64_t t0 = now_ns();
    {
      Span span(trace, "corrupt.bake");
      row.ds = dist == "nominal" ? runner.test_set(task)
                                 : bench::corrupted_test(runner, task, dist, severity);
    }
    {
      Span span(trace, "exp.dense_error");
      row.base_error = runner.dense_error(kArch, task, 0, *row.ds);
    }
    for (int m = 0; m < kNumMethods; ++m) {
      const double g0 = counter(obs::Counter::kGemmCalls);
      const double s0 = counter(obs::Counter::kGemmSparseCalls);
      const double b0 = counter(obs::Counter::kSparseBytesSaved);
      {
        Span span(trace, "exp.curve_cached");
        row.curve[m] = runner.curve_cached(kArch, task, kMethods[m], 0, *row.ds);
      }
      if (tally != nullptr) {
        tally->gemm[m] += counter(obs::Counter::kGemmCalls) - g0;
        tally->sparse[m] += counter(obs::Counter::kGemmSparseCalls) - s0;
        tally->bytes_saved[m] += counter(obs::Counter::kSparseBytesSaved) - b0;
      }
      Span span(trace, "core.prune_potential");
      row.potential[m] = core::prune_potential(row.curve[m], row.base_error, bench::kDelta);
    }
    row.seconds = 1e-9 * static_cast<double>(now_ns() - t0);
    if (!keep_data) row.ds.reset();
    rows.push_back(std::move(row));
  }
  std::fprintf(stderr, "potential_warm pass: %.3f s\n", pass.stop());
  return rows;
}

/// One check per published cell. Every pass after the first must also
/// reproduce the first bit for bit (same inputs, fresh caches).
void check_pass(const std::vector<Row>& rows, const std::vector<Row>* reference, int cycles,
                Outcome& out) {
  for (size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    const Row* ref = reference != nullptr ? &(*reference)[r] : nullptr;
    out.check(in_unit_interval(row.base_error) &&
              (ref == nullptr || row.base_error == ref->base_error));
    for (int m = 0; m < kNumMethods; ++m) {
      const auto& curve = row.curve[m];
      bool ok = curve.size() == static_cast<size_t>(cycles);
      bool potential_ok = row.potential[m] == 0.0;
      for (size_t c = 0; c < curve.size(); ++c) {
        const bool point_ok =
            ok && in_unit_interval(curve[c].error) && curve[c].ratio > 0.0 &&
            curve[c].ratio < 1.0 &&
            (ref == nullptr || (curve[c].error == ref->curve[m][c].error &&
                                curve[c].ratio == ref->curve[m][c].ratio));
        out.check(point_ok);
        potential_ok |= curve[c].ratio == row.potential[m];
      }
      out.check(ok && potential_ok && (ref == nullptr || row.potential[m] == ref->potential[m]));
    }
  }
}

uint32_t digest_of(const Setup& s, const std::vector<Row>& rows) {
  Digest d;
  for (const auto& family : s.family) {
    for (const auto& c : family) {
      d.add(c.ratio);
      d.add_state(c.state);
    }
  }
  for (const Row& row : rows) {
    d.add(row.dist);
    d.add(row.base_error);
    for (int m = 0; m < kNumMethods; ++m) {
      for (const auto& p : row.curve[m]) d.add(p.error);
      d.add(row.potential[m]);
    }
  }
  return d.value();
}

/// Measured eval speedup of each checkpoint over its dense parent on the
/// nominal test set, next to its FLOP reduction (FR, Tables 4/6/8).
void speedup_ledger(Setup& s, const nn::TaskSpec& task, Report& report) {
  constexpr int kRounds = 3;
  exp::Runner& runner = *s.runner;
  const data::Dataset& test = *runner.test_set(task);
  // nets[0] is the dense parent, then every checkpoint of each family.
  std::vector<nn::NetworkPtr> nets;
  std::vector<const exp::Checkpoint*> checkpoints{nullptr};
  std::vector<std::string> ids{""};
  nets.push_back(runner.trained(kArch, task, 0));
  for (int m = 0; m < kNumMethods; ++m) {
    for (size_t c = 0; c < s.family[m].size(); ++c) {
      checkpoints.push_back(&s.family[m][c]);
      nets.push_back(runner.instantiate(kArch, task, *checkpoints.back()));
      ids.push_back(core::to_string(kMethods[m]) + ".c" + std::to_string(c + 1));
    }
  }
  std::vector<std::vector<double>> eval_s(nets.size());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < nets.size(); ++i) {
      const int64_t t = now_ns();
      nn::evaluate(*nets[i], test);
      eval_s[i].push_back(1e-9 * static_cast<double>(now_ns() - t));
    }
  }
  const double dense_s = median(eval_s[0]);
  for (size_t i = 1; i < nets.size(); ++i) {
    report.per_layer.set("nn.eval_speedup." + ids[i], dense_s / median(eval_s[i]), "x");
    report.per_layer.set(
        "nn.flop_reduction." + ids[i],
        bench::flop_reduction(runner, kArch, task, *checkpoints[i], nets[0]->flops()), "ratio");
  }
}

}  // namespace

void run_potential_warm(const Args& args, Trace& trace, Report& report) {
  nn::TaskSpec task = nn::synth_cifar_task();
  task.name += "_s" + std::to_string(args.seed);
  const int cycles = warm_scale().cycles;
  const int passes = pass_count(args);

  std::vector<double> setup_s;
  std::vector<Setup> setups;
  for (int k = 0; k < passes; ++k) setups.push_back(set_up(args, task, trace, k, setup_s));

  // Pass 0 is always untraced: its digest is the workload's output check.
  std::vector<std::vector<Row>> timed;
  timed.reserve(static_cast<size_t>(passes));  // `first` must stay valid while timed grows
  timed.push_back(run_pass(*setups[0].runner, task, trace, false));
  const std::vector<Row>& first = timed.front();
  check_pass(first, nullptr, cycles, report.outcome);
  report.outcome.digest = digest_of(setups[0], first);
  report.outcome.digest_set = true;

  if (args.trace) {
    // Pass 0 also warms the process up, so the overhead baseline is a second
    // untraced pass.
    timed.push_back(run_pass(*setups[1].runner, task, trace, false));
    check_pass(timed.back(), &first, cycles, report.outcome);
    obs::configure(obs::Config{true, ""});
    trace.set_recording(true);
    SparseTally tally;
    const std::vector<Row> rows = run_pass(*setups[2].runner, task, trace, true, &tally);
    auto& L = report.per_layer;
    L.set("exp.cache_hits", counter(obs::Counter::kCacheHits), "count");
    L.set("exp.cache_misses", counter(obs::Counter::kCacheMisses), "count");
    L.set("exp.bytes_read", counter(obs::Counter::kCacheBytesRead), "B");
    check_pass(rows, &first, cycles, report.outcome);

    // The same cells evaluated by Runner::curve on in-memory families: no
    // cache, no lease, no publish. Their errors must equal the cached ones.
    Setup& plain = setups[0];  // only its in-memory families are used
    for (const Row& row : rows) {
      for (int m = 0; m < kNumMethods; ++m) {
        std::vector<core::CurvePoint> curve;
        {
          Span span(trace, "nn.curve");
          curve = plain.runner->curve(kArch, task, plain.family[m], *row.ds);
        }
        bool same = curve.size() == row.curve[m].size();
        for (size_t c = 0; same && c < curve.size(); ++c) {
          same = curve[c].error == row.curve[m][c].error;
        }
        report.outcome.check(same);
      }
    }
    trace.set_recording(false);
    const double eval_s = trace.total_s("nn.curve");
    const double images = static_cast<double>(rows.size()) * kNumMethods * cycles *
                          static_cast<double>(warm_scale().test_n);
    L.set("corrupt.bake_s", trace.total_s("corrupt.bake"), "s");
    L.set("nn.eval_s", eval_s, "s");
    L.set("exp.publish_overhead_s", trace.total_s("exp.curve_cached") - eval_s, "s");
    L.set("nn.eval_img_per_s", images / eval_s, "1/s");
    for (int m = 0; m < kNumMethods; ++m) {
      const std::string name = core::to_string(kMethods[m]);
      L.set("tensor.sparse_share." + name,
            tally.sparse[m] / std::max(1.0, tally.sparse[m] + tally.gemm[m]), "ratio");
      L.set("tensor.sparse_bytes_saved." + name, tally.bytes_saved[m], "B");
    }
    const auto pass_s = [](const std::vector<Row>& p) {
      double sum = 0.0;
      for (const Row& row : p) sum += row.seconds;
      return sum;
    };
    L.set("trace.overhead_s", pass_s(rows) - pass_s(timed.back()), "s");
    obs::configure(obs::Config{});
    speedup_ledger(setups[0], task, report);
  } else {
    for (int k = 1; k < passes; ++k) {
      timed.push_back(run_pass(*setups[static_cast<size_t>(k)].runner, task, trace, false));
      check_pass(timed.back(), &first, cycles, report.outcome);
    }
  }

  // Each row's best time over the untraced passes: a stall of the host has
  // to hit the same row in every pass to move it.
  std::vector<double> row_s;
  for (size_t r = 0; r < first.size(); ++r) {
    double best = first[r].seconds;
    for (const auto& p : timed) best = std::min(best, p[r].seconds);
    row_s.push_back(best);
  }
  set_batch_metrics(row_s, report);
  report.end_to_end.set("setup_s", median(setup_s), "s");
  report.per_layer.set("bench.passes", static_cast<double>(timed.size()), "count");
}

}  // namespace perfbench
