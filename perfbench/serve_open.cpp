// serve_open: an open loop over a resnet8 family (the dense parent plus three
// WT variants) served by serve::Engine with its default EngineConfig. One
// generator thread sends single-sample requests on a fixed schedule with
// mixed distribution tags, so the router sends traffic to every variant; one
// collector thread waits on the tickets. The schedule is a ladder of fixed
// rates, and each request's latency counts from the time it was due, so a
// stall also delays the requests queued behind it. This is the only workload
// that runs the serve dispatcher, batching and router: the same sparse
// forward as potential_warm, but at batch <= 16. No training, no writes
// after set-up.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/pruner.hpp"
#include "data/synth.hpp"
#include "exp/cache.hpp"
#include "harness.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "obs/obs.hpp"
#include "serve/engine.hpp"

namespace perfbench {

namespace {

using namespace rp;

constexpr double kRatios[] = {0.3, 0.6, 0.8};
/// nominal -> p80, shifted -> p60, mild -> p30, unknown -> dense parent.
constexpr const char* kTags[] = {"nominal", "shifted", "mild", "unknown"};
constexpr int kNumTags = 4;
constexpr int kSetups = 25;  // each about 12 ms: publish four states, load the registry
constexpr int kPool = 256;  // distinct request images

struct Rung {
  int rate;      ///< requests per second
  double share;  ///< share of --seconds spent at this rate
};
/// Fixed ladder, each rung a whole number of seconds at --seconds 20. The
/// three lower rungs give the latency profile below the knee. The top rung
/// offers more than the engine can take on purpose: a 4-CPU host with 2
/// pool threads completes about 2.5k-6k req/s, so the engine runs at its
/// capacity there and admission control refuses the excess. Its rate drifts
/// by 15 percent from one second to the next, so it gets the longest rung.
constexpr Rung kLadder[] = {
    {500, 2.0 / 20}, {1000, 6.0 / 20}, {2000, 3.0 / 20}, {10000, 9.0 / 20}};
/// The rate below the knee where lat_p50_ms is read. Refusals at or below it
/// are failures; above it they are the overload signal.
/// The tail percentiles are per-layer metrics only: on a shared virtual
/// machine they follow the host's vCPU wake-up jitter (a bare sleep_until
/// loop shows p99 lateness anywhere from 0.2 to 5 ms from one run to the
/// next), too unsteady to bound.
constexpr int kReferenceRate = 1000;
/// Latency recorded for a refused or failed request, which misses any limit
/// (finite, so every quantile stays a JSON number).
constexpr double kRefusedMs = 1e6;

struct Served {
  std::unique_ptr<exp::ArtifactCache> cache;
  serve::FamilySpec spec;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::Router> router;
};

std::string variant_key(double ratio) {
  return "serve/p" + std::to_string(static_cast<int>(ratio * 100 + 0.5));
}

/// Set-up: publish the family into an empty cache directory, load it into a
/// registry, and register the router's evidence. The nets stay untrained:
/// training does not change what a forward pass costs.
Served set_up(const Args& args, Trace& trace, int k, std::vector<double>& setup_s,
              std::vector<double>& load_s) {
  Span span(trace, "setup");
  Served s;
  const std::string dir = args.work_dir + "/serve" + std::to_string(k);
  fresh_dir(dir);
  s.cache = std::make_unique<exp::ArtifactCache>(dir);
  s.spec.arch = kArch;
  s.spec.task = nn::synth_cifar_task();
  s.spec.parent_key = "serve/parent";
  const uint64_t init = seed_from_string(("serve/s" + std::to_string(args.seed)).c_str());
  const auto parent = nn::build_network(kArch, s.spec.task, init);
  for (const double ratio : kRatios) {
    auto net = nn::build_network(kArch, s.spec.task, init);
    net->load_state(parent->state());
    core::prune_to_ratio(*net, core::PruneMethod::WT, ratio);
    s.cache->put_state(variant_key(ratio), net->state());
    s.spec.variant_keys.push_back(variant_key(ratio));
  }
  s.cache->put_state(s.spec.parent_key, parent->state());
  {
    Span load(trace, "serve.registry_load");
    s.registry = std::make_unique<serve::ModelRegistry>(s.spec, *s.cache);
    load_s.push_back(load.stop());
  }
  s.router = std::make_unique<serve::Router>(*s.registry);
  core::PotentialEvidence e;
  e.train = 0.95;
  e.test_average = 0.9;
  e.test_minimum = 0.95;
  s.router->set_evidence("nominal", e);
  e.test_minimum = 0.65;
  s.router->set_evidence("shifted", e);
  e.test_minimum = 0.35;
  s.router->set_evidence("mild", e);
  setup_s.push_back(span.stop());
  return s;
}

int variant_index(const serve::ModelRegistry& registry, const std::string& key) {
  const auto& vs = registry.variants();
  for (size_t i = 0; i < vs.size(); ++i) {
    if (vs[i].key == key) return static_cast<int>(i);
  }
  return -1;
}

struct Request {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  double lat_ms = 0.0;  ///< reported latency: done - due, kRefusedMs if refused or failed
  int sample = 0;
  int tag = 0;
  std::optional<serve::Engine::Ticket> ticket;
  bool failed = false;
  std::string variant_key;
  int variant = -1;
  std::vector<float> logits;
};

struct RungResult {
  int rate = 0;
  int64_t sent = 0;
  int64_t refused = 0;
  int64_t failures = 0;
  double p50_ms = 0.0;         ///< over the whole rung
  double p95_ms = 0.0;         ///< over the whole rung
  double p99_ms = 0.0;         ///< median of the one-second windows' p99
  double served_p99_ms = 0.0;  ///< p99 over the admitted requests only
  double late_p99_ms = 0.0;    ///< how late the generator sent, p99
  double batch_mean = 0.0;
  double achieved_qps = 0.0;   ///< served requests per second while the rung sends
};

/// Deliberate stalls for the self-test: the generator sleeps before sending
/// request `generator_at`, the collector before waiting on `collector_at`.
struct Stall {
  size_t generator_at = 0;
  size_t collector_at = 0;
  int64_t ns = 0;
};

/// One rung of the ladder: `rate` req/s for `seconds`, open loop. Latency
/// of request i is done_i - due_i; a refused request counts as kRefusedMs.
///
/// The engine takes pending requests in FIFO order and wakes its waiters
/// once per executed batch, so tickets complete in send order and one
/// collector waiting on them in that order sees each completion as soon as
/// it happens. The collector does nothing else between two waits; the
/// bookkeeping runs after the rung.
RungResult run_rung(serve::Engine& engine, const serve::ModelRegistry& registry,
                    const std::vector<Tensor>& samples, int rate, double seconds, int& next_sample,
                    Trace& trace, std::vector<Request>& log, const Stall* stall = nullptr) {
  Span rung_span(trace, "serve.rung");
  const auto n = static_cast<size_t>(std::max<long long>(1, std::llround(rate * seconds)));
  std::vector<Request> reqs(n);
  const int64_t t0 = now_ns() + 2'000'000;
  const double gap_ns = 1e9 / rate;
  for (size_t i = 0; i < n; ++i) {
    reqs[i].due_ns = t0 + static_cast<int64_t>(std::llround(static_cast<double>(i) * gap_ns));
    reqs[i].sample = next_sample % kPool;
    reqs[i].tag = next_sample % kNumTags;
    ++next_sample;
  }
  const serve::Engine::Stats before = engine.stats();

  std::atomic<size_t> published{0};
  std::thread collector([&] {  // waits on tickets in send order
    Tensor logits;
    serve::RouteInfo info;
    for (size_t i = 0; i < n; ++i) {
      size_t seen = published.load(std::memory_order_acquire);
      while (seen <= i) {
        published.wait(seen, std::memory_order_acquire);
        seen = published.load(std::memory_order_acquire);
      }
      if (stall != nullptr && i == stall->collector_at) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall->ns));
      }
      Request& r = reqs[i];
      if (!r.ticket) continue;
      try {
        engine.wait_into(*r.ticket, &logits, &info);
        r.done_ns = now_ns();
        const auto d = logits.data();
        r.logits.assign(d.begin(), d.end());
        r.variant_key = info.variant_key;
      } catch (const std::exception&) {
        r.done_ns = now_ns();
        r.failed = true;
      }
    }
  });
  for (size_t i = 0; i < n; ++i) {
    Request& r = reqs[i];
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(r.due_ns)));
    if (stall != nullptr && i == stall->generator_at) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall->ns));
    }
    r.sent_ns = now_ns();
    r.ticket = engine.submit(samples[static_cast<size_t>(r.sample)], kTags[r.tag]);
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  collector.join();
  rung_span.stop();
  const serve::Engine::Stats after = engine.stats();

  RungResult out;
  out.rate = rate;
  out.sent = static_cast<int64_t>(n);
  std::vector<double> lat_ms;
  std::vector<double> served_ms;
  std::vector<double> late_ms;
  const int64_t end_ns = t0 + static_cast<int64_t>(seconds * 1e9);  // the last send is due here
  int64_t completed = 0;
  int64_t first_done_ns = end_ns;
  int64_t last_done_ns = t0;
  for (Request& r : reqs) {
    late_ms.push_back(1e-6 * static_cast<double>(r.sent_ns - r.due_ns));
    if (!r.ticket) {
      ++out.refused;
      r.lat_ms = kRefusedMs;
    } else if (r.failed) {
      ++out.failures;
      r.lat_ms = kRefusedMs;
    } else {
      r.lat_ms = 1e-6 * static_cast<double>(r.done_ns - r.due_ns);
      r.variant = variant_index(registry, r.variant_key);
      served_ms.push_back(r.lat_ms);
      if (r.done_ns < end_ns) {
        ++completed;
        first_done_ns = std::min(first_done_ns, r.done_ns);
        last_done_ns = std::max(last_done_ns, r.done_ns);
      }
    }
    if (r.ticket) trace.add("serve.request", r.due_ns, r.done_ns, rung_span.id());
    lat_ms.push_back(r.lat_ms);
  }
  out.p50_ms = quantile(lat_ms, 0.50);
  out.p95_ms = quantile(lat_ms, 0.95);
  out.served_p99_ms = served_ms.empty() ? kRefusedMs : quantile(served_ms, 0.99);
  out.late_p99_ms = quantile(late_ms, 0.99);
  if (completed > 1) {
    out.achieved_qps = static_cast<double>(completed - 1) /
                       (1e-9 * static_cast<double>(last_done_ns - first_done_ns));
  }
  std::vector<double> window_p99;
  const size_t per_window = std::min(n, static_cast<size_t>(rate));  // one second
  for (size_t w0 = 0; w0 + per_window <= n; w0 += per_window) {
    const std::vector<double> w(lat_ms.begin() + static_cast<std::ptrdiff_t>(w0),
                                lat_ms.begin() + static_cast<std::ptrdiff_t>(w0 + per_window));
    window_p99.push_back(quantile(w, 0.99));
  }
  out.p99_ms = quantile(window_p99, 0.5);  // nearest rank: never averages in a refusal
  const int64_t batches = after.batches - before.batches;
  out.batch_mean = batches > 0 ? static_cast<double>(after.requests - before.requests) /
                                     static_cast<double>(batches)
                               : 0.0;
  for (Request& r : reqs) log.push_back(std::move(r));
  return out;
}

/// Open-loop honesty check, run once before the ladders, on one rung with two
/// deliberate stalls of kStallMs after a quiet stretch (the first kWarmUp
/// requests also warm the engine up and are not judged):
///  - the generator stalls before sending request kGeneratorAt, so the
///    requests due during the stall go out late, in one burst. The latency
///    the rung reports counts from the due time and must carry the stall:
///    it exceeds the same requests' latency timed from their send by about
///    half the stall. A harness that timed from the send would report only
///    the time the engine took for the burst, and fail here.
///  - the collector stalls before waiting on request kCollectorAt. The
///    generator must keep sending on time (it does not pace itself on the
///    responses), and the reported latency of those requests rises too.
bool stalled_consumer_self_test(serve::Engine& engine, const serve::ModelRegistry& registry,
                                const std::vector<Tensor>& samples, Trace& trace,
                                std::vector<Request>& log) {
  constexpr int kRate = 500;
  constexpr size_t kWarmUp = 50;
  constexpr size_t kGeneratorAt = 200;
  constexpr size_t kCollectorAt = 400;
  // 20 requests pile up during a stall, well under queue_depth even when a
  // busy host slows the engine down: nothing is refused.
  constexpr int64_t kStallMs = 40;
  constexpr size_t kStalled = kStallMs * kRate / 1000;  // requests due during a stall
  std::vector<Request> reqs;
  int next_sample = 0;
  const Stall stall{kGeneratorAt, kCollectorAt, kStallMs * 1'000'000};
  const RungResult r =
      run_rung(engine, registry, samples, kRate, 1.0, next_sample, trace, reqs, &stall);
  const auto median_ms = [&](size_t lo, int64_t Request::*from, int64_t Request::*to) {
    std::vector<double> ms;
    for (size_t i = lo; i < lo + kStalled; ++i) {
      ms.push_back(1e-6 * static_cast<double>(reqs[i].*to - reqs[i].*from));
    }
    return median(ms);
  };
  const auto reported_ms = [&](size_t lo, size_t hi) {
    std::vector<double> ms;
    for (size_t i = lo; i < hi; ++i) ms.push_back(reqs[i].lat_ms);
    return median(ms);
  };
  const double quiet = reported_ms(kWarmUp, kGeneratorAt);
  const double generator = reported_ms(kGeneratorAt, kGeneratorAt + kStalled);
  const double generator_from_send =
      median_ms(kGeneratorAt, &Request::sent_ns, &Request::done_ns);
  const double collector = reported_ms(kCollectorAt, kCollectorAt + kStalled);
  const double collector_late = median_ms(kCollectorAt, &Request::due_ns, &Request::sent_ns);
  const double carried = kStallMs / 2.0 - 5.0;
  const double small = kStallMs / 4.0;
  const bool ok = r.refused == 0 && r.failures == 0 && quiet < small &&
                  generator - generator_from_send >= carried && collector >= carried &&
                  collector_late < small;
  std::fprintf(stderr,
               "serve_open self-test: %lld ms stalls; median latency quiet %.3f ms, generator "
               "stall %.3f ms (%.3f ms from send), collector stall %.3f ms (sent %.3f ms late): "
               "%s\n",
               static_cast<long long>(kStallMs), quiet, generator, generator_from_send, collector,
               collector_late, ok ? "ok" : "FAILED");
  for (Request& q : reqs) log.push_back(std::move(q));
  return ok;
}

struct LadderResult {
  std::vector<RungResult> rungs;
  double wall_s = 0.0;
};

LadderResult run_ladder(serve::Engine& engine, const serve::ModelRegistry& registry,
                        const std::vector<Tensor>& samples, double seconds, Trace& trace,
                        std::vector<Request>& log) {
  LadderResult out;
  int next_sample = 0;
  Span ladder(trace, "serve.ladder");
  for (const Rung& rung : kLadder) {
    out.rungs.push_back(run_rung(engine, registry, samples, rung.rate, rung.share * seconds,
                                 next_sample, trace, log));
  }
  out.wall_s = ladder.stop();
  return out;
}

const RungResult& reference_rung(const LadderResult& l) {
  for (const auto& r : l.rungs) {
    if (r.rate == kReferenceRate) return r;
  }
  throw std::logic_error("reference rate missing from the ladder");
}

}  // namespace

void run_serve_open(const Args& args, Trace& trace, Report& report) {
  std::vector<double> setup_s;
  std::vector<double> load_s;
  for (int k = 0; k + 1 < kSetups; ++k) set_up(args, trace, k, setup_s, load_s);  // timed repeats
  const Served s = set_up(args, trace, kSetups - 1, setup_s, load_s);
  const serve::ModelRegistry& registry = *s.registry;
  const nn::TaskSpec& task = registry.task();
  if (registry.variants().size() != 1 + std::size(kRatios)) {
    throw std::runtime_error("serve_open: registry dropped variants at load");
  }
  // Every tag must route to its own variant, so all four models serve.
  std::vector<int> routed(kNumTags);
  for (int t = 0; t < kNumTags; ++t) {
    routed[static_cast<size_t>(t)] =
        variant_index(registry, s.router->route(kTags[t]).variant->key);
    for (int u = 0; u < t; ++u) {
      if (routed[static_cast<size_t>(u)] == routed[static_cast<size_t>(t)]) {
        throw std::runtime_error("serve_open: two tags route to one variant");
      }
    }
  }

  data::SynthConfig cfg;
  cfg.n = kPool;
  cfg.h = task.in_h;
  cfg.w = task.in_w;
  cfg.num_classes = task.num_classes;
  cfg.seed = seed_from_string(("serve/images/s" + std::to_string(args.seed)).c_str());
  const Tensor pool = data::make_synth_classification(cfg)->images();
  const int64_t row = pool.numel() / kPool;
  std::vector<Tensor> samples;
  for (int i = 0; i < kPool; ++i) {
    const float* src = pool.data().data() + i * row;
    samples.emplace_back(Shape{task.in_c, task.in_h, task.in_w},
                         std::vector<float>(src, src + row));
  }

  serve::Engine engine(registry, *s.router, serve::EngineConfig{});
  engine.start();
  std::vector<Request> log;
  report.outcome.check(stalled_consumer_self_test(engine, registry, samples, trace, log));
  const LadderResult plain = run_ladder(engine, registry, samples, args.seconds, trace, log);
  LadderResult traced;
  if (args.trace) {
    obs::configure(obs::Config{true, ""});
    trace.set_recording(true);
    traced = run_ladder(engine, registry, samples, args.seconds, trace, log);
    trace.set_recording(false);
    obs::configure(obs::Config{});
  }
  engine.stop();

  // Reference logits: every variant reloaded from its artifact into a fresh
  // network and run through nn::predict over the whole image pool.
  Digest digest;
  std::vector<Tensor> expected;
  for (const serve::Variant& v : registry.variants()) {
    auto net = nn::build_network(kArch, task, 1);
    const auto state = s.cache->get_state(v.key);
    if (!state) throw std::runtime_error("serve_open: artifact " + v.key + " unreadable");
    net->load_state(*state);
    digest.add(v.key);
    digest.add_state(*state);
    expected.push_back(nn::predict(*net, pool));
    digest.add(expected.back());
  }
  report.outcome.digest = digest.value();
  report.outcome.digest_set = true;

  // Every response, byte for byte, against its routed variant's reference.
  const int64_t classes = expected.front().numel() / kPool;
  for (const Request& r : log) {
    if (!r.ticket || r.failed) continue;
    const bool routed_ok = r.variant == routed[static_cast<size_t>(r.tag)];
    const bool bytes_ok =
        routed_ok && static_cast<int64_t>(r.logits.size()) == classes &&
        std::memcmp(r.logits.data(),
                    expected[static_cast<size_t>(r.variant)].data().data() + r.sample * classes,
                    static_cast<size_t>(classes) * sizeof(float)) == 0;
    report.outcome.check(bytes_ok);
  }
  // Failures and refusals. Refusals above the reference rate are overload,
  // not failure: admission control sheds what exceeds the capacity.
  for (const LadderResult* l : {&plain, static_cast<const LadderResult*>(&traced)}) {
    for (const RungResult& r : l->rungs) {
      const int64_t refused_failures = r.rate <= kReferenceRate ? r.refused : 0;
      report.outcome.attempted += r.refused + r.failures;
      report.outcome.failed += refused_failures + r.failures;
    }
  }

  auto& E = report.end_to_end;
  const RungResult& ref = reference_rung(plain);
  E.set("setup_s", median(setup_s), "s");
  E.set("wall_s", plain.wall_s, "s");
  E.set("lat_p50_ms", ref.p50_ms, "ms");
  // The knee: what the engine completes per second when offered more than
  // it can take. Admission control keeps the backlog bounded there, and the
  // excess is refused rather than queued.
  E.set("max_qps", plain.rungs.back().achieved_qps, "1/s");

  auto& L = report.per_layer;
  L.set("serve.registry_load_s", median(load_s), "s");
  L.set("serve.lat_samples", static_cast<double>(ref.sent), "count");
  if (args.trace) {
    for (const RungResult& r : traced.rungs) {
      const std::string rate = ".r" + std::to_string(r.rate);
      L.set("serve.achieved_qps" + rate, r.achieved_qps, "1/s");
      L.set("serve.batch_mean" + rate, r.batch_mean, "count");
      L.set("serve.rejects" + rate, static_cast<double>(r.refused), "count");
      L.set("serve.lat_p50_ms" + rate, r.p50_ms, "ms");
      L.set("serve.lat_p95_ms" + rate, r.p95_ms, "ms");
      L.set("serve.lat_p99_ms" + rate, r.p99_ms, "ms");
    }
    L.set("loadgen.late_p99_ms", reference_rung(traced).late_p99_ms, "ms");
    // The ladder's length is fixed, so the overhead shows in the latency of a
    // request at the reference rate.
    L.set("trace.overhead_s", 1e-3 * (reference_rung(traced).p50_ms - ref.p50_ms), "s");
    // Lower bound of the forward inside lat_p50_ms: one max-batch predict.
    const int batch = serve::EngineConfig{}.max_batch;
    Tensor one_batch(Shape{batch, task.in_c, task.in_h, task.in_w},
                     std::vector<float>(pool.data().begin(), pool.data().begin() + batch * row));
    for (const serve::Variant& v : registry.variants()) {
      std::vector<double> ms;
      for (int i = 0; i < 20; ++i) {
        const int64_t t = now_ns();
        nn::predict(*v.net, one_batch, batch);
        ms.push_back(1e-6 * static_cast<double>(now_ns() - t));
      }
      const std::string name = v.key == s.spec.parent_key ? "parent" : v.key.substr(6);
      L.set("serve.predict_ms." + metric_safe(name), median(ms), "ms");
    }
  }
  for (const RungResult& r : plain.rungs) {
    std::fprintf(stderr,
                 "serve_open rung %5d req/s: sent %6lld refused %6lld p50 %7.3f p95 %7.3f "
                 "p99 %8.3f ms served p99 %7.3f ms late p99 %6.3f ms batch %5.2f achieved %8.1f/s\n",
                 r.rate, static_cast<long long>(r.sent), static_cast<long long>(r.refused),
                 r.p50_ms, r.p95_ms, r.p99_ms, r.served_p99_ms, r.late_p99_ms, r.batch_mean,
                 r.achieved_qps);
  }
}

}  // namespace perfbench
