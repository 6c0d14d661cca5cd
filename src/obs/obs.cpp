#include "obs/obs.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <unistd.h>
#include <vector>

namespace rp::obs {

namespace detail {
// rp-lint: allow(R3) observability master switch; flipped only by configure()
std::atomic<bool> g_enabled{false};
// rp-lint: allow(R3) counter slots; atomics outside every result path
std::atomic<int64_t> g_counters[static_cast<int>(Counter::kCount)];
}  // namespace detail

namespace {

/// One finished span, buffered for the trace file.
struct TraceEvent {
  std::string name;
  int tid = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

struct SpanAgg {
  int64_t calls = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
};

/// Trace buffer cap: a runaway per-element span cannot exhaust memory; drops
/// are counted (kSpansDropped) and reported, never silent.
constexpr size_t kMaxTraceEvents = size_t{1} << 20;

/// Everything behind the fast-path switch lives in one mutex-guarded blob;
/// spans are phase-granularity, so contention is negligible.
struct State {
  std::mutex m;
  Config cfg;
  bool tracing = false;
  bool flushed = false;
  int64_t epoch_ns = 0;  ///< wall origin of the current trace
  std::vector<TraceEvent> events;
  std::map<std::string, SpanAgg> aggregates;
};

State& state() {
  // rp-lint: allow(R3) obs-internal registry; guarded by its mutex throughout
  static State s;
  return s;
}

// rp-lint: allow(R3) next free trace thread id
std::atomic<int> g_next_tid{0};
// rp-lint: allow(R3) per-thread trace id; -1 = not yet assigned
thread_local int tl_tid = -1;

void finish_at_exit() { finish(); }

/// Minimal JSON string escaping for span names (quotes, backslashes,
/// control characters).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void write_trace_locked(State& s) {
  if (!s.tracing || s.cfg.trace_path.empty()) return;
  // Write-then-rename: concurrent processes pointed at one RP_TRACE path
  // (e.g. a ctest suite pass) each produce a complete file; the survivor is
  // whichever renamed last, never an interleaving.
  const std::string tmp = s.cfg.trace_path + ".tmp." + std::to_string(::getpid());
  {
    // rp-lint: allow(R8) trace output is best-effort diagnostics, not a cache artifact
    std::ofstream os(tmp);
    if (!os) return;  // tracing is best-effort; never fail the experiment
    os.setf(std::ios::fixed);
    os.precision(3);  // microsecond timestamps with ns resolution
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent& e : s.events) {
      if (!first) os << ",";
      first = false;
      os << "\n{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\"rp\",\"ph\":\"X\""
         << ",\"ts\":" << static_cast<double>(e.start_ns) / 1e3
         << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1e3
         << ",\"pid\":0,\"tid\":" << e.tid << "}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
    os.flush();
    if (!os) return;
  }
  std::error_code ec;
  // rp-lint: allow(R8) trace publish; losing a trace never loses results
  std::filesystem::rename(tmp, s.cfg.trace_path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

void print_summary_locked(State& s) {
  std::fprintf(stderr, "\n== rp::obs summary ==\n");
  std::fprintf(stderr, "counters:\n");
  for (int i = 0; i < static_cast<int>(Counter::kCount); ++i) {
    const int64_t v = detail::g_counters[i].load(std::memory_order_relaxed);
    if (v == 0) continue;
    std::fprintf(stderr, "  %-20s %12lld\n", counter_name(static_cast<Counter>(i)),
                 static_cast<long long>(v));
  }
  if (!s.aggregates.empty()) {
    std::fprintf(stderr, "spans (wall ms, cpu ms, calls):\n");
    for (const auto& [name, agg] : s.aggregates) {
      std::fprintf(stderr, "  %-28s %10.2f %10.2f %8lld\n", name.c_str(),
                   static_cast<double>(agg.wall_ns) / 1e6, static_cast<double>(agg.cpu_ns) / 1e6,
                   static_cast<long long>(agg.calls));
    }
  }
  if (s.tracing && !s.cfg.trace_path.empty()) {
    std::fprintf(stderr, "trace: %s (%zu events)\n", s.cfg.trace_path.c_str(), s.events.size());
  }
}

}  // namespace

namespace detail {

int64_t wall_now_ns() {
  // The one wall-clock read in checked code: span timing only, never results.
  // rp-lint: allow(R1) observability timestamps; values never feed results
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

int64_t cpu_now_ns() {
  ::timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void span_end(const std::string& name, int64_t wall_start_ns, int64_t cpu_start_ns) {
  const int64_t wall_end = wall_now_ns();
  const int64_t cpu_end = cpu_now_ns();
  const int tid = thread_id();
  State& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  if (!g_enabled.load(std::memory_order_relaxed)) return;  // disabled mid-span
  SpanAgg& agg = s.aggregates[name];
  agg.calls += 1;
  agg.wall_ns += wall_end - wall_start_ns;
  agg.cpu_ns += cpu_end - cpu_start_ns;
  count(Counter::kSpans);
  if (!s.tracing) return;
  if (s.events.size() >= kMaxTraceEvents) {
    count(Counter::kSpansDropped);
    return;
  }
  s.events.push_back({name, tid, wall_start_ns - s.epoch_ns, wall_end - wall_start_ns});
}

}  // namespace detail

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kCacheHits: return "cache.hits";
    case Counter::kCacheMisses: return "cache.misses";
    case Counter::kCacheBytesRead: return "cache.bytes_read";
    case Counter::kCacheBytesWritten: return "cache.bytes_written";
    case Counter::kCacheCorrupt: return "cache.corrupt_quarantined";
    case Counter::kCacheReadErrors: return "cache.read_errors";
    case Counter::kIoRetries: return "io.retries";
    case Counter::kFaultsInjected: return "faults.injected";
    case Counter::kGemmCalls: return "gemm.calls";
    case Counter::kPoolTasks: return "pool.tasks";
    case Counter::kPoolChunks: return "pool.chunks";
    case Counter::kTrainSamples: return "train.samples";
    case Counter::kEvalSamples: return "eval.samples";
    case Counter::kGemmSparseCalls: return "gemm.sparse_calls";
    case Counter::kSparseNnz: return "sparse.nnz";
    case Counter::kSparseBytesSaved: return "sparse.bytes_saved";
    case Counter::kMemHeapAllocsHot: return "mem.heap_allocs_hot";
    case Counter::kServeRequests: return "serve.requests";
    case Counter::kServeBatches: return "serve.batches";
    case Counter::kServeRejects: return "serve.rejects";
    case Counter::kSchedCellsClaimed: return "sched.cells_claimed";
    case Counter::kSchedCellsReclaimed: return "sched.cells_reclaimed";
    case Counter::kSchedRetries: return "sched.retries";
    case Counter::kSchedPoisoned: return "sched.poisoned";
    case Counter::kSpans: return "trace.spans";
    case Counter::kSpansDropped: return "trace.spans_dropped";
    case Counter::kCount: break;
  }
  return "?";
}

int64_t counter_value(Counter c) {
  return detail::g_counters[static_cast<int>(c)].load(std::memory_order_relaxed);
}

std::vector<SpanStat> span_stats() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  std::vector<SpanStat> out;
  out.reserve(s.aggregates.size());
  for (const auto& [name, agg] : s.aggregates) {
    out.push_back({name, agg.calls, agg.wall_ns, agg.cpu_ns});
  }
  return out;  // std::map iteration: already name-sorted
}

void configure(const Config& cfg) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  s.cfg = cfg;
  s.tracing = !cfg.trace_path.empty();
  s.flushed = false;
  s.epoch_ns = detail::wall_now_ns();
  s.events.clear();
  s.aggregates.clear();
  for (auto& c : detail::g_counters) c.store(0, std::memory_order_relaxed);
  detail::g_enabled.store(cfg.metrics || s.tracing, std::memory_order_relaxed);
  if (s.tracing) {
    // rp-lint: allow(R3) one-time atexit registration flag
    static const bool registered = [] {
      std::atexit(finish_at_exit);
      return true;
    }();
    (void)registered;
  }
}

void init_from_env() {
  Config cfg;
  if (const char* trace = std::getenv("RP_TRACE"); trace != nullptr && trace[0] != '\0') {
    cfg.trace_path = trace;
    cfg.metrics = true;  // a trace implies the summary
  }
  if (const char* on = std::getenv("RP_OBS"); on != nullptr && on[0] != '\0' &&
                                              std::string(on) != "0") {
    cfg.metrics = true;
  }
  configure(cfg);
}

bool tracing_enabled() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  return s.tracing;
}

bool metrics_enabled() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  return s.cfg.metrics;
}

void finish() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  if (s.flushed || !(s.cfg.metrics || s.tracing)) return;
  s.flushed = true;
  write_trace_locked(s);
  if (s.cfg.metrics) print_summary_locked(s);
}

int thread_id() {
  if (tl_tid < 0) tl_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tl_tid;
}

void set_thread_id(int id) {
  tl_tid = id;
  int next = g_next_tid.load(std::memory_order_relaxed);
  while (next <= id &&
         !g_next_tid.compare_exchange_weak(next, id + 1, std::memory_order_relaxed)) {
  }
}

namespace {
// Claim trace-thread id 0 for the main thread and pick up RP_TRACE / RP_OBS
// before main() runs. Last in the TU so every obs global above is already
// initialized.
const bool g_env_init = [] {
  thread_id();
  init_from_env();
  return true;
}();
}  // namespace

}  // namespace rp::obs
