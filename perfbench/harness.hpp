#pragma once

// Shared plumbing of the end-to-end benchmark: arguments, metrics, result
// digests, and the benchmark's own in-memory span recorder. Spans are taken
// around the benchmark's calls into each layer's public API; nothing here
// reaches inside src/.

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Every workload runs the registry's resnet8 on the SynthCIFAR task.
inline constexpr const char* kArch = "resnet8";

/// Monotonic nanoseconds (steady clock).
int64_t now_ns();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;         ///< working directory for the run's caches
  std::string expect_digest;    ///< hex crc32c recorded for this seed, or empty
};

/// Name -> (value, unit) in insertion order.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Counts of one run: every operation the workload attempted, the ones that
/// failed (an exception, a refusal the workload counts as failure, or an
/// output that did not match its reference), and the result digest.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatched = 0;  ///< subset of failed: wrong outputs
  uint32_t digest = 0;
  bool digest_set = false;

  /// Records one checked operation.
  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      ++mismatched;
    }
  }
};

/// CRC32C over a stream of results (fault::crc32c chained), so two runs that
/// produced bit-identical states, errors and potentials give one value.
class Digest {
 public:
  void add_bytes(const void* p, size_t n);
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(const std::string& s) { add_bytes(s.data(), s.size()); }
  void add(const rp::Tensor& t);
  void add_state(const std::vector<std::pair<std::string, rp::Tensor>>& state);
  uint32_t value() const { return crc_; }

 private:
  uint32_t crc_ = 0;
};

std::string hex32(uint32_t v);

/// In-memory span recorder. Each span has a name from a fixed set, start,
/// end, parent span and the run id; the recorder writes chrome-trace JSON at
/// the end of the run and aggregates totals and self times by name. When
/// recording is off, Span still measures its own duration.
class Trace {
 public:
  struct Record {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int tid = 0;
  };

  explicit Trace(std::string run_id) : run_id_(std::move(run_id)) {}

  void set_recording(bool on) { recording_ = on; }

  /// Opens a span on the calling thread's stack; returns its id or -1.
  int open(const char* name, int64_t start_ns);
  void close(int id, int64_t end_ns);
  /// Adds an already-finished span with an explicit parent (request spans
  /// recorded by a collector thread).
  void add(const char* name, int64_t start_ns, int64_t end_ns, int parent);

  /// Summed duration of every recorded span named `name`, in seconds.
  double total_s(const char* name) const;
  /// Per-name {calls, total seconds, self seconds}; self time is a span's
  /// duration minus the union of its children's intervals.
  struct NameStat {
    std::string name;
    int64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<NameStat> stats() const;

  void write_chrome(const std::string& path) const;
  size_t size() const;

 private:
  std::string run_id_;
  bool recording_ = false;
  mutable std::mutex m_;
  std::vector<Record> records_;  // guarded by m_
};

/// RAII span; always times itself, records into the trace only when the
/// trace is recording.
class Span {
 public:
  Span(Trace& trace, const char* name)
      : trace_(trace), start_ns_(now_ns()), id_(trace.open(name, start_ns_)) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();
  int id() const { return id_; }

 private:
  Trace& trace_;
  int64_t start_ns_;
  int id_;
  int64_t end_ns_ = -1;
};

/// Everything one workload reports.
struct Report {
  Metrics end_to_end;
  Metrics per_layer;
  Outcome outcome;
};

/// End-to-end times of a batch workload, whose request is one result row of
/// its table. `row_s[r]` is row r's best time over the run's passes: wall_s
/// is their sum, lat_p50_ms their median and max_qps rows per second.
void set_batch_metrics(const std::vector<double>& row_s, Report& report);

/// q-quantile (0..1) by nearest rank on a copy of `v`; `v` must be non-empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// An error, a prune ratio or a potential: finite and within [0, 1].
inline bool in_unit_interval(double v) { return v >= 0.0 && v <= 1.0; }

/// Current value of an rp::obs counter (0 while obs is off).
inline double counter(rp::obs::Counter c) {
  return static_cast<double>(rp::obs::counter_value(c));
}

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Fresh empty directory `path` (removed first if it exists).
void fresh_dir(const std::string& path);

/// Metric-name-safe form of a label: letters, digits, '_', '.', '-' kept,
/// everything else becomes '_'.
std::string metric_safe(const std::string& s);

void run_prune_cold(const Args& args, Trace& trace, Report& report);
void run_potential_warm(const Args& args, Trace& trace, Report& report);
void run_serve_open(const Args& args, Trace& trace, Report& report);

}  // namespace perfbench
