#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "fault/crc32c.hpp"

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (auto& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Digest::add_bytes(const void* p, size_t n) {
  crc_ = rp::fault::crc32c(static_cast<const char*>(p), n, crc_);
}

void Digest::add(const rp::Tensor& t) {
  for (const int64_t d : t.shape().dims()) add(static_cast<double>(d));
  const auto data = t.data();
  add_bytes(data.data(), data.size() * sizeof(float));
}

void Digest::add_state(const std::vector<std::pair<std::string, rp::Tensor>>& state) {
  for (const auto& [name, tensor] : state) {
    add(name);
    add(tensor);
  }
}

std::string hex32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

namespace {

thread_local std::vector<int> t_stack;  // open recorded spans of this thread

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

}  // namespace

int Trace::open(const char* name, int64_t start_ns) {
  if (!recording_) return -1;
  std::lock_guard<std::mutex> lock(m_);
  const int id = static_cast<int>(records_.size());
  records_.push_back({name, start_ns, -1, t_stack.empty() ? -1 : t_stack.back(), thread_index()});
  t_stack.push_back(id);
  return id;
}

void Trace::close(int id, int64_t end_ns) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(m_);
  records_[static_cast<size_t>(id)].end_ns = end_ns;
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

void Trace::add(const char* name, int64_t start_ns, int64_t end_ns, int parent) {
  if (!recording_) return;
  std::lock_guard<std::mutex> lock(m_);
  records_.push_back({name, start_ns, end_ns, parent, thread_index()});
}

size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return records_.size();
}

double Trace::total_s(const char* name) const {
  std::lock_guard<std::mutex> lock(m_);
  int64_t ns = 0;
  for (const auto& r : records_) {
    if (r.end_ns >= 0 && std::string_view(r.name) == name) ns += r.end_ns - r.start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

std::vector<Trace::NameStat> Trace::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(records_.size());
  for (const auto& r : records_) {
    if (r.parent >= 0 && r.end_ns >= 0) {
      children[static_cast<size_t>(r.parent)].emplace_back(r.start_ns, r.end_ns);
    }
  }
  std::map<std::string, NameStat> by_name;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    // Union of the children's intervals, clipped to the parent: concurrent
    // children (overlapping request spans) are covered time counted once.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, r.start_ns);
      hi = std::min(hi, r.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    NameStat& s = by_name[r.name];
    s.name = r.name;
    ++s.calls;
    s.total_s += 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
    s.self_s += 1e-9 * static_cast<double>(r.end_ns - r.start_ns - covered);
  }
  std::vector<NameStat> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  return out;
}

void Trace::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(m_);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + tmp);
  const int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,\"run\":\"%s\"}}",
                 i == 0 ? "" : ",\n", r.name, r.tid, 1e-3 * static_cast<double>(r.start_ns - t0),
                 1e-3 * static_cast<double>(r.end_ns - r.start_ns), i, r.parent,
                 run_id_.c_str());
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::filesystem::rename(tmp, path);
}

double Span::stop() {
  if (end_ns_ < 0) {
    end_ns_ = now_ns();
    trace_.close(id_, end_ns_);
  }
  return 1e-9 * static_cast<double>(end_ns_ - start_ns_);
}

void set_batch_metrics(const std::vector<double>& row_s, Report& report) {
  double wall_s = 0.0;
  for (const double s : row_s) wall_s += s;
  report.end_to_end.set("wall_s", wall_s, "s");
  report.end_to_end.set("lat_p50_ms", 1e3 * median(row_s), "ms");
  report.end_to_end.set("max_qps", static_cast<double>(row_s.size()) / wall_s, "1/s");
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

std::string metric_safe(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace perfbench
