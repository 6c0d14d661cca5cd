// rp_perfbench — one end-to-end benchmark for the whole stack. run.py builds
// and drives it; see run.py for the command line the benchmark contract uses.
//
//   rp_perfbench --workload prune_cold|potential_warm|serve_open --seed N
//                --seconds S --trace 0|1 --work-dir DIR [--trace-file PATH]
//                [--expect-digest HEX] [--git-commit ID] [--source-digest ID]
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}; the line before it carries provenance and the result digest.
// Exit status: 0 on a completed run whose outputs all matched, 1 on an
// output mismatch (after printing the result), 2 on a usage error, a failed
// run, or a build that is not an optimised Release build.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "tensor/arena.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "rp_perfbench: %s\n", why.c_str());
  std::exit(2);
}

long long to_int(const std::string& flag, const std::string& text, long long lo, long long hi) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || v < lo || v > hi) {
    usage("bad value '" + text + "' for " + flag);
  }
  return v;
}

struct Options {
  Args args;
  std::string trace_file;
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.args.workload = v;
    } else if (flag == "--seed") {
      o.args.seed = static_cast<uint64_t>(to_int(flag, v, 0, 1LL << 40));
      have_seed = true;
    } else if (flag == "--seconds") {
      o.args.seconds = static_cast<int>(to_int(flag, v, 1, 3600));
      have_seconds = true;
    } else if (flag == "--trace") {
      o.args.trace = to_int(flag, v, 0, 1) == 1;
      have_trace = true;
    } else if (flag == "--work-dir") {
      o.args.work_dir = v;
    } else if (flag == "--expect-digest") {
      o.args.expect_digest = v;
    } else if (flag == "--trace-file") {
      o.trace_file = v;
    } else if (flag == "--git-commit") {
      o.git_commit = v;
    } else if (flag == "--source-digest") {
      o.source_digest = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.args.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      o.args.work_dir.empty()) {
    usage("--workload, --seed, --seconds, --trace and --work-dir are required");
  }
  return o;
}

/// JSON number with every digit of the double.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const perfbench::Metrics& m) {
  std::string out = "{";
  for (const auto& e : m.entries()) {
    if (out.size() > 1) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + num(e.value) + ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

void print_table(const char* title, const perfbench::Metrics& m) {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& e : m.entries()) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Args& args = opt.args;

  // A timing from an unoptimised or assert-enabled build is not a record.
#ifdef NDEBUG
  const bool release = std::strcmp(RP_BENCH_BUILD_TYPE, "Release") == 0;
#else
  const bool release = false;
#endif
  if (!release) {
    std::fprintf(stderr, "rp_perfbench: refusing to record a '%s' build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n", RP_BENCH_BUILD_TYPE);
    return 2;
  }

  void (*workload)(const Args&, perfbench::Trace&, perfbench::Report&) = nullptr;
  if (args.workload == "prune_cold") {
    workload = perfbench::run_prune_cold;
  } else if (args.workload == "potential_warm") {
    workload = perfbench::run_potential_warm;
  } else if (args.workload == "serve_open") {
    workload = perfbench::run_serve_open;
  } else {
    usage("unknown workload '" + args.workload + "'");
  }

  const std::string run_id = args.workload + "-s" + std::to_string(args.seed);
  perfbench::Trace trace(run_id);
  perfbench::Report report;
  try {
    workload(args, trace, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rp_perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 2;
  }

  perfbench::Outcome& out = report.outcome;
  const std::string digest = out.digest_set ? perfbench::hex32(out.digest) : "none";
  if (!args.expect_digest.empty()) {
    const bool same = digest == args.expect_digest;
    out.check(same);
    if (!same) {
      std::fprintf(stderr, "rp_perfbench: digest %s differs from the recorded %s\n",
                   digest.c_str(), args.expect_digest.c_str());
    }
  }
  report.end_to_end.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  report.end_to_end.set(
      "success_ratio",
      static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
      "ratio");

  print_table("end-to-end:", report.end_to_end);
  if (args.trace) {
    print_table("per-layer:", report.per_layer);
    std::fprintf(stderr, "span self time (%zu spans):\n", trace.size());
    for (const auto& s : trace.stats()) {
      std::fprintf(stderr, "  %-24s calls %7lld  total %10.4f s  self %10.4f s\n", s.name.c_str(),
                   static_cast<long long>(s.calls), s.total_s, s.self_s);
    }
    if (!opt.trace_file.empty()) trace.write_chrome(opt.trace_file);
  }
  std::fprintf(stderr, "attempted %lld failed %lld mismatched %lld digest %s\n",
               static_cast<long long>(out.attempted), static_cast<long long>(out.failed),
               static_cast<long long>(out.mismatched), digest.c_str());

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, \"trace\": %d, "
      "\"nproc\": %u, \"rp_threads\": %d, \"rp_simd\": \"%s\", \"rp_sparse\": \"%s\", "
      "\"rp_arena\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"git_commit\": \"%s\", \"source_digest\": \"%s\"}, \"digest\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, std::thread::hardware_concurrency(), rp::parallel::num_threads(),
      rp::simd::isa_name(rp::simd::active()), rp::sparse::mode_name(rp::sparse::mode()),
      rp::mem::mode_name(rp::mem::mode()), RP_BENCH_BUILD_TYPE, RP_BENCH_COMPILER,
      opt.git_commit.c_str(), opt.source_digest.c_str(), digest.c_str());
  const bool correct = out.mismatched == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed),
              metrics_json(args.trace ? report.per_layer : report.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
