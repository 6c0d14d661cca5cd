// rp-lint driver: determinism & discipline linter for this repo.
//
// Phase 1 runs the per-file token rules (R1–R9, rules_token.cpp) while the
// tree of file models is built in parallel; phase 2 runs the semantic rules
// (R10–R11, rules_semantic.cpp) over those models, R11 across the whole
// include graph. `rp-lint --list-rules`
// summarizes all rules; DESIGN.md §7 carries the rationale.
//
// Exit codes: 0 clean, 1 violations, 2 usage/IO error.
//
// The driver itself is linted by the tree pass (self-lint), so its own use
// of std::thread and steady_clock carries inline allows: this is the scan
// pool and the lint-runtime meter, not checked experiment code.

#include "analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>  // rp-lint: allow(R2) the linter's own scan pool, not checked code
#include <vector>

namespace fs = std::filesystem;
using namespace rplint;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::vector<std::string> collect_tree(const fs::path& root) {
  // Scanned subtrees; tests/lint_fixtures holds intentional violations.
  const std::vector<std::string> kDirs = {"src", "tools", "bench", "examples", "tests"};
  std::vector<std::string> files;
  for (const std::string& dir : kDirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !lintable(entry.path())) continue;
      std::string rel = fs::relative(entry.path(), root).generic_string();
      if (under(rel, "tests/lint_fixtures/")) continue;
      files.push_back(std::move(rel));
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int usage() {
  std::cerr
      << "usage: rp_lint [--root DIR] [--force-all-rules] [--list-rules] [--json]\n"
      << "               [--show-suppressed] [FILE...]\n"
      << "  With no FILEs, lints src/ tools/ bench/ examples/ tests/ under --root\n"
      << "  (default: current directory), minus tests/lint_fixtures/.\n"
      << "  --force-all-rules ignores path-based rule scoping (fixture testing).\n"
      << "  --json emits findings as a JSON array on stdout instead of text.\n"
      << "  --show-suppressed also emits allow()-suppressed findings, tagged;\n"
      << "  they never count toward the exit code.\n";
  return 2;
}

void list_rules() {
  std::cout
      << "R1  banned nondeterminism APIs (rand, std::mt19937, random_device, time(nullptr), *_clock::now) outside src/tensor/rng.*\n"
      << "R2  raw std::thread/std::async/OpenMP outside src/tensor/parallel.*\n"
      << "R3  mutable function-local static / non-const namespace-scope globals\n"
      << "R4  std::unordered_{map,set} in result-producing code (src/core, src/exp)\n"
      << "R5  reinterpret_cast outside src/tensor/serialize.cpp and src/data/image_io.cpp\n"
      << "R6  C-style casts to integer types in stats code (src/core, src/exp)\n"
      << "R7  unit-grain parallel_for/run_shards dispatch outside per-sample/per-shard loops\n"
      << "R8  raw ofstream/filesystem::rename artifact I/O in src/ bypassing fault::durable_write\n"
      << "R9  direct gemm() calls in src/nn, src/core bypassing the sparse execution engine\n"
      << "R10 parallel_for/run_shards lambda writes a by-reference capture outside the disjoint-index idioms\n"
      << "R11 #include edge violates the committed src/ layer DAG, or the include graph has a cycle\n";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Runs fn(i) for i in [0, n) on a small worker pool. This is the linter's
/// own scan parallelism — file models are independent — not checked code.
void parallel_scan(std::size_t n, const std::function<void(std::size_t)>& fn) {
  unsigned hw = std::thread::hardware_concurrency();  // rp-lint: allow(R2) scan pool
  const std::size_t workers = std::max<std::size_t>(1, std::min<std::size_t>({hw ? hw : 1, n, 16}));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> pool;  // rp-lint: allow(R2) scan pool
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back(worker);  // rp-lint: allow(R2) scan pool
  }
  for (auto& th : pool) th.join();
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool force_all = false;
  bool json = false;
  bool show_suppressed = false;
  std::vector<std::string> files;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--root" && a + 1 < argc) {
      root = argv[++a];
    } else if (arg == "--force-all-rules") {
      force_all = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--show-suppressed") {
      show_suppressed = true;
    } else if (arg == "--list-rules") {
      list_rules();
      return 0;
    } else if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      files.push_back(arg);
    }
  }

  const bool explicit_files = !files.empty();
  if (!explicit_files) files = collect_tree(root);
  const auto t0 = std::chrono::steady_clock::now();  // rp-lint: allow(R1) lint-runtime meter

  // Phase 1 (parallel): read + model + token rules, one file per work item.
  std::vector<FileModel> models(files.size());
  std::vector<std::vector<Finding>> per_file(files.size());
  std::atomic<bool> io_error{false};
  parallel_scan(files.size(), [&](std::size_t i) {
    const fs::path full = explicit_files ? fs::path(files[i]) : root / files[i];
    std::ifstream in(full, std::ios::binary);
    if (!in) {
      std::cerr << "rp-lint: cannot read " << full.string() << "\n";
      io_error.store(true);
      return;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    models[i] = build_file_model(files[i], buf.str());
    run_token_rules(models[i], force_all, &per_file[i]);
  });
  if (io_error.load()) return 2;

  // Phase 2: semantic rules (parallel per file) and the layering/cycle check
  // over the whole include graph.
  parallel_scan(files.size(), [&](std::size_t i) {
    run_file_semantic_rules(models[i], force_all, &per_file[i]);
  });
  run_layering_rule(models, &per_file);

  std::vector<Finding> findings;
  for (std::size_t i = 0; i < files.size(); ++i) {
    apply_suppressions(models[i], show_suppressed, &per_file[i]);
    findings.insert(findings.end(), per_file[i].begin(), per_file[i].end());
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });

  int violations = 0;
  if (json) {
    std::cout << "[";
    bool first = true;
    for (const Finding& v : findings) {
      std::cout << (first ? "\n" : ",\n")
                << "  {\"file\": \"" << json_escape(v.path) << "\", \"line\": " << v.line
                << ", \"rule\": \"" << v.rule << "\", \"message\": \"" << json_escape(v.message)
                << "\", \"suppressed\": " << (v.suppressed ? "true" : "false") << "}";
      first = false;
      if (!v.suppressed) ++violations;
    }
    std::cout << (first ? "]\n" : "\n]\n");
  } else {
    for (const Finding& v : findings) {
      std::cout << v.path << ":" << v.line << ": [" << v.rule << "] " << v.message
                << (v.suppressed ? "  (suppressed)" : "") << "\n";
      if (!v.suppressed) ++violations;
    }
    if (violations > 0) std::cout << "rp-lint: " << violations << " violation(s)\n";
  }

  const auto t1 = std::chrono::steady_clock::now();  // rp-lint: allow(R1) lint-runtime meter
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0).count();
  // obs-style timing line so check.sh surfaces lint-runtime regressions.
  std::cerr << "rp-lint: files=" << files.size() << " findings=" << findings.size()
            << " violations=" << violations << " wall_ms=" << ms << "\n";

  return violations > 0 ? 1 : 0;
}
