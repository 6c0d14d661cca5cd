// Self-test of the rp-lint static analyzer: runs the real binary against the
// fixture files under tests/lint_fixtures/ and asserts exact rule IDs and
// line numbers. Each fixture holds one violation and one suppressed
// violation of the same rule, proving both that the rule fires and that
// `// rp-lint: allow(Rn)` silences it.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

const std::string kBinary = RP_LINT_BINARY;
const std::string kFixtures = RP_LINT_FIXTURES;

LintRun run_lint(const std::string& args) {
  LintRun r;
  const std::string cmd = kBinary + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 512> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) r.output += buf.data();
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

struct Expected {
  const char* file;
  const char* rule;
  int line;
};

constexpr std::array<Expected, 9> kExpected = {{
    {"r1_nondeterminism.cpp", "R1", 4},
    {"r2_threading.cpp", "R2", 3},
    {"r3_mutable_static.cpp", "R3", 4},
    {"r4_unordered.cpp", "R4", 3},
    {"r5_reinterpret.cpp", "R5", 3},
    {"r6_cstyle_cast.cpp", "R6", 3},
    {"r7_grain.cpp", "R7", 3},
    {"r8_raw_artifact_io.cpp", "R8", 3},
    {"r9_dense_gemm.cpp", "R9", 3},
}};

TEST(RpLint, EachRuleFiresAtExactlyTheExpectedLine) {
  for (const Expected& e : kExpected) {
    SCOPED_TRACE(e.file);
    const LintRun r = run_lint("--force-all-rules " + kFixtures + "/" + e.file);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // Exactly one finding: the violation line, tagged with the right rule.
    const std::string tag = ":" + std::to_string(e.line) + ": [" + e.rule + "]";
    EXPECT_NE(r.output.find(tag), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("rp-lint: 1 violation(s)"), std::string::npos) << r.output;
  }
}

TEST(RpLint, SuppressedLinesStaySilent) {
  // The suppressed copy of each violation sits on a later line; no finding
  // may reference any line past the expected one.
  for (const Expected& e : kExpected) {
    SCOPED_TRACE(e.file);
    const LintRun r = run_lint("--force-all-rules " + kFixtures + "/" + e.file);
    for (int line = e.line + 1; line < e.line + 8; ++line) {
      EXPECT_EQ(r.output.find(":" + std::to_string(line) + ":"), std::string::npos)
          << r.output;
    }
  }
}

TEST(RpLint, AllFixturesTogetherReportNineViolations) {
  std::string args = "--force-all-rules";
  for (const Expected& e : kExpected) args += " " + kFixtures + "/" + e.file;
  const LintRun r = run_lint(args);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("rp-lint: 9 violation(s)"), std::string::npos) << r.output;
}

TEST(RpLint, CleanFileExitsZero) {
  // The linter's own source must be clean under full-tree rules scoping.
  const LintRun r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* id :
       {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11"}) {
    EXPECT_NE(r.output.find(id), std::string::npos) << r.output;
  }
}

TEST(RpLint, PathScopingExemptsAllowlistedFiles) {
  // Without --force-all-rules a fixture path is outside src/core//src/exp
  // (R4/R6), outside src/ entirely (R8), and outside src/nn//src/core
  // (R9), so the path-scoped rules must not fire at all.
  for (const char* file :
       {"r4_unordered.cpp", "r6_cstyle_cast.cpp", "r8_raw_artifact_io.cpp", "r9_dense_gemm.cpp"}) {
    SCOPED_TRACE(file);
    const LintRun r = run_lint(kFixtures + std::string("/") + file);
    EXPECT_EQ(r.exit_code, 0) << r.output;
  }
}

// ---------------------------------------------------------------------------
// Phase-2 semantic rules

TEST(RpLint, R10FiresOnEveryRacyCapturePattern) {
  const LintRun r = run_lint("--force-all-rules " + kFixtures + "/r10_capture_race.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Scalar += reduction, ++ through an explicit &capture, push_back growth,
  // and a write inside a lambda passed by name — each at its exact line.
  for (int line : {20, 27, 31, 38}) {
    const std::string tag = ":" + std::to_string(line) + ": [R10]";
    EXPECT_NE(r.output.find(tag), std::string::npos) << r.output;
  }
  // The disjoint-index idioms (out[i], per-shard slot, folded local
  // accumulator), by-value captures, and the allow(R10) escape must all stay
  // silent: exactly the four racy sites, nothing else.
  EXPECT_NE(r.output.find("rp-lint: 4 violation(s)"), std::string::npos) << r.output;
}

TEST(RpLint, R10TreatsCommaDeclaratorsAsLocals) {
  const LintRun r = run_lint("--force-all-rules " + kFixtures + "/r10_comma_declarators.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // `const int64_t cb = …, ce = …, gc = …;`, `float m, *pm = &m, v;` and
  // `double s = 0.0, sv = 0.0;` declare lambda locals: silent. The comma
  // expression `a = …, b = …;` writes two captures: both flagged, nothing else.
  EXPECT_NE(r.output.find(":33: [R10] parallel lambda assigns captured 'a'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(":33: [R10] parallel lambda assigns captured 'b'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("rp-lint: 2 violation(s)"), std::string::npos) << r.output;
}

TEST(RpLint, R11FlagsUpwardIncludeAndCycleOnly) {
  const LintRun r = run_lint("--root " + kFixtures + "/r11_tree");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // tensor -> nn and sched -> exp are upward edges in the committed layer DAG.
  EXPECT_NE(r.output.find("src/tensor/bad_up.hpp:5: [R11]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("src/sched/bad_up.hpp:5: [R11]"), std::string::npos) << r.output;
  // cyc_a <-> cyc_b is a deliberate same-layer cycle; sorted DFS enters at
  // cyc_a, so the include in cyc_b closes (and reports) the loop.
  EXPECT_NE(r.output.find("src/core/cyc_b.hpp:4: [R11]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("include cycle"), std::string::npos) << r.output;
  // The legal nn -> tensor edge must not be flagged (no finding is anchored
  // at thing.hpp; the upward-edge message quoting its path is fine).
  EXPECT_EQ(r.output.find("thing.hpp:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("rp-lint: 3 violation(s)"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// Suppression extents and edge cases

TEST(RpLint, OwnLineAllowCoversTheFullFollowingStatement) {
  const LintRun r = run_lint("--force-all-rules " + kFixtures + "/sup_multiline.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The multi-line parallel_for chain (R7 on the call line, R10 three lines
  // below) is fully covered by one own-line allow; the rand() after the next
  // allow's statement still fires.
  EXPECT_NE(r.output.find(":30: [R1]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("rp-lint: 1 violation(s)"), std::string::npos) << r.output;
}

TEST(RpLint, AllowInsideRawStringIsData) {
  const LintRun r = run_lint("--force-all-rules " + kFixtures + "/sup_rawstring.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // rand()/srand() inside the raw string must not fire, and the allow(R1)
  // text inside it must not suppress the real rand() below.
  EXPECT_NE(r.output.find(":16: [R1]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("rp-lint: 1 violation(s)"), std::string::npos) << r.output;
}

TEST(RpLint, BlockCommentAllowsWork) {
  const LintRun r = run_lint("--force-all-rules " + kFixtures + "/sup_blockcomment.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // An inline /* allow */ before code on the same line and a multi-line
  // block-comment allow both suppress; the allow whose statement ended must
  // not leak onto the next line.
  EXPECT_NE(r.output.find(":21: [R1]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("rp-lint: 1 violation(s)"), std::string::npos) << r.output;
}

TEST(RpLint, ShowSuppressedTagsButDoesNotCount) {
  const LintRun r =
      run_lint("--show-suppressed --force-all-rules " + kFixtures + "/sup_blockcomment.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("(suppressed)"), std::string::npos) << r.output;
  // Suppressed findings are displayed but never change the violation count.
  EXPECT_NE(r.output.find("rp-lint: 1 violation(s)"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// JSON output

TEST(RpLint, JsonModeEmitsOneRecordPerFinding) {
  const LintRun r =
      run_lint("--json --force-all-rules " + kFixtures + "/r1_nondeterminism.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"rule\": \"R1\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"line\": 4"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"suppressed\": false"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("r1_nondeterminism.cpp"), std::string::npos) << r.output;
  // JSON replaces the text summary line on stdout (the stderr timing line
  // remains); the payload must be a bracketed array.
  EXPECT_EQ(r.output.find("violation(s)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find('['), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(']'), std::string::npos) << r.output;
}

TEST(RpLint, JsonModeOnCleanInputEmitsEmptyArray) {
  const LintRun r = run_lint("--json " + kFixtures + "/r4_unordered.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("[]"), std::string::npos) << r.output;
}

TEST(RpLint, TimingLineReportsScanStats) {
  const LintRun r = run_lint("--force-all-rules " + kFixtures + "/r1_nondeterminism.cpp");
  // The obs-style stderr line check.sh surfaces: key=value scan stats.
  EXPECT_NE(r.output.find("files=1"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("wall_ms="), std::string::npos) << r.output;
}

}  // namespace
