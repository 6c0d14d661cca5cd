#include "tensor/envspec.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse.hpp"

namespace rp {
namespace {

// Every RP_* knob follows parse-or-exit(2): unrecognized values are usage
// errors, never silent fall-throughs to a default. The throwing parse
// functions are tested directly here; the exit(2) wiring gets one death
// test through the RP_THREADS resolution path (the other knobs cache their
// resolution in function-local statics, so re-resolving them in-process
// would race the rest of the suite).

TEST(EnvSpec, ParseIntSpecAcceptsFullMatchInRange) {
  EXPECT_EQ(env::parse_int_spec("RP_X", "4", 1), 4);
  EXPECT_EQ(env::parse_int_spec("RP_X", "1", 1, 1), 1);
  EXPECT_EQ(env::parse_int_spec("RP_X", "-3", -10, 10), -3);
}

TEST(EnvSpec, ParseIntSpecRejectsJunkAndRange) {
  // "4junk" is the motivating bug: atoi happily returned 4.
  for (const char* bad : {"4junk", "", " 4", "4 ", "++4", "0x10", "junk",
                          "999999999999999999999999"}) {
    EXPECT_THROW(env::parse_int_spec("RP_X", bad, 1), std::invalid_argument) << bad;
  }
  EXPECT_THROW(env::parse_int_spec("RP_X", "0", 1), std::invalid_argument);
  EXPECT_THROW(env::parse_int_spec("RP_X", "11", 1, 10), std::invalid_argument);
}

TEST(EnvSpec, SimdSpecParsesAllIsasAndRejectsTypos) {
  simd::Isa isa = simd::Isa::kScalar;
  EXPECT_TRUE(simd::parse_isa_spec("off", &isa));
  EXPECT_EQ(isa, simd::Isa::kScalar);
  EXPECT_TRUE(simd::parse_isa_spec("scalar", &isa));
  EXPECT_EQ(isa, simd::Isa::kScalar);
  EXPECT_TRUE(simd::parse_isa_spec("avx2", &isa));
  EXPECT_EQ(isa, simd::Isa::kAvx2);
  EXPECT_TRUE(simd::parse_isa_spec("neon", &isa));
  EXPECT_EQ(isa, simd::Isa::kNeon);
  EXPECT_FALSE(simd::parse_isa_spec("auto", &isa));  // auto = resolver's pick
  for (const char* bad : {"axv2", "AVX2", "on", "", "scalar "}) {
    EXPECT_THROW(simd::parse_isa_spec(bad, &isa), std::invalid_argument) << bad;
  }
}

TEST(EnvSpec, SparseSpecParsesAllModesAndRejectsTypos) {
  EXPECT_EQ(sparse::parse_mode_spec("off"), sparse::Mode::kOff);
  EXPECT_EQ(sparse::parse_mode_spec("dense"), sparse::Mode::kOff);
  EXPECT_EQ(sparse::parse_mode_spec("csr"), sparse::Mode::kCsr);
  EXPECT_EQ(sparse::parse_mode_spec("auto"), sparse::Mode::kAuto);
  for (const char* bad : {"csrr", "CSR", "blocked", "", "on"}) {
    EXPECT_THROW(sparse::parse_mode_spec(bad), std::invalid_argument) << bad;
  }
}

TEST(EnvSpec, RetiredSparseBlockModeFailsLoudly) {
  // The 4x8 block layout is gone. A stale RP_SPARSE=block must be a usage
  // error naming the knob and the accepted grammar, never a silent fall-
  // through to auto.
  try {
    sparse::parse_mode_spec("block");
    FAIL() << "RP_SPARSE=block was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("RP_SPARSE"), std::string::npos) << what;
    EXPECT_NE(what.find("off|dense|csr|auto"), std::string::npos) << what;
    EXPECT_EQ(what.find("block|"), std::string::npos) << what;
  }
}

TEST(EnvSpecDeathTest, BadRpThreadsExitsLoudlyInsteadOfRunningWithADefault) {
  // set_num_threads(0) re-reads RP_THREADS, so the death-test child walks
  // the real resolution path: strict parse -> die_bad_spec -> exit(2).
  ::setenv("RP_THREADS", "4junk", 1);
  EXPECT_EXIT(parallel::set_num_threads(0), ::testing::ExitedWithCode(2), "RP_THREADS");
  ::unsetenv("RP_THREADS");
  parallel::set_num_threads(0);  // restore the ambient default for later tests
}

TEST(EnvSpec, RpThreadsAcceptsAutoAndExplicitCounts) {
  ::setenv("RP_THREADS", "3", 1);
  parallel::set_num_threads(0);
  EXPECT_EQ(parallel::num_threads(), 3);
  ::setenv("RP_THREADS", "auto", 1);
  parallel::set_num_threads(0);
  EXPECT_GE(parallel::num_threads(), 1);
  ::unsetenv("RP_THREADS");
  parallel::set_num_threads(0);
}

}  // namespace
}  // namespace rp
