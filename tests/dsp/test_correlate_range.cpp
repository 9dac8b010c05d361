// Tests for the position-range pattern search: every searched score is
// the full search's score bit for bit, the range argmax is the global one
// whenever that lies inside the range (with a fresh or a reused scratch
// alike), and empty or overlong ranges stay in bounds. Runs under the
// native and the forced-scalar SIMD dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "dsp/correlate.hpp"

namespace densevlc::dsp {
namespace {

/// Param = force-scalar: false runs the native (vector) dispatch, true
/// pins every kernel onto the scalar backend.
class CorrelateRange : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::set_force_scalar(GetParam()); }
  void TearDown() override { simd::set_force_scalar(false); }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, CorrelateRange, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? "ForcedScalar" : "NativeSimd";
    });

/// A +-1 pattern of length m embedded at `at` in Gaussian noise with an
/// offset, so window means and variances are non-trivial.
struct Case {
  std::vector<double> signal;
  std::vector<double> pattern;
};

Case make_case(Rng& rng, std::size_t n, std::size_t m, std::size_t at,
               double amplitude) {
  Case c;
  c.pattern.resize(m);
  for (double& p : c.pattern) p = rng.bernoulli(0.5) ? 1.0 : -1.0;
  c.signal.resize(n);
  for (double& s : c.signal) s = 0.3 + rng.gaussian(0.0, 0.5);
  for (std::size_t i = 0; i < m && at + i < n; ++i) {
    c.signal[at + i] += amplitude * c.pattern[i];
  }
  return c;
}

TEST_P(CorrelateRange, ScoresMatchFullSearchBitwise) {
  Rng rng{0xC0AA};
  for (std::size_t trial = 0; trial < 40; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const auto n = m + static_cast<std::size_t>(rng.uniform_int(0, 120));
    const Case c = make_case(rng, n, m, n / 3, 1.0);
    CorrelateScratch full;
    (void)detect_pattern_into(c.signal, c.pattern, -2.0, 0, n, full);
    const std::size_t positions = n - m + 1;
    ASSERT_EQ(full.scores.size(), positions);
    const auto first = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(positions) - 1));
    const auto last = first + static_cast<std::size_t>(rng.uniform_int(
                                  1, static_cast<std::int64_t>(positions - first)));
    CorrelateScratch range;
    (void)detect_pattern_into(c.signal, c.pattern, -2.0, first, last, range);
    ASSERT_EQ(range.scores.size(), last - first) << "trial " << trial;
    for (std::size_t i = first; i < last; ++i) {
      EXPECT_EQ(range.scores[i - first], full.scores[i])
          << "trial " << trial << " position " << i;
    }
  }
}

TEST_P(CorrelateRange, ArgmaxEqualsGlobalWhenInsideRange) {
  Rng rng{0xC0AB};
  std::size_t inside = 0;
  CorrelateScratch reused;  // carries every earlier trial's buffers
  for (std::size_t trial = 0; trial < 60; ++trial) {
    const std::size_t m = 40;
    const std::size_t n = 200;
    const auto at = static_cast<std::size_t>(rng.uniform_int(0, 160));
    const Case c = make_case(rng, n, m, at, rng.uniform(0.0, 1.5));
    const auto global = detect_pattern(c.signal, c.pattern, 0.3);
    const auto first = static_cast<std::size_t>(rng.uniform_int(0, 140));
    const std::size_t last = first + 21;
    CorrelateScratch fresh;
    const auto ranged =
        detect_pattern_into(c.signal, c.pattern, 0.3, first, last, fresh);
    const auto again =
        detect_pattern_into(c.signal, c.pattern, 0.3, first, last, reused);
    ASSERT_EQ(ranged.has_value(), again.has_value()) << "trial " << trial;
    if (ranged) {
      EXPECT_EQ(ranged->index, again->index);
      EXPECT_EQ(ranged->score, again->score);
    }
    if (!global || global->index < first || global->index >= last) continue;
    ++inside;
    ASSERT_TRUE(ranged) << "trial " << trial;
    EXPECT_EQ(ranged->index, global->index);
    EXPECT_EQ(ranged->score, global->score);
  }
  EXPECT_GT(inside, 5u);  // the property was exercised
}

TEST_P(CorrelateRange, EmptyAndClampedRangesStayInBounds) {
  Rng rng{0xC0AC};
  const Case c = make_case(rng, 100, 20, 70, 2.0);
  const std::size_t positions = 100 - 20 + 1;
  CorrelateScratch scratch;
  // Empty ranges find nothing.
  EXPECT_FALSE(detect_pattern_into(c.signal, c.pattern, -2.0, 10, 10,
                                   scratch));
  EXPECT_FALSE(detect_pattern_into(c.signal, c.pattern, -2.0, 30, 5,
                                   scratch));
  EXPECT_FALSE(detect_pattern_into(c.signal, c.pattern, -2.0, positions,
                                   positions + 50, scratch));
  // A range running past the end is clamped to the last position.
  const auto tail = detect_pattern_into(c.signal, c.pattern, -2.0,
                                        positions - 15, 10'000, scratch);
  ASSERT_TRUE(tail);
  EXPECT_GE(tail->index, positions - 15);
  EXPECT_LT(tail->index, positions);
  EXPECT_EQ(scratch.scores.size(), 15u);
  EXPECT_EQ(tail->index, 70u);  // the embedded pattern
  // The whole range is the full search.
  const auto all =
      detect_pattern_into(c.signal, c.pattern, -2.0, 0, positions, scratch);
  const auto global = detect_pattern(c.signal, c.pattern, -2.0);
  ASSERT_TRUE(all && global);
  EXPECT_EQ(all->index, global->index);
  EXPECT_EQ(all->score, global->score);
  // A pattern longer than the signal has no positions at all.
  const std::vector<double> long_pattern(101, 1.0);
  EXPECT_FALSE(detect_pattern_into(c.signal, long_pattern, -2.0, 0, 5,
                                   scratch));
  EXPECT_TRUE(scratch.scores.empty());
}

}  // namespace
}  // namespace densevlc::dsp
