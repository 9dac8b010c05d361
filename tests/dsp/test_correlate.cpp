// Tests for correlation-based pattern detection.
#include "dsp/correlate.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace densevlc::dsp {
namespace {

TEST(Correlate, PatternLongerThanSignalIsEmpty) {
  const std::vector<double> signal{1.0};
  const std::vector<double> pattern{1.0, 2.0};
  CorrelateScratch scratch;
  EXPECT_FALSE(detect_pattern_into(signal, pattern, -2.0, 0, signal.size(),
                                   scratch));
  EXPECT_TRUE(scratch.scores.empty());
}

TEST(NormalizedCorrelate, PerfectMatchScoresOne) {
  const std::vector<double> pattern{1.0, -1.0, 1.0, 1.0, -1.0};
  std::vector<double> signal{0.0, 0.0};
  signal.insert(signal.end(), pattern.begin(), pattern.end());
  signal.insert(signal.end(), {0.0, 0.0});
  CorrelateScratch scratch;
  (void)detect_pattern_into(signal, pattern, -2.0, 0, signal.size(), scratch);
  EXPECT_NEAR(scratch.scores[2], 1.0, 1e-12);
}

TEST(NormalizedCorrelate, InvariantToGainAndOffset) {
  const std::vector<double> pattern{1.0, -1.0, 1.0, -1.0, 1.0, 1.0};
  std::vector<double> signal;
  for (double p : pattern) signal.push_back(3.7 + 0.01 * p);  // tiny + offset
  CorrelateScratch scratch;
  (void)detect_pattern_into(signal, pattern, -2.0, 0, signal.size(), scratch);
  ASSERT_EQ(scratch.scores.size(), 1u);
  EXPECT_NEAR(scratch.scores[0], 1.0, 1e-9);
}

TEST(NormalizedCorrelate, AntiCorrelatedScoresMinusOne) {
  const std::vector<double> pattern{1.0, -1.0, 1.0, -1.0};
  std::vector<double> signal;
  for (double p : pattern) signal.push_back(-p);
  CorrelateScratch scratch;
  (void)detect_pattern_into(signal, pattern, -2.0, 0, signal.size(), scratch);
  EXPECT_NEAR(scratch.scores[0], -1.0, 1e-12);
}

TEST(NormalizedCorrelate, FlatWindowScoresZero) {
  const std::vector<double> pattern{1.0, -1.0, 1.0, -1.0};
  const std::vector<double> signal(10, 2.5);
  CorrelateScratch scratch;
  (void)detect_pattern_into(signal, pattern, -2.0, 0, signal.size(), scratch);
  for (double s : scratch.scores) {
    EXPECT_DOUBLE_EQ(s, 0.0);
  }
}

TEST(NormalizedCorrelate, FlatPatternScoresZero) {
  const std::vector<double> pattern(4, 1.0);
  const std::vector<double> signal{1.0, -1.0, 1.0, -1.0, 1.0, -1.0};
  CorrelateScratch scratch;
  (void)detect_pattern_into(signal, pattern, -2.0, 0, signal.size(), scratch);
  for (double s : scratch.scores) {
    EXPECT_DOUBLE_EQ(s, 0.0);
  }
}

TEST(DetectPattern, FindsEmbeddedPatternInNoise) {
  Rng rng{77};
  const std::vector<double> pattern{1, -1, 1, 1, -1, -1, 1, -1, 1, 1,
                                    -1, 1, -1, -1, 1, 1};
  std::vector<double> signal(200);
  for (double& s : signal) s = rng.gaussian(0.0, 0.3);
  const std::size_t at = 120;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    signal[at + i] += pattern[i];
  }
  const auto peak = detect_pattern(signal, pattern, 0.5);
  ASSERT_TRUE(peak.has_value());
  EXPECT_NEAR(static_cast<double>(peak->index), static_cast<double>(at), 1.0);
  EXPECT_GT(peak->score, 0.5);
}

TEST(DetectPattern, ReturnsNulloptBelowThreshold) {
  Rng rng{78};
  const std::vector<double> pattern{1, -1, 1, 1, -1, -1, 1, -1};
  std::vector<double> signal(100);
  for (double& s : signal) s = rng.gaussian(0.0, 1.0);
  EXPECT_FALSE(detect_pattern(signal, pattern, 0.99).has_value());
}

TEST(DetectPattern, PicksStrongestOfTwoCopies) {
  const std::vector<double> pattern{1, -1, 1, -1, 1, 1, -1, -1};
  std::vector<double> signal(64, 0.0);
  // Weak copy at 10 (damped + noise floor), exact copy at 40.
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    signal[10 + i] = 0.5 * pattern[i] + (i % 2 ? 0.3 : -0.3);
    signal[40 + i] = pattern[i];
  }
  const auto peak = detect_pattern(signal, pattern, 0.3);
  ASSERT_TRUE(peak.has_value());
  EXPECT_EQ(peak->index, 40u);
}

}  // namespace
}  // namespace densevlc::dsp
