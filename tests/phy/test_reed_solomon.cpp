// Tests for the Reed-Solomon codec used in the frame format (Table 3).
#include "phy/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "rs_codeword.hpp"

namespace densevlc::phy {
namespace {

std::vector<std::uint8_t> random_message(std::size_t len, Rng& rng) {
  std::vector<std::uint8_t> msg(len);
  for (auto& b : msg) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return msg;
}

TEST(ReedSolomon, RejectsBadParityCounts) {
  EXPECT_THROW(ReedSolomon{0}, std::invalid_argument);
  EXPECT_THROW(ReedSolomon{3}, std::invalid_argument);
  EXPECT_THROW(ReedSolomon{256}, std::invalid_argument);
  EXPECT_NO_THROW(ReedSolomon{16});
}

TEST(ReedSolomon, EncodeIsSystematic) {
  ReedSolomon rs{16};
  const std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
  const auto cw = rs_codeword(rs, msg);
  ASSERT_EQ(cw.size(), msg.size() + 16);
  for (std::size_t i = 0; i < msg.size(); ++i) EXPECT_EQ(cw[i], msg[i]);
}

TEST(ReedSolomon, RejectsOverlongMessage) {
#if defined(DVLC_NO_CONTRACTS)
  GTEST_SKIP() << "contracts disabled (DVLC_NO_CONTRACTS)";
#else
  ReedSolomon rs{16};
  const std::vector<std::uint8_t> msg(240, 0);
  std::vector<std::uint8_t> parity(16);
  EXPECT_DEATH(rs.encode_parity_into(msg, parity),
               "message too long for GF\\(256\\)");
#endif
}

TEST(ReedSolomon, CleanCodewordDecodesWithZeroCorrections) {
  ReedSolomon rs{16};
  Rng rng{1};
  const auto msg = random_message(200, rng);
  RsDecodeResult res;
  RsScratch scratch;
  ASSERT_TRUE(rs.decode_into(rs_codeword(rs, msg), res, scratch));
  EXPECT_EQ(res.data, msg);
  EXPECT_EQ(res.corrected_errors, 0u);
}

TEST(ReedSolomon, CorrectsUpToCapacity) {
  ReedSolomon rs{16};
  Rng rng{2};
  RsDecodeResult res;
  RsScratch scratch;
  for (std::size_t nerr = 1; nerr <= 8; ++nerr) {
    const auto msg = random_message(200, rng);
    auto cw = rs_codeword(rs, msg);
    // Corrupt nerr distinct positions.
    std::vector<std::size_t> positions;
    while (positions.size() < nerr) {
      const auto p = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cw.size()) - 1));
      bool dup = false;
      for (auto q : positions) dup = dup || q == p;
      if (!dup) positions.push_back(p);
    }
    for (auto p : positions) {
      cw[p] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    ASSERT_TRUE(rs.decode_into(cw, res, scratch)) << "errors: " << nerr;
    EXPECT_EQ(res.data, msg);
    EXPECT_EQ(res.corrected_errors, nerr);
  }
}

TEST(ReedSolomon, FailsBeyondCapacity) {
  ReedSolomon rs{16};
  Rng rng{3};
  RsDecodeResult res;
  RsScratch scratch;
  int failures = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const auto msg = random_message(100, rng);
    auto cw = rs_codeword(rs, msg);
    // 20 errors >> capacity 8: decode must fail (or at least never
    // silently return the wrong message as a success with few errors).
    for (int e = 0; e < 20; ++e) {
      const auto p = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cw.size()) - 1));
      cw[p] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    if (!rs.decode_into(cw, res, scratch)) {
      ++failures;
    } else {
      // Miscorrection to a *valid* codeword is theoretically possible but
      // must never reproduce the original message by luck.
      EXPECT_NE(res.data, msg);
    }
  }
  EXPECT_GT(failures, trials / 2);
}

TEST(ReedSolomon, ParityOnlyErrorsAreCorrected) {
  ReedSolomon rs{16};
  Rng rng{4};
  const auto msg = random_message(50, rng);
  auto cw = rs_codeword(rs, msg);
  cw[cw.size() - 1] ^= 0x5A;  // corrupt parity only
  cw[cw.size() - 9] ^= 0xA5;
  RsDecodeResult res;
  RsScratch scratch;
  ASSERT_TRUE(rs.decode_into(cw, res, scratch));
  EXPECT_EQ(res.data, msg);
  EXPECT_EQ(res.corrected_errors, 2u);
}

TEST(ReedSolomon, ShortMessagesWork) {
  ReedSolomon rs{16};
  const std::vector<std::uint8_t> one{0x42};
  auto cw = rs_codeword(rs, one);
  cw[0] ^= 0xFF;
  RsDecodeResult res;
  RsScratch scratch;
  ASSERT_TRUE(rs.decode_into(cw, res, scratch));
  EXPECT_EQ(res.data, one);
}

TEST(ReedSolomon, DecodeRejectsDegenerateInputs) {
  ReedSolomon rs{16};
  RsDecodeResult res;
  RsScratch scratch;
  EXPECT_FALSE(
      rs.decode_into(std::vector<std::uint8_t>(10, 0), res, scratch));
  EXPECT_FALSE(
      rs.decode_into(std::vector<std::uint8_t>(300, 0), res, scratch));
}

TEST(ReedSolomon, SmallerCodesHaveSmallerCapacity) {
  ReedSolomon rs4{4};  // corrects 2
  Rng rng{5};
  const auto msg = random_message(30, rng);
  auto cw = rs_codeword(rs4, msg);
  cw[0] ^= 1;
  cw[10] ^= 2;
  RsDecodeResult res;
  RsScratch scratch;
  ASSERT_TRUE(rs4.decode_into(cw, res, scratch));
  EXPECT_EQ(res.data, msg);
  cw[20] ^= 3;  // third error exceeds capacity
  if (rs4.decode_into(cw, res, scratch)) {
    EXPECT_NE(res.data, msg);
  }
}

// Property sweep: round-trips for every payload length used by the frame
// layer's block splitter.
class RsLengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsLengthSweep, RoundTripWithMaxErrors) {
  ReedSolomon rs{16};
  Rng rng{100 + GetParam()};
  const auto msg = random_message(GetParam(), rng);
  auto cw = rs_codeword(rs, msg);
  std::vector<std::size_t> positions;
  while (positions.size() < 8) {
    const auto p = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cw.size()) - 1));
    bool dup = false;
    for (auto q : positions) dup = dup || q == p;
    if (!dup) positions.push_back(p);
  }
  for (auto p : positions) cw[p] ^= 0x77;
  RsDecodeResult res;
  RsScratch scratch;
  ASSERT_TRUE(rs.decode_into(cw, res, scratch));
  EXPECT_EQ(res.data, msg);
}

INSTANTIATE_TEST_SUITE_P(Lengths, RsLengthSweep,
                         ::testing::Values(9u, 16u, 50u, 100u, 150u, 199u,
                                           200u, 239u));

}  // namespace
}  // namespace densevlc::phy
