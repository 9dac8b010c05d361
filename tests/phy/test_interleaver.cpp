// Tests for the block interleaver.
#include "phy/interleaver.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "phy/reed_solomon.hpp"
#include "rs_codeword.hpp"

namespace densevlc::phy {
namespace {

TEST(Interleaver, DepthOneIsIdentity) {
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  std::vector<std::uint8_t> out(data.size());
  interleave_into(data, 0, out);
  EXPECT_EQ(out, data);
  interleave_into(data, 1, out);
  EXPECT_EQ(out, data);
  deinterleave_into(data, 1, out);
  EXPECT_EQ(out, data);
}

TEST(Interleaver, KnownSmallCase) {
  // 6 bytes, depth 2: rows [0 1 2 / 3 4 5], column read: 0 3 1 4 2 5.
  const std::vector<std::uint8_t> data{0, 1, 2, 3, 4, 5};
  std::vector<std::uint8_t> out(data.size());
  interleave_into(data, 2, out);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0, 3, 1, 4, 2, 5}));
}

TEST(Interleaver, RoundTripExact) {
  Rng rng{1};
  for (std::size_t size : {5u, 16u, 100u, 217u, 1000u}) {
    for (std::size_t depth : {2u, 4u, 8u, 16u}) {
      std::vector<std::uint8_t> data(size);
      for (auto& b : data) {
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      std::vector<std::uint8_t> wire(size);
      std::vector<std::uint8_t> rt(size);
      interleave_into(data, depth, wire);
      deinterleave_into(wire, depth, rt);
      EXPECT_EQ(rt, data) << "size " << size << " depth " << depth;
    }
  }
}

TEST(Interleaver, OutputIsPermutation) {
  std::vector<std::uint8_t> data(97);
  std::iota(data.begin(), data.end(), 0);
  std::vector<std::uint8_t> sorted(data.size());
  interleave_into(data, 7, sorted);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, data);
}

TEST(Interleaver, SpreadsBursts) {
  // A contiguous burst of length L lands on positions that, after
  // deinterleaving, are at least `depth` apart.
  std::vector<std::uint8_t> data(200, 0);
  const std::size_t depth = 8;
  std::vector<std::uint8_t> wire(data.size());
  interleave_into(data, depth, wire);
  // Corrupt a 16-byte burst on the wire.
  for (std::size_t i = 50; i < 66; ++i) wire[i] = 0xFF;
  std::vector<std::uint8_t> restored(wire.size());
  deinterleave_into(wire, depth, restored);
  // Count the longest run of corrupted positions after deinterleaving.
  std::size_t longest = 0;
  std::size_t run = 0;
  for (std::size_t i = 0; i < restored.size(); ++i) {
    if (restored[i] == 0xFF) {
      ++run;
      longest = std::max(longest, run);
    } else {
      run = 0;
    }
  }
  EXPECT_LE(longest, 2u);  // 16-byte burst spread over depth 8
}

TEST(Interleaver, RescuesRsFromBurst) {
  // End-to-end: a 30-byte burst kills a bare RS(216,200) block but is
  // survivable when the interleaver depth equals the codeword count, so
  // every matrix row is exactly one codeword and a wire burst of L
  // spreads to ceil(L / depth) errors per codeword (30/4 -> <= 8).
  ReedSolomon rs{16};
  Rng rng{2};
  const std::size_t depth = 4;  // one row per codeword
  std::vector<std::uint8_t> wire;
  std::vector<std::vector<std::uint8_t>> messages;
  for (std::size_t b = 0; b < depth; ++b) {
    std::vector<std::uint8_t> msg(200);
    for (auto& byte : msg) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    messages.push_back(msg);
    const auto cw = rs_codeword(rs, msg);
    wire.insert(wire.end(), cw.begin(), cw.end());
  }

  auto corrupt = [&](std::vector<std::uint8_t> data) {
    for (std::size_t i = 300; i < 330; ++i) data[i] ^= 0x5A;
    return data;
  };

  RsDecodeResult res;
  RsScratch scratch;
  // Without interleaving: the burst sits inside codeword 1 and breaks it.
  {
    const auto hit = corrupt(wire);
    const auto cw1 = std::vector<std::uint8_t>(hit.begin() + 216,
                                               hit.begin() + 432);
    EXPECT_FALSE(rs.decode_into(cw1, res, scratch));
  }

  // With matched-depth interleaving all four codewords decode.
  {
    std::vector<std::uint8_t> mixed(wire.size());
    interleave_into(wire, depth, mixed);
    const auto mixed_hit = corrupt(mixed);
    std::vector<std::uint8_t> hit(wire.size());
    deinterleave_into(mixed_hit, depth, hit);
    for (std::size_t b = 0; b < depth; ++b) {
      const auto cw = std::vector<std::uint8_t>(
          hit.begin() + static_cast<std::ptrdiff_t>(b * 216),
          hit.begin() + static_cast<std::ptrdiff_t>((b + 1) * 216));
      ASSERT_TRUE(rs.decode_into(cw, res, scratch)) << "block " << b;
      EXPECT_EQ(res.data, messages[b]);
    }
  }
}

TEST(Interleaver, BurstToleranceFormula) {
  EXPECT_EQ(burst_tolerance(1, 8), 8u);
  EXPECT_EQ(burst_tolerance(8, 8), 64u);
  EXPECT_EQ(burst_tolerance(16, 8), 128u);
}

}  // namespace
}  // namespace densevlc::phy
