// Differential suite for the zero-allocation PHY fast paths.
//
// Every LUT/arena rework is held bit-for-bit against the frozen scalar
// baselines in bench/phy_reference.{hpp,cpp}: same chips, same decodes,
// same violation and correction counts, including Reed-Solomon error
// bursts up to and beyond the correction capacity. The binary also links
// bench/alloc_hook.cpp, so the steady-state loops can assert a literal
// zero heap allocations on the DVLC_HOT paths.
//
// The whole suite is parameterized over the SIMD dispatch: every test
// runs once with the native vector backend and once forced onto the
// scalar kernels (simd::set_force_scalar). Both legs compare against the
// same frozen reference, so scalar and vector outputs are pinned
// bit-identical to each other transitively.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "alloc_hook.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "dsp/waveform.hpp"
#include "phy/frame.hpp"
#include "phy/frame_codec.hpp"
#include "phy/interleaver.hpp"
#include "phy/manchester.hpp"
#include "phy/ook.hpp"
#include "phy/reed_solomon.hpp"
#include "phy_reference.hpp"
#include "rs_codeword.hpp"

namespace densevlc {
namespace {

/// Param = force-scalar: false runs the native (vector) dispatch, true
/// pins every kernel onto the scalar backend.
class FastPath : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::set_force_scalar(GetParam()); }
  void TearDown() override { simd::set_force_scalar(false); }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, FastPath, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? "ForcedScalar" : "NativeSimd";
    });

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return bytes;
}

phy::MacFrame random_frame(std::size_t payload, Rng& rng) {
  phy::MacFrame f;
  f.dst = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  f.src = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  f.payload = random_bytes(payload, rng);
  return f;
}

// --- Manchester ----------------------------------------------------------

TEST_P(FastPath, ManchesterEncodeMatchesScalarReference) {
  Rng rng{0xA1};
  for (std::size_t n : {0, 1, 2, 9, 64, 257, 1125}) {
    const auto bytes = random_bytes(n, rng);
    const auto ref_chips =
        bench::ref::manchester_encode(bench::ref::bytes_to_bits(bytes));
    std::vector<phy::Chip> chips(16 * n);
    phy::manchester_encode_bytes(bytes, chips);
    EXPECT_EQ(chips, ref_chips) << "n=" << n;
  }
}

TEST_P(FastPath, ManchesterLenientDecodeMatchesScalarOnCorruptChips) {
  Rng rng{0xA2};
  for (int trial = 0; trial < 20; ++trial) {
    const auto bytes = random_bytes(200, rng);
    std::vector<phy::Chip> chips(16 * bytes.size());
    phy::manchester_encode_bytes(bytes, chips);
    // Flip a handful of chips: creates coding violations and bit errors.
    for (int e = 0; e < trial; ++e) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(chips.size()) - 1));
      chips[at] = chips[at] == phy::Chip::kHigh ? phy::Chip::kLow
                                                : phy::Chip::kHigh;
    }
    const auto ref_dec = bench::ref::manchester_decode_lenient(chips);
    const auto ref_bytes = bench::ref::bits_to_bytes(ref_dec.bits);
    ASSERT_TRUE(ref_bytes.has_value());
    std::vector<std::uint8_t> fast(bytes.size());
    const std::size_t violations =
        phy::manchester_decode_bytes_lenient(chips, fast);
    EXPECT_EQ(fast, *ref_bytes) << "trial=" << trial;
    EXPECT_EQ(violations, ref_dec.violations) << "trial=" << trial;
  }
}

TEST_P(FastPath, BitHelpersMatchScalarReference) {
  Rng rng{0xA3};
  const auto bytes = random_bytes(513, rng);
  EXPECT_EQ(phy::bytes_to_bits(bytes), bench::ref::bytes_to_bits(bytes));
  const auto bits = bench::ref::bytes_to_bits(bytes);
  const auto packed = phy::bits_to_bytes(bits);
  const auto ref_packed = bench::ref::bits_to_bytes(bits);
  ASSERT_TRUE(packed.has_value());
  ASSERT_TRUE(ref_packed.has_value());
  EXPECT_EQ(*packed, *ref_packed);
}

// --- Interleaver ---------------------------------------------------------

TEST_P(FastPath, InterleaverMatchesScalarReference) {
  Rng rng{0xB1};
  for (std::size_t n : {0, 1, 7, 200, 648, 1000}) {
    const auto data = random_bytes(n, rng);
    std::vector<std::uint8_t> out(data.size());
    for (std::size_t depth : {0, 1, 2, 3, 8}) {
      phy::interleave_into(data, depth, out);
      EXPECT_EQ(out, bench::ref::interleave(data, depth))
          << "n=" << n << " depth=" << depth;
      phy::deinterleave_into(data, depth, out);
      EXPECT_EQ(out, bench::ref::deinterleave(data, depth))
          << "n=" << n << " depth=" << depth;
    }
  }
}

// --- Reed-Solomon --------------------------------------------------------

TEST_P(FastPath, RsEncodeMatchesScalarReference) {
  Rng rng{0xC1};
  const phy::ReedSolomon rs{16};
  const bench::ref::ReedSolomon ref_rs{16};
  for (std::size_t n : {1, 8, 50, 200, 239}) {
    const auto msg = random_bytes(n, rng);
    EXPECT_EQ(phy::rs_codeword(rs, msg), ref_rs.encode(msg)) << "n=" << n;
  }
}

TEST_P(FastPath, RsErrorBurstDecodesMatchScalarReference) {
  Rng rng{0xC2};
  const phy::ReedSolomon rs{16};
  const bench::ref::ReedSolomon ref_rs{16};
  const auto msg = random_bytes(200, rng);
  const auto clean = ref_rs.encode(msg);
  phy::RsDecodeResult dec;
  phy::RsScratch scratch;
  // Contiguous bursts of 0..10 errors: 9 and 10 exceed the capacity of 8
  // and must fail identically on both paths.
  for (std::size_t burst = 0; burst <= 10; ++burst) {
    auto cw = clean;
    const std::size_t start = 40 + 3 * burst;
    for (std::size_t e = 0; e < burst; ++e) {
      cw[start + e] = static_cast<std::uint8_t>(cw[start + e] ^ 0xFF);
    }
    const auto ref_dec = ref_rs.decode(cw);
    const bool ok = rs.decode_into(cw, dec, scratch);
    ASSERT_EQ(ok, ref_dec.has_value()) << "burst=" << burst;
    EXPECT_EQ(ok, burst <= rs.correction_capacity()) << "burst=" << burst;
    if (ok) {
      EXPECT_EQ(dec.data, ref_dec->data) << "burst=" << burst;
      EXPECT_EQ(dec.corrected_errors, ref_dec->corrected_errors)
          << "burst=" << burst;
      EXPECT_EQ(dec.data, msg) << "burst=" << burst;
    }
  }
}

TEST_P(FastPath, RsScatteredErrorsMatchScalarReference) {
  Rng rng{0xC3};
  const phy::ReedSolomon rs{16};
  const bench::ref::ReedSolomon ref_rs{16};
  phy::RsDecodeResult dec;
  phy::RsScratch scratch;
  for (int trial = 0; trial < 25; ++trial) {
    const auto msg = random_bytes(
        static_cast<std::size_t>(rng.uniform_int(1, 200)), rng);
    auto cw = ref_rs.encode(msg);
    const auto n_err = static_cast<std::size_t>(rng.uniform_int(0, 10));
    for (std::size_t e = 0; e < n_err; ++e) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cw.size()) - 1));
      cw[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    const auto ref_dec = ref_rs.decode(cw);
    const bool ok = rs.decode_into(cw, dec, scratch);
    ASSERT_EQ(ok, ref_dec.has_value()) << "trial=" << trial;
    if (ok) {
      EXPECT_EQ(dec.data, ref_dec->data) << "trial=" << trial;
      EXPECT_EQ(dec.corrected_errors, ref_dec->corrected_errors)
          << "trial=" << trial;
    }
  }
}

// --- Frame + codec -------------------------------------------------------

TEST_P(FastPath, FrameSerializationMatchesScalarReference) {
  Rng rng{0xD1};
  for (std::size_t payload : {0, 1, 199, 200, 201, 600, 1500}) {
    const auto f = random_frame(payload, rng);
    const auto wire = phy::serialize_frame(f);
    EXPECT_EQ(wire, bench::ref::serialize_frame(f)) << "payload=" << payload;
    const auto parsed = phy::parse_frame(wire);
    const auto ref_parsed = bench::ref::parse_frame(wire);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(ref_parsed.has_value());
    EXPECT_EQ(parsed->frame, ref_parsed->frame);
    EXPECT_EQ(parsed->corrected_bytes, ref_parsed->corrected_bytes);
  }
}

TEST_P(FastPath, CodecChipPipelineMatchesScalarReference) {
  Rng rng{0xD2};
  phy::FrameCodec::Scratch cscr;
  std::vector<std::uint8_t> wire;
  std::vector<phy::Chip> chips;
  std::vector<std::uint8_t> bytes;
  phy::ParsedFrame parsed;
  for (std::size_t payload : {0, 1, 200, 600}) {
    for (std::size_t depth : {0, 1, 3}) {
      const auto f = random_frame(payload, rng);
      const auto ref_chips = bench::ref::codec_encode_chips(f, depth);
      const phy::FrameCodec codec{depth};
      codec.encode_into(f, wire, cscr);
      arena_resize(chips, wire.size() * 16);
      phy::manchester_encode_bytes(wire, chips);
      EXPECT_EQ(chips, ref_chips) << "payload=" << payload
                                  << " depth=" << depth;

      const auto ref_parsed = bench::ref::codec_decode_chips(chips, depth);
      arena_resize(bytes, chips.size() / 16);
      phy::manchester_decode_bytes_lenient(chips, bytes);
      const bool ok = codec.decode_into(bytes, parsed, cscr);
      ASSERT_TRUE(ok);
      ASSERT_TRUE(ref_parsed.has_value());
      EXPECT_EQ(parsed.frame, ref_parsed->frame);
      EXPECT_EQ(parsed.frame.payload, f.payload);
    }
  }
}

// --- Exhaustive byte-domain sweeps ---------------------------------------

TEST_P(FastPath, ManchesterAllByteValuesMatchScalarReference) {
  // Every possible byte value through encode and decode: the whole LUT /
  // movemask domain, not just random samples.
  std::vector<std::uint8_t> bytes(256);
  std::iota(bytes.begin(), bytes.end(), std::uint8_t{0});
  const auto ref_chips =
      bench::ref::manchester_encode(bench::ref::bytes_to_bits(bytes));
  std::vector<phy::Chip> chips(16 * bytes.size());
  phy::manchester_encode_bytes(bytes, chips);
  EXPECT_EQ(chips, ref_chips);

  std::vector<std::uint8_t> decoded(bytes.size());
  const std::size_t violations =
      phy::manchester_decode_bytes_lenient(chips, decoded);
  EXPECT_EQ(decoded, bytes);
  EXPECT_EQ(violations, 0u);

  // Every possible *chip pair* value: both violation patterns (00, 11)
  // in every pair slot of a byte, against the reference decoder.
  std::vector<phy::Chip> raw(16 * 256);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    // Walks all 4 pair states through all 8 positions over the sweep.
    raw[i] = ((i * 2654435761u) >> 7) % 2 == 0 ? phy::Chip::kLow
                                               : phy::Chip::kHigh;
  }
  const auto ref_dec = bench::ref::manchester_decode_lenient(raw);
  const auto ref_bytes = bench::ref::bits_to_bytes(ref_dec.bits);
  ASSERT_TRUE(ref_bytes.has_value());
  std::vector<std::uint8_t> fast(256);
  const std::size_t raw_violations =
      phy::manchester_decode_bytes_lenient(raw, fast);
  EXPECT_EQ(fast, *ref_bytes);
  EXPECT_EQ(raw_violations, ref_dec.violations);
}

TEST_P(FastPath, RsAllByteValuesMatchScalarReference) {
  const phy::ReedSolomon rs{16};
  const bench::ref::ReedSolomon ref_rs{16};
  // One codeword containing every byte value (GF(256) is exercised over
  // its full domain), plus every single-byte message.
  std::vector<std::uint8_t> all(239);
  std::iota(all.begin(), all.end(), std::uint8_t{0});
  EXPECT_EQ(phy::rs_codeword(rs, all), ref_rs.encode(all));
  phy::RsDecodeResult dec;
  phy::RsScratch scratch;
  for (int v = 0; v < 256; ++v) {
    const std::vector<std::uint8_t> one{static_cast<std::uint8_t>(v)};
    const auto cw = ref_rs.encode(one);
    EXPECT_EQ(phy::rs_codeword(rs, one), cw) << "v=" << v;
    ASSERT_TRUE(rs.decode_into(cw, dec, scratch)) << "v=" << v;
    EXPECT_EQ(dec.data, one) << "v=" << v;
    EXPECT_EQ(dec.corrected_errors, 0u) << "v=" << v;
  }
}

// --- Zero-allocation assertions ------------------------------------------

TEST_P(FastPath, CodecSteadyStateIsAllocationFree) {
  Rng rng{0xF1};
  const auto f = random_frame(600, rng);
  const phy::FrameCodec codec{phy::FrameCodec::matched_depth(600)};
  phy::FrameCodec::Scratch cscr;
  std::vector<std::uint8_t> wire;
  std::vector<phy::Chip> chips;
  std::vector<std::uint8_t> bytes;
  phy::ParsedFrame parsed;
  const auto run_one = [&] {
    codec.encode_into(f, wire, cscr);
    arena_resize(chips, wire.size() * 16);
    phy::manchester_encode_bytes(wire, chips);
    arena_resize(bytes, chips.size() / 16);
    phy::manchester_decode_bytes_lenient(chips, bytes);
    ASSERT_TRUE(codec.decode_into(bytes, parsed, cscr));
  };
  run_one();  // warm-up: buffers reach steady-state capacity here
  ASSERT_GE(chips.capacity(), wire.size() * 16);
  ASSERT_GE(bytes.capacity(), chips.size() / 16);
  const std::uint64_t before = bench::alloc_count();
  for (int i = 0; i < 10; ++i) run_one();
  EXPECT_EQ(bench::alloc_count() - before, 0u);
}

TEST_P(FastPath, ReceiveChainSteadyStateIsAllocationFree) {
  Rng rng{0xF2};
  const auto f = random_frame(300, rng);
  const phy::OokParams params{};
  const phy::OokModulator mod{params};
  const phy::OokDemodulator demod{params.chip_rate_hz,
                                  params.sample_rate_hz()};
  phy::OokModulator::TxScratch txs;
  phy::OokDemodulator::BatchRxScratch rxs;
  phy::OokDemodulator::RxResult rx[1];
  std::uint8_t ok[1] = {0};
  dsp::Waveform wf;
  const auto run_one = [&] {
    mod.modulate_frame_into(f, false, 0, 8, wf, txs);
    for (double& v : wf.samples) v -= params.bias_current_a;
    const std::span<const double> lanes[] = {wf.samples};
    ASSERT_EQ(demod.receive_batch_into(lanes, rx, ok, rxs), 1u);
    ASSERT_EQ(rx[0].parsed.frame.payload, f.payload);
  };
  run_one();  // warm-up
  const std::uint64_t before = bench::alloc_count();
  for (int i = 0; i < 5; ++i) run_one();
  EXPECT_EQ(bench::alloc_count() - before, 0u);
}

}  // namespace
}  // namespace densevlc
