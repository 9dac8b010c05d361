// Suite for the batch-of-frames PHY path.
//
// The batch parser is held lane for lane against the frozen scalar
// parser in bench/phy_reference, the front-end quad processing against
// one-lane calls, and JointTransmission::transmit_batch
// against one-job calls (same outcomes, same Rng stream). The receiver
// has no per-frame twin: each lane is checked against the frame that was
// sent, with one lane per reject path. Like test_fastpath, the whole
// suite is parameterized over the SIMD dispatch so both backends are
// pinned to the same results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "alloc_hook.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/beamspot.hpp"
#include "core/testbed.hpp"
#include "dsp/waveform.hpp"
#include "phy/frame.hpp"
#include "phy/frontend.hpp"
#include "phy/ook.hpp"
#include "phy_reference.hpp"

namespace densevlc {
namespace {

/// Param = force-scalar: false runs the native (vector) dispatch, true
/// pins every kernel onto the scalar backend.
class Batch : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::set_force_scalar(GetParam()); }
  void TearDown() override { simd::set_force_scalar(false); }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, Batch, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? "ForcedScalar" : "NativeSimd";
    });

phy::MacFrame make_frame(std::size_t payload, Rng& rng) {
  phy::MacFrame f;
  f.dst = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  f.src = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  f.payload.resize(payload);
  for (auto& b : f.payload) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return f;
}

// Payload sizes straddling the interesting codec boundaries: empty, one
// RS block, exactly one data block (239), several blocks, and kMaxPayload.
const std::size_t kPayloads[] = {0, 1, 60, 239, 240, 700, 1500};

// --- Batch parser ----------------------------------------------------------

TEST_P(Batch, DecodeFramesMatchesScalarIncludingCorruptLanes) {
  Rng rng{0xB2};
  std::vector<phy::MacFrame> frames;
  std::vector<std::vector<std::uint8_t>> wires;
  for (const std::size_t p : kPayloads) {
    frames.push_back(make_frame(p, rng));
    wires.push_back(phy::serialize_frame(frames.back()));
  }

  // Corrupt a spread of lanes: correctable single-byte hits, an error
  // burst past the RS capacity, and a trashed header. Lanes 0, 3 and 6
  // stay clean.
  wires[1][wires[1].size() / 2] ^= 0x5A;  // one correctable byte
  for (std::size_t j = 0; j < 40 && j < wires[2].size(); ++j) {
    wires[2][j + wires[2].size() / 3] ^= 0xFF;  // burst: uncorrectable
  }
  wires[4][0] ^= 0xFF;                          // SFD destroyed
  wires[5][5] ^= 0x01;
  wires[5][wires[5].size() - 1] ^= 0x80;        // two scattered hits

  // One lane per remaining reject branch of the header check and the
  // extent check. The first is a well-formed frame of kMaxPayload + 1
  // bytes (valid RS parity for every block), so only the length limit
  // rejects it; then a lane cut inside its length field and a lane cut
  // inside its parity.
  const std::size_t over = phy::kMaxPayload + 1;
  const auto body = make_frame(over, rng).payload;
  std::vector<std::uint8_t> too_long = {
      phy::kSfd, static_cast<std::uint8_t>(over >> 8),
      static_cast<std::uint8_t>(over & 0xFF), 0, 0, 0, 0, 0, 0};
  too_long.insert(too_long.end(), body.begin(), body.end());
  const bench::ref::ReedSolomon rs{phy::kRsBlockParity};
  for (std::size_t off = 0; off < over; off += phy::kRsBlockData) {
    const auto cw = rs.encode(std::span<const std::uint8_t>{body}.subspan(
        off, std::min(phy::kRsBlockData, over - off)));
    too_long.insert(too_long.end(),
                    cw.end() - static_cast<std::ptrdiff_t>(phy::kRsBlockParity),
                    cw.end());
  }
  ASSERT_EQ(too_long.size(), phy::serialized_frame_bytes(over));
  wires.push_back(too_long);
  auto header_cut = phy::serialize_frame(make_frame(40, rng));
  header_cut.resize(2);
  wires.push_back(header_cut);
  auto body_cut = phy::serialize_frame(make_frame(40, rng));
  body_cut.pop_back();
  wires.push_back(body_cut);

  const std::vector<std::uint8_t> expect_ok = {1, 1, 0, 1, 0, 1, 1,
                                               0, 0, 0};
  ASSERT_EQ(wires.size(), expect_ok.size());

  std::vector<std::span<const std::uint8_t>> views;
  for (const auto& w : wires) views.emplace_back(w);
  std::vector<phy::ParsedFrame> out(wires.size());
  std::vector<phy::ParsedFrame*> out_ptrs;
  for (auto& o : out) out_ptrs.push_back(&o);
  std::vector<std::uint8_t> ok(wires.size(), 0xEE);
  phy::FrameBatch batch;
  const std::size_t decoded =
      phy::parse_frames_batch(views, out_ptrs, ok, batch);

  std::size_t expected_decoded = 0;
  for (std::size_t i = 0; i < wires.size(); ++i) {
    const auto expect = bench::ref::parse_frame(views[i]);
    ASSERT_EQ(ok[i] != 0, expect.has_value()) << "lane " << i;
    EXPECT_EQ(ok[i], expect_ok[i]) << "lane " << i;
    if (expect) {
      ++expected_decoded;
      EXPECT_EQ(out[i].frame, expect->frame) << "lane " << i;
      EXPECT_EQ(out[i].corrected_bytes, expect->corrected_bytes)
          << "lane " << i;
    }
  }
  EXPECT_EQ(decoded, expected_decoded);
  EXPECT_EQ(out[0].frame, frames[0]);  // a clean lane round-trips
  EXPECT_EQ(out[5].corrected_bytes, 1u);
}

// --- Receiver ------------------------------------------------------------

// Guard and preamble ahead of the SFD in the lanes below, in samples
// (8 guard chips + 32 preamble chips at 10 samples per chip).
constexpr std::size_t kSfdSample = (8 + phy::kPreambleChips) * 10;

// Inverts the AC-coupled samples of wire bytes [first, first + count)
// (byte 0 = SFD, 16 chips of 10 samples per byte): every Manchester pair
// swaps, so every bit of those bytes flips.
void invert_wire_bytes(std::vector<double>& lane, std::size_t first,
                       std::size_t count) {
  for (std::size_t s = kSfdSample + 160 * first;
       s < kSfdSample + 160 * (first + count); ++s) {
    lane[s] = -lane[s];
  }
}

TEST_P(Batch, ReceiveBatchMatchesReceiveFrame) {
  // Each lane is checked against the frame that was sent: clean lanes
  // decode it exactly, and one lane per reject path fails without
  // disturbing its neighbours.
  Rng rng{0xB4};
  const phy::OokParams params{};
  const phy::OokModulator mod{params};
  const phy::OokDemodulator demod{params.chip_rate_hz,
                                  params.sample_rate_hz()};

  enum class Lane {
    kClean,
    kCorrected,
    kNoise,
    kBadSfd,
    kBadLength,
    kBadRs,
    kHeaderViolation,
  };
  struct Case {
    Lane kind;
    phy::MacFrame frame;
  };
  std::vector<Case> cases = {
      {Lane::kClean, make_frame(40, rng)},
      {Lane::kNoise, {}},
      {Lane::kClean, make_frame(0, rng)},
      {Lane::kBadSfd, make_frame(40, rng)},
      {Lane::kClean, make_frame(300, rng)},
      {Lane::kBadLength, make_frame(40, rng)},
      {Lane::kCorrected, make_frame(90, rng)},
      {Lane::kBadRs, make_frame(100, rng)},
      {Lane::kClean, make_frame(40, rng)},
      {Lane::kHeaderViolation, make_frame(40, rng)},
  };

  std::vector<std::vector<double>> lanes;
  phy::OokModulator::TxScratch txs;
  dsp::Waveform wf;
  for (const Case& c : cases) {
    if (c.kind == Lane::kNoise) {
      std::vector<double> noise(4000);
      for (auto& v : noise) v = rng.uniform(-0.02, 0.02);
      lanes.push_back(std::move(noise));
      continue;
    }
    mod.modulate_frame_into(c.frame, false, 0, 8, wf, txs);
    for (double& v : wf.samples) v -= params.bias_current_a;
    std::vector<double> lane(wf.samples.begin(), wf.samples.end());
    switch (c.kind) {
      case Lane::kBadSfd:
        invert_wire_bytes(lane, 0, 1);  // 0xA7 -> 0x58
        break;
      case Lane::kBadLength:
        invert_wire_bytes(lane, 1, 1);  // length 0x0028 -> 0xFF28
        break;
      case Lane::kCorrected:
        invert_wire_bytes(lane, 9 + 10, 3);  // 3 payload bytes: RS fixes
        break;
      case Lane::kBadRs:
        invert_wire_bytes(lane, 9 + 10, 20);  // 20 > 8 correctable bytes
        break;
      case Lane::kHeaderViolation: {
        // Wire byte 7, the protocol's high byte (0x00 for kData), after
        // the length: its MSB's first chip copies the second, so the pair
        // has no transition. The violation decodes to the sent 0 bit.
        const std::size_t at = kSfdSample + 160 * 7;
        for (std::size_t s = at; s < at + 10; ++s) lane[s] = lane[s + 10];
        break;
      }
      default:
        break;
    }
    lanes.push_back(std::move(lane));
  }

  std::vector<std::span<const double>> signals;
  for (const auto& lane : lanes) signals.emplace_back(lane);
  std::vector<phy::OokDemodulator::RxResult> out(lanes.size());
  std::vector<std::uint8_t> ok(lanes.size(), 0xEE);
  phy::OokDemodulator::BatchRxScratch scratch;
  const std::size_t decoded =
      demod.receive_batch_into(signals, out, ok, scratch);

  std::size_t expected_decoded = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Lane kind = cases[i].kind;
    if (kind != Lane::kClean && kind != Lane::kCorrected &&
        kind != Lane::kHeaderViolation) {
      EXPECT_EQ(ok[i], 0) << "lane " << i;
      continue;
    }
    ++expected_decoded;
    ASSERT_EQ(ok[i], 1) << "lane " << i;
    const phy::OokDemodulator::RxResult& r = out[i];
    EXPECT_EQ(r.parsed.frame, cases[i].frame) << "lane " << i;
    EXPECT_EQ(r.preamble_at, 8u * 10u) << "lane " << i;
    EXPECT_GT(r.correlation, 0.95) << "lane " << i;
    EXPECT_EQ(r.manchester_violations,
              kind == Lane::kHeaderViolation ? 1u : 0u)
        << "lane " << i;
    EXPECT_EQ(r.parsed.corrected_bytes, kind == Lane::kCorrected ? 3u : 0u)
        << "lane " << i;
  }
  EXPECT_EQ(decoded, expected_decoded);
}

// --- Batch front-end -----------------------------------------------------

dsp::Waveform make_optical(std::size_t samples, double rate, Rng& rng) {
  dsp::Waveform wf;
  wf.sample_rate_hz = rate;
  wf.samples.resize(samples);
  for (auto& v : wf.samples) v = 1e-6 * (1.0 + rng.uniform(-0.5, 0.5));
  return wf;
}

TEST_P(Batch, FrontEndBatchMatchesSequential) {
  Rng rng{0xB5};
  const phy::FrontEndConfig cfg{};
  // Two identical Rng streams so the batch and sequential front-ends draw
  // the exact same noise.
  Rng seq_rng{77};
  Rng batch_rng{77};
  // Seven lanes: one full quad of equal lengths, a ragged lane, an empty
  // lane, and one leftover — exercising the quad kernel, the per-lane
  // tails, the empty-lane skip, and the scalar fallback.
  const std::size_t lens[] = {5000, 5000, 5000, 5000, 5003, 0, 2000};
  std::vector<dsp::Waveform> optical;
  for (const std::size_t n : lens) {
    optical.push_back(make_optical(n, 1e6, rng));
  }

  std::vector<phy::ReceiverFrontEnd> seq_fes;
  std::vector<phy::ReceiverFrontEnd> batch_fes;
  for (std::size_t i = 0; i < optical.size(); ++i) {
    seq_fes.emplace_back(cfg, seq_rng.fork());
    batch_fes.emplace_back(cfg, batch_rng.fork());
  }

  // Two rounds over the same front-ends: round two starts from non-zero
  // filter state, pinning the stateful hand-off between batch calls.
  std::vector<dsp::Waveform> expect(optical.size());
  std::vector<dsp::Waveform> got(optical.size());
  phy::ReceiverFrontEnd::BatchScratch scratch;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < optical.size(); ++i) {
      // One-lane calls: every lane runs alone on the scalar cascades.
      phy::ReceiverFrontEnd* const fe[1] = {&seq_fes[i]};
      const dsp::Waveform* const in[1] = {&optical[i]};
      dsp::Waveform* const out[1] = {&expect[i]};
      phy::ReceiverFrontEnd::process_batch_into(fe, in, out, scratch);
    }
    std::vector<phy::ReceiverFrontEnd*> fes;
    std::vector<const dsp::Waveform*> in;
    std::vector<dsp::Waveform*> out;
    for (std::size_t i = 0; i < optical.size(); ++i) {
      fes.push_back(&batch_fes[i]);
      in.push_back(&optical[i]);
      out.push_back(&got[i]);
    }
    phy::ReceiverFrontEnd::process_batch_into(fes, in, out, scratch);
    for (std::size_t i = 0; i < optical.size(); ++i) {
      ASSERT_EQ(got[i].samples.size(), expect[i].samples.size())
          << "round " << round << " lane " << i;
      EXPECT_EQ(got[i].samples, expect[i].samples)
          << "round " << round << " lane " << i;
    }
  }
}

// --- Batch joint transmission --------------------------------------------

TEST_P(Batch, TransmitBatchMatchesSequential) {
  core::Testbed tb = core::make_experimental_testbed();
  const phy::OokParams ook{};
  const phy::FrontEndConfig frontend{};
  const core::JointTransmission jt{tb.led, ook, frontend};

  Rng frame_rng{0xB6};
  const auto frame_a = make_frame(60, frame_rng);
  const auto frame_b = make_frame(200, frame_rng);
  const auto frame_c = make_frame(32, frame_rng);

  const std::vector<core::ServingTx> one_tx{{7, 8e-7, 0.9, 0.0}};
  const std::vector<core::ServingTx> two_tx{{7, 6e-7, 0.9, 0.0},
                                            {13, 4e-7, 0.9, 0.3e-6}};
  const std::vector<core::ServingTx> weak_tx{{3, 2e-8, 0.9, 0.0}};
  std::vector<core::InterfererGroup> interferers(1);
  interferers[0].txs = {{21, 1e-7, 0.9, 12e-6}};
  interferers[0].frame = frame_c;

  // Lanes: normal, no servers (early-return, no Rng fork), joint two-TX,
  // interfered + ambient, weak link.
  std::vector<core::JointTransmission::TransmitJob> jobs = {
      {one_tx, &frame_a, {}, 0.0},
      {{}, &frame_a, {}, 0.0},
      {two_tx, &frame_b, {}, 0.0},
      {one_tx, &frame_b, interferers, 1e-6},
      {weak_tx, &frame_a, {}, 0.0},
  };

  Rng seq_rng{91};
  Rng batch_rng{91};
  std::vector<core::TransmissionOutcome> expect;
  for (const auto& job : jobs) {
    expect.push_back(jt.transmit(job.servers, *job.frame, seq_rng,
                                 job.interferers, job.ambient_optical_w));
  }
  std::vector<core::TransmissionOutcome> got(jobs.size());
  core::JointTransmission::TransmitBatchScratch scratch;
  jt.transmit_batch(jobs, batch_rng, got, scratch);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(got[i].delivered, expect[i].delivered) << "lane " << i;
    EXPECT_EQ(got[i].preamble_found, expect[i].preamble_found) << "lane " << i;
    EXPECT_EQ(got[i].corrected_bytes, expect[i].corrected_bytes)
        << "lane " << i;
    EXPECT_EQ(got[i].correlation, expect[i].correlation) << "lane " << i;
    EXPECT_EQ(got[i].snr_estimate_db, expect[i].snr_estimate_db)
        << "lane " << i;
  }
  EXPECT_TRUE(got[0].delivered);
  EXPECT_FALSE(got[1].delivered);
  // Both Rngs must have consumed the identical number of draws.
  EXPECT_EQ(seq_rng.uniform_int(0, 1 << 30), batch_rng.uniform_int(0, 1 << 30));
}

// --- Zero-allocation steady state ----------------------------------------

TEST_P(Batch, BatchPipelineSteadyStateIsAllocationFree) {
  Rng rng{0xB7};
  const std::vector<phy::MacFrame> frames = {make_frame(120, rng),
                                             make_frame(120, rng),
                                             make_frame(120, rng),
                                             make_frame(120, rng)};
  const phy::OokParams params{};
  const phy::OokModulator mod{params};
  const phy::OokDemodulator demod{params.chip_rate_hz,
                                  params.sample_rate_hz()};

  std::vector<dsp::Waveform> wfs(frames.size());
  phy::OokModulator::TxScratch txs;
  phy::OokDemodulator::BatchRxScratch rxb;
  std::vector<std::span<const double>> signals(frames.size());
  std::vector<phy::OokDemodulator::RxResult> results(frames.size());
  std::vector<std::uint8_t> ok(frames.size());

  const auto run_one = [&] {
    for (std::size_t i = 0; i < wfs.size(); ++i) {
      mod.modulate_frame_into(frames[i], false, 0, 8, wfs[i], txs);
      for (double& v : wfs[i].samples) v -= params.bias_current_a;
      signals[i] = wfs[i].samples;
    }
    ASSERT_EQ(demod.receive_batch_into(signals, results, ok, rxb),
              frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(results[i].parsed.frame.payload, frames[i].payload);
    }
  };
  run_one();  // warm-up: all batch scratch reaches steady-state capacity
  const std::uint64_t before = bench::alloc_count();
  for (int i = 0; i < 5; ++i) run_one();
  EXPECT_EQ(bench::alloc_count() - before, 0u);
}

}  // namespace
}  // namespace densevlc
