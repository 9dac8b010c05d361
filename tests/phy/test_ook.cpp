// Tests for the OOK modulator and demodulator.
#include "phy/ook.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace densevlc::phy {
namespace {

OokParams params() {
  OokParams p;
  p.chip_rate_hz = 100e3;
  p.samples_per_chip = 10;
  p.bias_current_a = 0.45;
  p.swing_current_a = 0.9;
  return p;
}

dsp::Waveform frame_waveform(const OokModulator& mod, const MacFrame& f,
                             bool include_pilot, std::uint8_t tx_id,
                             std::size_t guard_chips) {
  dsp::Waveform wf;
  OokModulator::TxScratch scratch;
  mod.modulate_frame_into(f, include_pilot, tx_id, guard_chips, wf, scratch);
  return wf;
}

/// One frame through the receiver: a batch of one lane.
std::optional<OokDemodulator::RxResult> receive(
    const OokDemodulator& demod, std::span<const double> signal) {
  const std::span<const double> lanes[] = {signal};
  OokDemodulator::RxResult out[1];
  std::uint8_t ok[1] = {0};
  OokDemodulator::BatchRxScratch scratch;
  if (demod.receive_batch_into(lanes, out, ok, scratch) != 1) {
    return std::nullopt;
  }
  EXPECT_EQ(ok[0], 1);
  return out[0];
}

TEST(OokModulator, ThreeCurrentLevels) {
  const OokModulator mod{params()};
  EXPECT_DOUBLE_EQ(mod.chip_current(Chip::kHigh), 0.9);
  EXPECT_DOUBLE_EQ(mod.chip_current(Chip::kLow), 0.0);
  // Idle (illumination) sits at the bias.
  const auto idle = mod.idle(2);
  for (double s : idle.samples) EXPECT_DOUBLE_EQ(s, 0.45);
}

TEST(OokModulator, WaveformShape) {
  const OokModulator mod{params()};
  const std::vector<Chip> chips{Chip::kHigh, Chip::kLow};
  const auto wf = mod.modulate(chips);
  ASSERT_EQ(wf.samples.size(), 20u);
  EXPECT_DOUBLE_EQ(wf.sample_rate_hz, 1e6);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(wf.samples[i], 0.9);
  for (std::size_t i = 10; i < 20; ++i) EXPECT_DOUBLE_EQ(wf.samples[i], 0.0);
}

TEST(OokModulator, AverageCurrentIsBiasForManchesterData) {
  const OokModulator mod{params()};
  Rng rng{5};
  std::vector<std::uint8_t> bits(400);
  for (auto& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
  const auto wf = mod.modulate(manchester_encode(bits));
  double sum = 0.0;
  for (double s : wf.samples) sum += s;
  EXPECT_NEAR(sum / static_cast<double>(wf.samples.size()), 0.45, 1e-12);
}

TEST(OokModulator, FrameWaveformHasGuards) {
  const OokModulator mod{params()};
  MacFrame f;
  f.payload = {1, 2, 3};
  const auto wf = frame_waveform(mod, f, false, 0, 4);
  // First 4 chips at bias.
  for (std::size_t i = 0; i < 4 * 10; ++i) {
    EXPECT_DOUBLE_EQ(wf.samples[i], 0.45);
  }
}

TEST(OokModulator, PilotExtendsFrame) {
  const OokModulator mod{params()};
  MacFrame f;
  f.payload = {9};
  const auto plain = frame_waveform(mod, f, false, 2, 0);
  const auto with_pilot = frame_waveform(mod, f, true, 2, 0);
  // Pilot adds 32 chips plus 16 Manchester chips of leader ID.
  EXPECT_EQ(with_pilot.samples.size() - plain.samples.size(),
            (kPilotChips + 16) * 10);
}

TEST(OokDemodulator, SlicesCleanChips) {
  const OokDemodulator demod{100e3, 1e6};
  // Build an AC-coupled-looking signal: +-1 V chips at 10 samples/chip.
  std::vector<double> signal;
  const std::vector<Chip> chips{Chip::kHigh, Chip::kLow, Chip::kLow,
                                Chip::kHigh};
  for (Chip c : chips) {
    signal.insert(signal.end(), 10, c == Chip::kHigh ? 1.0 : -1.0);
  }
  const auto sliced = demod.slice_chips(signal, 0.0, chips.size());
  EXPECT_EQ(sliced, chips);
}

TEST(OokDemodulator, TemplateMatchesPreambleLength) {
  const OokDemodulator demod{100e3, 1e6};
  std::vector<double> tpl;
  demod.preamble_template_into(tpl);
  EXPECT_EQ(tpl.size(), kPreambleChips * 10);
  EXPECT_DOUBLE_EQ(demod.samples_per_chip(), 10.0);
}

TEST(OokDemodulator, ReceivesCleanFrameEndToEnd) {
  // Modulate a frame, AC-couple it ideally (subtract bias), demodulate.
  const OokModulator mod{params()};
  const OokDemodulator demod{100e3, 1e6};
  Rng rng{11};
  MacFrame f;
  f.dst = 1;
  f.src = 0xC0;
  f.payload.resize(100);
  for (auto& b : f.payload) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  auto wf = frame_waveform(mod, f, false, 0, 8);
  for (double& s : wf.samples) s -= 0.45;  // ideal AC coupling
  const auto res = receive(demod, wf.samples);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->parsed.frame, f);
  EXPECT_EQ(res->manchester_violations, 0u);
  EXPECT_GT(res->correlation, 0.95);
}

TEST(OokDemodulator, SurvivesModerateNoise) {
  const OokModulator mod{params()};
  const OokDemodulator demod{100e3, 1e6};
  Rng rng{12};
  MacFrame f;
  f.payload = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5, 6};
  auto wf = frame_waveform(mod, f, false, 0, 8);
  for (double& s : wf.samples) {
    s = s - 0.45 + rng.gaussian(0.0, 0.10);  // SNR ~ 13 dB on +-0.45
  }
  const auto res = receive(demod, wf.samples);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->parsed.frame, f);
}

TEST(OokDemodulator, NoSignalNoFrame) {
  const OokDemodulator demod{100e3, 1e6};
  Rng rng{13};
  std::vector<double> noise(20000);
  for (double& s : noise) s = rng.gaussian(0.0, 0.2);
  EXPECT_FALSE(receive(demod, noise).has_value());
}

TEST(OokDemodulator, FractionalSamplesPerChip) {
  // frx / chip rate that is not an integer must still decode: 1 Msps over
  // 80 kchips/s = 12.5 samples per chip.
  OokParams p = params();
  p.chip_rate_hz = 80e3;
  const OokModulator mod{p};
  const OokDemodulator demod{80e3, 1e6};
  MacFrame f;
  f.payload = {42, 43, 44};
  auto wf = frame_waveform(mod, f, false, 0, 8);
  // Resample the 800 kHz TX waveform to 1 MHz by zero-order hold.
  std::vector<double> rx;
  const double ratio = wf.sample_rate_hz / 1e6;
  for (std::size_t i = 0;; ++i) {
    const auto src = static_cast<std::size_t>(static_cast<double>(i) * ratio);
    if (src >= wf.samples.size()) break;
    rx.push_back(wf.samples[src] - 0.45);
  }
  const auto res = receive(demod, rx);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->parsed.frame, f);
}

}  // namespace
}  // namespace densevlc::phy
