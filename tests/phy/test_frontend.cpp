// Tests for the receiver analog front-end model.
#include "phy/frontend.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"

namespace densevlc::phy {
namespace {

FrontEndConfig quiet_config() {
  FrontEndConfig cfg;
  cfg.noise_psd_a2_per_hz = 0.0;
  return cfg;
}

dsp::Waveform square_optical(double low_w, double high_w, double chip_s,
                             std::size_t chips, double rate) {
  dsp::Waveform wf;
  wf.sample_rate_hz = rate;
  const auto per_chip = static_cast<std::size_t>(chip_s * rate);
  for (std::size_t c = 0; c < chips; ++c) {
    wf.samples.insert(wf.samples.end(), per_chip,
                      c % 2 == 0 ? high_w : low_w);
  }
  return wf;
}

TEST(FrontEnd, OutputAtAdcRate) {
  ReceiverFrontEnd fe{quiet_config(), Rng{1}};
  const auto in = square_optical(0.0, 1e-6, 10e-6, 100, 4e6);
  const auto out = fe.process(in);
  EXPECT_DOUBLE_EQ(out.sample_rate_hz, 1e6);
  EXPECT_NEAR(static_cast<double>(out.samples.size()),
              in.duration() * 1e6, 2.0);
}

TEST(FrontEnd, AcCouplingRemovesConstantLight) {
  ReceiverFrontEnd fe{quiet_config(), Rng{2}};
  dsp::Waveform dc;
  dc.sample_rate_hz = 1e6;
  dc.samples.assign(20000, 5e-6);  // constant ambient light, 20 ms
  const auto out = fe.process(dc);
  // After settling, the output must hover at zero.
  double tail_mean = 0.0;
  for (std::size_t i = out.samples.size() - 1000; i < out.samples.size();
       ++i) {
    tail_mean += out.samples[i];
  }
  tail_mean /= 1000.0;
  EXPECT_NEAR(tail_mean, 0.0, 1e-4);
}

TEST(FrontEnd, GainChainAmplitude) {
  // A +-P optical square wave at mid-band should come out at roughly
  // R * tia * ac_gain * P volts of amplitude. The Butterworth stage
  // overshoots at edges, so compare the *median* absolute level (the
  // flat chip centers), not the peak.
  FrontEndConfig cfg = quiet_config();
  ReceiverFrontEnd fe{cfg, Rng{3}};
  const double p = 1e-6;
  const auto in = square_optical(0.0, 2.0 * p, 10e-6, 400, 4e6);
  const auto out = fe.process(in);
  // Skip the AC-coupling settle; measure steady-state swing.
  std::vector<double> tail(out.samples.end() - 2000, out.samples.end());
  for (double& v : tail) v = std::fabs(v);
  const double level = stats::median(tail);
  const double expected =
      cfg.responsivity_a_per_w * cfg.tia_gain_ohm * cfg.ac_gain * p;
  EXPECT_NEAR(level, expected, expected * 0.25);
}

TEST(FrontEnd, NoiseSigmaFormula) {
  FrontEndConfig cfg;
  cfg.noise_psd_a2_per_hz = 8e-24;
  ReceiverFrontEnd fe{cfg, Rng{4}};
  EXPECT_NEAR(fe.noise_current_sigma(Hertz{1e6}).value(),
              std::sqrt(8e-24 * 5e5), 1e-18);
}

TEST(FrontEnd, NoiseAppearsAtOutput) {
  FrontEndConfig cfg;  // default N0 > 0
  ReceiverFrontEnd fe{cfg, Rng{5}};
  dsp::Waveform dark;
  dark.sample_rate_hz = 1e6;
  dark.samples.assign(20000, 0.0);
  const auto out = fe.process(dark);
  std::vector<double> tail(out.samples.end() - 5000, out.samples.end());
  EXPECT_GT(stats::stddev(tail), 0.0);
}

TEST(FrontEnd, DeterministicGivenSeed) {
  FrontEndConfig cfg;
  ReceiverFrontEnd a{cfg, Rng{77}};
  ReceiverFrontEnd b{cfg, Rng{77}};
  const auto in = square_optical(0.0, 1e-6, 10e-6, 50, 4e6);
  const auto out_a = a.process(in);
  const auto out_b = b.process(in);
  ASSERT_EQ(out_a.samples.size(), out_b.samples.size());
  for (std::size_t i = 0; i < out_a.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(out_a.samples[i], out_b.samples[i]);
  }
}

TEST(FrontEnd, QuantizationVisibleOnTinySignals) {
  // A signal far below one LSB must come out flat (all zeros after the
  // mid-rail trick) — quantization is really modeled.
  FrontEndConfig cfg = quiet_config();
  ReceiverFrontEnd fe{cfg, Rng{6}};
  dsp::Waveform tiny;
  tiny.sample_rate_hz = 1e6;
  tiny.samples.assign(5000, 0.0);
  // LSB at 12 bits over 3.3 V is ~0.8 mV; feed a 1e-12 W blip -> ~40 nV.
  for (std::size_t i = 2000; i < 2500; ++i) tiny.samples[i] = 1e-12;
  const auto out = fe.process(tiny);
  for (double v : out.samples) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace densevlc::phy
