// Tests for waveform-level channel measurement.
#include "core/prober.hpp"

#include <gtest/gtest.h>

#include "scenario/scenarios.hpp"

namespace densevlc::core {
namespace {

struct Fixture {
  core::Testbed tb = core::make_simulation_testbed();
  phy::OokParams ook{};
  phy::FrontEndConfig frontend{};
  ChannelProber prober{tb.led, ook, frontend, 0.9};
};

TEST(Prober, RecoversStrongLinkGain) {
  Fixture f;
  Rng rng{1};
  const double h = 8e-7;  // typical best-TX gain in the testbed
  const auto res = f.prober.probe_link(h, rng);
  ASSERT_TRUE(res.detected);
  EXPECT_NEAR(res.gain_estimate, h, h * 0.10);
  EXPECT_GT(res.snr_db, 5.0);
}

TEST(Prober, ZeroGainNotDetected) {
  Fixture f;
  Rng rng{2};
  const auto res = f.prober.probe_link(0.0, rng);
  EXPECT_FALSE(res.detected);
  EXPECT_DOUBLE_EQ(res.gain_estimate, 0.0);
}

TEST(Prober, TinyGainBelowNoiseFloorRejected) {
  Fixture f;
  Rng rng{3};
  const auto res = f.prober.probe_link(1e-12, rng);
  // Either undetected or estimated as essentially zero; never a wild
  // overestimate.
  if (res.detected) {
    EXPECT_LT(res.gain_estimate, 1e-9);
  }
}

TEST(Prober, EstimateScalesLinearlyWithGain) {
  Fixture f;
  Rng rng{4};
  const auto weak = f.prober.probe_link(2e-7, rng);
  const auto strong = f.prober.probe_link(8e-7, rng);
  ASSERT_TRUE(weak.detected);
  ASSERT_TRUE(strong.detected);
  EXPECT_NEAR(strong.gain_estimate / weak.gain_estimate, 4.0, 0.6);
}

TEST(Prober, MatrixMeasurementPreservesOrdering) {
  Fixture f;
  Rng rng{5};
  const auto truth = f.tb.channel_for(scenario::fig7_rx_positions());
  const auto measured = f.prober.probe_matrix(truth, rng);
  ASSERT_EQ(measured.num_tx(), truth.num_tx());
  // The strongest TX per RX must survive measurement noise.
  for (std::size_t k = 0; k < truth.num_rx(); ++k) {
    EXPECT_EQ(measured.best_tx_for(k), truth.best_tx_for(k)) << "RX " << k;
  }
}

TEST(Prober, CalibrationConstantPositive) {
  Fixture f;
  EXPECT_GT(f.prober.volts_per_gain(), 0.0);
}

TEST(Prober, SnrDropsWithGain) {
  Fixture f;
  Rng rng{6};
  const auto strong = f.prober.probe_link(8e-7, rng);
  const auto weak = f.prober.probe_link(1e-7, rng);
  ASSERT_TRUE(strong.detected);
  if (weak.detected) {
    EXPECT_GT(strong.snr_db, weak.snr_db);
  }
}

}  // namespace
}  // namespace densevlc::core
