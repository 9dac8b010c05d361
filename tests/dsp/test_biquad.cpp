// Tests for biquad sections and cascades.
#include "dsp/biquad.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/waveform.hpp"

namespace densevlc::dsp {
namespace {

TEST(Biquad, IdentityPassesThrough) {
  Biquad b{BiquadCoeffs{}};  // b0 = 1, everything else 0
  for (double x : {1.0, -2.0, 0.5, 0.0}) {
    EXPECT_DOUBLE_EQ(b.step(x), x);
  }
}

TEST(Biquad, PureDelayLine) {
  BiquadCoeffs c;
  c.b0 = 0.0;
  c.b1 = 1.0;  // y[n] = x[n-1]
  Biquad b{c};
  EXPECT_DOUBLE_EQ(b.step(3.0), 0.0);
  EXPECT_DOUBLE_EQ(b.step(5.0), 3.0);
  EXPECT_DOUBLE_EQ(b.step(0.0), 5.0);
}

TEST(Biquad, OnePoleDecays) {
  BiquadCoeffs c;
  c.b0 = 1.0;
  c.a1 = -0.5;  // y[n] = x[n] + 0.5 y[n-1]
  Biquad b{c};
  EXPECT_DOUBLE_EQ(b.step(1.0), 1.0);
  EXPECT_DOUBLE_EQ(b.step(0.0), 0.5);
  EXPECT_DOUBLE_EQ(b.step(0.0), 0.25);
}

TEST(Cascade, EmptyCascadeIsIdentity) {
  BiquadCascade c{std::vector<BiquadCoeffs>{}};
  EXPECT_DOUBLE_EQ(c.step(7.0), 7.0);
}

TEST(Cascade, TwoSectionsCompose) {
  // Two pure one-sample delays = two-sample delay.
  BiquadCoeffs d;
  d.b0 = 0.0;
  d.b1 = 1.0;
  BiquadCascade c{{d, d}};
  EXPECT_DOUBLE_EQ(c.step(1.0), 0.0);
  EXPECT_DOUBLE_EQ(c.step(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.step(0.0), 1.0);
}

TEST(Cascade, MagnitudeOfIdentityIsOne) {
  BiquadCascade c{std::vector<BiquadCoeffs>{BiquadCoeffs{}}};
  for (double f : {10.0, 1000.0, 20000.0}) {
    EXPECT_NEAR(c.magnitude_at(f, 48000.0), 1.0, 1e-12);
  }
}

TEST(Cascade, MagnitudeOfMovingAverageNullsNyquist) {
  // y[n] = (x[n] + x[n-1]) / 2 has a zero at Nyquist.
  BiquadCoeffs c;
  c.b0 = 0.5;
  c.b1 = 0.5;
  BiquadCascade cas{{c}};
  EXPECT_NEAR(cas.magnitude_at(24000.0, 48000.0), 0.0, 1e-12);
  EXPECT_NEAR(cas.magnitude_at(0.0, 48000.0), 1.0, 1e-12);
}

TEST(Waveform, DurationFromRate) {
  Waveform w;
  w.sample_rate_hz = 1000.0;
  w.samples.assign(500, 0.0);
  EXPECT_DOUBLE_EQ(w.duration(), 0.5);
  Waveform empty;
  EXPECT_DOUBLE_EQ(empty.duration(), 0.0);
}

}  // namespace
}  // namespace densevlc::dsp
