// Direct-form-II-transposed biquad sections and cascades.
//
// All IIR filtering in the receiver front-end model (AC coupling,
// anti-aliasing Butterworth) runs through these sections. DF2T is the
// numerically preferred direct form for double-precision audio-rate work.
#pragma once

#include <span>
#include <vector>

namespace densevlc::dsp {

/// Normalized biquad coefficients (a0 == 1 implied):
///   y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]
struct BiquadCoeffs {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// One stateful biquad section.
class Biquad {
 public:
  Biquad() = default;
  explicit Biquad(const BiquadCoeffs& c) : c_{c} {}

  /// Processes one sample.
  double step(double x) {
    const double y = c_.b0 * x + s1_;
    s1_ = c_.b1 * x - c_.a1 * y + s2_;
    s2_ = c_.b2 * x - c_.a2 * y;
    return y;
  }

  /// Filters a block in place — same arithmetic as step() per sample.
  void process_block(std::span<double> x) {
    for (double& v : x) v = step(v);
  }

  const BiquadCoeffs& coeffs() const { return c_; }

  /// DF2T delay-line state, exposed so the x4 batch kernel can stage
  /// lanes into struct-of-arrays form and write the state back.
  double state_s1() const { return s1_; }
  double state_s2() const { return s2_; }
  void set_state(double s1, double s2) {
    s1_ = s1;
    s2_ = s2;
  }

 private:
  BiquadCoeffs c_{};
  double s1_ = 0.0, s2_ = 0.0;
};

/// A cascade of biquad sections applied in series.
class BiquadCascade {
 public:
  BiquadCascade() = default;
  explicit BiquadCascade(const std::vector<BiquadCoeffs>& sections);

  /// Processes one sample through every section.
  double step(double x);

  /// Filters a block in place: one full-block pass per section, so each
  /// section's coefficients stay in registers for the whole block.
  /// Bit-identical to chaining step() sample by sample (each section's
  /// output depends only on its own state and input stream).
  void process_block(std::span<double> x);

  /// Magnitude response |H(e^{j 2 pi f / fs})| of the cascade.
  double magnitude_at(double freq_hz, double sample_rate_hz) const;

  std::size_t section_count() const { return sections_.size(); }

  /// Section access for the x4 batch kernel's state staging.
  Biquad& section(std::size_t i) { return sections_[i]; }
  const Biquad& section(std::size_t i) const { return sections_[i]; }

 private:
  std::vector<Biquad> sections_;
};

/// Filters four equally-shaped cascades in lockstep over a 4-lane
/// interleaved block (`interleaved[t*4 + lane]`, length a multiple of 4).
/// Stateful like process_block: each cascade's delay lines continue from
/// and are written back to the cascade objects, so callers may finish a
/// ragged tail per lane with process_block afterwards. Bit-identical per
/// lane to calling cascades[lane]->process_block on that lane's samples.
/// Dispatches to the SIMD backend unless DVLC_FORCE_SCALAR is set.
void process_cascades_x4(BiquadCascade* const cascades[4],
                         std::span<double> interleaved);

}  // namespace densevlc::dsp
