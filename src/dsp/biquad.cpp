// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "dsp/biquad.hpp"

#include <cmath>
#include <complex>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "dsp/dsp_kernels.hpp"

namespace densevlc::dsp {

BiquadCascade::BiquadCascade(const std::vector<BiquadCoeffs>& sections) {
  sections_.reserve(sections.size());
  // DVLC_LINT_WAIVE(hot-loop-alloc): one-time construction, reserved above
  for (const auto& c : sections) sections_.emplace_back(c);
}

double BiquadCascade::step(double x) {
  for (auto& s : sections_) x = s.step(x);
  return x;
}

void BiquadCascade::process_block(std::span<double> x) {
  for (auto& s : sections_) s.process_block(x);
}

void process_cascades_x4(BiquadCascade* const cascades[4],
                         std::span<double> interleaved) {
  DVLC_EXPECT(interleaved.size() % 4 == 0,
              "x4 block must be 4-lane interleaved");
  const std::size_t sections = cascades[0]->section_count();
  DVLC_EXPECT(sections <= detail::kMaxBiquadSections,
              "cascade too deep for the x4 kernel");
  for (std::size_t l = 1; l < 4; ++l) {
    DVLC_EXPECT(cascades[l]->section_count() == sections,
                "x4 lanes must share the cascade shape");
  }
  // Stage coefficients and delay-line state into lane-major groups of 4.
  double coeffs[detail::kMaxBiquadSections * 20];
  double states[detail::kMaxBiquadSections * 8];
  for (std::size_t s = 0; s < sections; ++s) {
    for (std::size_t l = 0; l < 4; ++l) {
      const Biquad& sec = cascades[l]->section(s);
      const BiquadCoeffs& c = sec.coeffs();
      coeffs[s * 20 + 0 + l] = c.b0;
      coeffs[s * 20 + 4 + l] = c.b1;
      coeffs[s * 20 + 8 + l] = c.b2;
      coeffs[s * 20 + 12 + l] = c.a1;
      coeffs[s * 20 + 16 + l] = c.a2;
      states[s * 8 + 0 + l] = sec.state_s1();
      states[s * 8 + 4 + l] = sec.state_s2();
    }
  }
  const std::size_t samples = interleaved.size() / 4;
  if (simd::use_vector_kernels()) {
    detail::biquad_x4_vec(coeffs, states, sections, interleaved.data(),
                          samples);
  } else {
    detail::biquad_x4_kernel<simd::ScalarBackend>(
        coeffs, states, sections, interleaved.data(), samples);
  }
  for (std::size_t s = 0; s < sections; ++s) {
    for (std::size_t l = 0; l < 4; ++l) {
      cascades[l]->section(s).set_state(states[s * 8 + 0 + l],
                                        states[s * 8 + 4 + l]);
    }
  }
}

double BiquadCascade::magnitude_at(double freq_hz,
                                   double sample_rate_hz) const {
  const double omega = 2.0 * kPi * freq_hz / sample_rate_hz;
  const std::complex<double> z_inv = std::polar(1.0, -omega);
  std::complex<double> h{1.0, 0.0};
  for (const auto& s : sections_) {
    const auto& c = s.coeffs();
    const std::complex<double> num =
        c.b0 + c.b1 * z_inv + c.b2 * z_inv * z_inv;
    const std::complex<double> den =
        1.0 + c.a1 * z_inv + c.a2 * z_inv * z_inv;
    h *= num / den;
  }
  return std::abs(h);
}

}  // namespace densevlc::dsp
