// Waveform-level channel measurement (paper Sec. 7.2, "Channel
// measurements").
//
// To quantify link quality, each TX in turn transmits a predefined chip
// pattern; the RX captures it through its full analog chain, estimates
// the received swing amplitude (and the M2M4 SNR), and reports the
// implied path loss back to the controller. The estimate inverts the
// known front-end gain chain, so measured gains are directly comparable
// with model gains — the experimental-pipeline benches (Figs. 18-20)
// build their channel matrices from these measurements.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "channel/model.hpp"
#include "common/rng.hpp"
#include "dsp/snr_estimator.hpp"
#include "optics/led_model.hpp"
#include "phy/frontend.hpp"
#include "phy/ook.hpp"

namespace densevlc::core {

/// One link measurement.
struct ProbeResult {
  double gain_estimate = 0.0;  ///< reconstructed H (optical DC gain)
  double snr_db = 0.0;         ///< M2M4 estimate over the probe chips
  bool detected = false;       ///< probe found above the noise floor
};

/// Measures links by driving the PHY end to end.
class ChannelProber {
 public:
  /// `ook` fixes chip rate and currents; probes always use full swing.
  ChannelProber(const optics::LedModel& led, const phy::OokParams& ook,
                const phy::FrontEndConfig& frontend, double max_swing_a);

  /// Probes one link of true gain `h` (from geometry or a fading draw).
  /// Noise and quantization make the estimate imperfect — exactly the
  /// imperfection the heuristic has to live with in practice. The
  /// front-end noise comes from rng.fork(); a link with h <= 0 measures
  /// nothing and leaves `rng` untouched.
  ProbeResult probe_link(double h, Rng& rng) const;

  /// Probes every entry of a true channel matrix, returning the measured
  /// matrix (undetected links measure 0): the probe phase of paper
  /// Sec. 3.2, which re-measures every link each epoch. Links are probed
  /// four at a time in parallel on the global pool; each link draws from
  /// its own split() sub-stream of one fork of `rng`, so the measurement
  /// is bit-identical at any thread count (and `rng` advances by exactly
  /// one fork regardless of size).
  channel::ChannelMatrix probe_matrix(const channel::ChannelMatrix& truth,
                                      Rng& rng) const;

  /// The calibration constant mapping received voltage amplitude back to
  /// channel gain: volts per unit H.
  double volts_per_gain() const { return volts_per_gain_; }

 private:
  /// The one probe implementation: measures out[i] for the link of true
  /// gain gains[i]. The links run four at a time through the batch
  /// front-end on the global pool; link i's front-end draws its noise
  /// from noise_for(i), which is called only for links of positive gain
  /// (the others measure nothing and take no lane).
  void probe_links(std::span<const double> gains,
                   const std::function<Rng(std::size_t)>& noise_for,
                   std::span<ProbeResult> out) const;

  optics::LedModel led_;
  phy::OokParams ook_;
  phy::FrontEndConfig frontend_;
  double swing_a_;
  double volts_per_gain_ = 0.0;
};

}  // namespace densevlc::core
