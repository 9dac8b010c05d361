#include "core/prober.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "dsp/correlate.hpp"

namespace densevlc::core {
namespace {

// Probe framing: bias lead-in, the probe chips at full swing, bias tail
// for filter settling.
constexpr std::size_t kLeadChips = 8;
constexpr std::size_t kProbeChips = 64;
constexpr std::size_t kTailChips = 8;

// The receiver knows the probe follows the lead-in, so it searches
// correlator positions from 1 chip before the lead-in's end to 2 chips
// after it (front-end delay) instead of the whole capture.
constexpr std::size_t kSearchChipsBefore = 1;
constexpr std::size_t kSearchChipsAfter = 2;

/// Deterministic, DC-balanced probe pattern (maximal-length LFSR bits,
/// then forced balance by pairing).
const std::vector<phy::Chip>& probe_pattern() {
  static const std::vector<phy::Chip> pattern = [] {
    std::vector<phy::Chip> chips;
    chips.reserve(kProbeChips);
    unsigned lfsr = 0xACE1u;
    for (std::size_t i = 0; i < kProbeChips / 2; ++i) {
      const unsigned bit =
          ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1u;
      lfsr = (lfsr >> 1) | (bit << 15);
      // Emit the bit and its complement: guaranteed DC-free.
      chips.push_back(bit ? phy::Chip::kHigh : phy::Chip::kLow);
      chips.push_back(bit ? phy::Chip::kLow : phy::Chip::kHigh);
    }
    return chips;
  }();
  return pattern;
}

/// What every link of a sweep shares: the optical power P(I) of each TX
/// sample of the probe, the +-1 correlation template at the ADC rate,
/// and the correlator positions the probe can start at.
struct ProbeRender {
  dsp::Waveform power;
  std::vector<double> tpl;
  double spc = 0.0;  ///< ADC samples per chip
  std::size_t search_first = 0;
  std::size_t search_last = 0;  ///< one past the last searched position
};

ProbeRender render_probe(const optics::LedModel& led,
                         const phy::OokParams& ook,
                         const phy::FrontEndConfig& frontend,
                         double swing_a) {
  phy::OokParams params = ook;
  params.swing_current_a = swing_a;
  const phy::OokModulator mod{params};
  const auto& pattern = probe_pattern();

  ProbeRender out;
  out.power = mod.idle(kLeadChips);
  {
    const dsp::Waveform body = mod.modulate(pattern);
    out.power.samples.insert(out.power.samples.end(), body.samples.begin(),
                             body.samples.end());
    const dsp::Waveform tail = mod.idle(kTailChips);
    out.power.samples.insert(out.power.samples.end(), tail.samples.begin(),
                             tail.samples.end());
  }
  for (double& s : out.power.samples) {
    s = led.power_at_current(Amperes{s}).value();
  }

  out.spc = frontend.adc.sample_rate_hz / params.chip_rate_hz;
  const auto tpl_len = static_cast<std::size_t>(
      std::ceil(static_cast<double>(pattern.size()) * out.spc));
  out.tpl.reserve(tpl_len);
  for (std::size_t s = 0; s < tpl_len; ++s) {
    const auto idx = std::min<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(s) / out.spc),
        pattern.size() - 1);
    out.tpl.push_back(pattern[idx] == phy::Chip::kHigh ? 1.0 : -1.0);
  }

  // The correlator clamps `search_last` to the capture it is given.
  out.search_first = static_cast<std::size_t>(
      static_cast<double>(kLeadChips - kSearchChipsBefore) * out.spc);
  out.search_last =
      static_cast<std::size_t>(
          static_cast<double>(kLeadChips + kSearchChipsAfter) * out.spc) +
      1;
  return out;
}

/// Per-item workspace of a sweep: four front-end lanes and the detector.
struct LaneScratch {
  dsp::Waveform optical[4];
  dsp::Waveform rx[4];
  phy::ReceiverFrontEnd::BatchScratch batch;
  dsp::CorrelateScratch corr;
  std::vector<double> chip_values;
};

/// Locates the probe in one link's capture and estimates its gain.
ProbeResult measure(std::span<const double> rx, const ProbeRender& probe,
                    double volts_per_gain, LaneScratch& scratch) {
  ProbeResult out;
  const auto peak =
      dsp::detect_pattern_into(rx, probe.tpl, 0.5, probe.search_first,
                               probe.search_last, scratch.corr);
  if (!peak) return out;
  out.detected = true;

  // Slice with the known pattern and average sign-corrected amplitudes.
  const auto& pattern = probe_pattern();
  const double spc = probe.spc;
  std::vector<double>& chip_values = scratch.chip_values;
  chip_values.clear();
  chip_values.reserve(pattern.size());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    const double start =
        static_cast<double>(peak->index) + static_cast<double>(i) * spc;
    const auto lo = static_cast<std::size_t>(start + 0.25 * spc);
    const auto hi = static_cast<std::size_t>(start + 0.75 * spc);
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t s = lo; s <= hi && s < rx.size(); ++s) {
      acc += rx[s];
      ++n;
    }
    if (n > 0) chip_values.push_back(acc / static_cast<double>(n));
  }
  double amplitude = 0.0;
  for (std::size_t i = 0; i < chip_values.size(); ++i) {
    const double sign = pattern[i] == phy::Chip::kHigh ? 1.0 : -1.0;
    amplitude += sign * chip_values[i];
  }
  amplitude /= static_cast<double>(chip_values.size());
  out.gain_estimate = std::max(0.0, amplitude) / volts_per_gain;

  if (const auto snr = dsp::m2m4_snr(chip_values)) {
    out.snr_db = snr->snr_db;
  }
  return out;
}

/// What the parallel items of one sweep share.
struct SweepShared {
  const ProbeRender& probe;
  const phy::FrontEndConfig& frontend;
  double eta;
  double volts_per_gain;
  std::span<const double> gains;
  const std::function<Rng(std::size_t)>& noise_for;
  std::span<ProbeResult> out;

  /// Probes up to four links (indices into `gains`) as the lanes of one
  /// batch front-end call, which is bit-identical per lane to a lone
  /// front-end; each lane owns its noise stream, so the grouping cannot
  /// change any link's draws.
  void run_lanes(std::span<const std::size_t> links) const {
    const std::size_t lanes = links.size();
    // One workspace per pool thread, reused across quads and sweeps;
    // every buffer in it is fully rewritten before it is read.
    thread_local LaneScratch scratch;
    std::optional<phy::ReceiverFrontEnd> fes[4];
    phy::ReceiverFrontEnd* fe_ptrs[4] = {};
    const dsp::Waveform* in[4] = {};
    dsp::Waveform* rx[4] = {};
    const std::size_t samples = probe.power.samples.size();
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t i = links[l];
      fes[l].emplace(frontend, noise_for(i));
      fe_ptrs[l] = &*fes[l];
      // (h * eta) * P[s]: exactly the per-link h * eta * P(I) of a
      // waveform rendered for this link alone.
      dsp::Waveform& optical = scratch.optical[l];
      optical.sample_rate_hz = probe.power.sample_rate_hz;
      optical.samples.resize(samples);
      const double scale = gains[i] * eta;
      for (std::size_t s = 0; s < samples; ++s) {
        optical.samples[s] = scale * probe.power.samples[s];
      }
      in[l] = &optical;
      rx[l] = &scratch.rx[l];
    }
    phy::ReceiverFrontEnd::process_batch_into(
        {fe_ptrs, lanes}, {in, lanes}, {rx, lanes}, scratch.batch);
    for (std::size_t l = 0; l < lanes; ++l) {
      out[links[l]] =
          measure(scratch.rx[l].samples, probe, volts_per_gain, scratch);
    }
  }
};

}  // namespace

ChannelProber::ChannelProber(const optics::LedModel& led,
                             const phy::OokParams& ook,
                             const phy::FrontEndConfig& frontend,
                             double max_swing_a)
    : led_{led}, ook_{ook}, frontend_{frontend}, swing_a_{max_swing_a} {
  // Calibration: optical swing amplitude at full probe swing, times the
  // receive chain's small-signal gain, gives volts of slicer amplitude
  // per unit channel gain.
  const double ib = led_.operating_point().bias_current_a;
  const double optical_amplitude =
      led_.electrical().wall_plug_efficiency *
      (led_.power_at_current(Amperes{ib + swing_a_ / 2.0}) -
       led_.power_at_current(Amperes{ib - swing_a_ / 2.0}))
          .value() /
      2.0;
  volts_per_gain_ = frontend_.responsivity_a_per_w * frontend_.tia_gain_ohm *
                    frontend_.ac_gain * optical_amplitude;
}

ProbeResult ChannelProber::probe_link(double h, Rng& rng) const {
  ProbeResult out;
  probe_links({&h, 1}, [&](std::size_t) { return rng.fork(); }, {&out, 1});
  return out;
}

void ChannelProber::probe_links(
    std::span<const double> gains,
    const std::function<Rng(std::size_t)>& noise_for,
    std::span<ProbeResult> out) const {
  // Zero-gain links measure nothing and take no lane.
  std::vector<std::size_t> live;
  live.reserve(gains.size());
  for (std::size_t i = 0; i < gains.size(); ++i) {
    out[i] = ProbeResult{};
    if (gains[i] > 0.0) live.push_back(i);
  }
  if (live.empty()) return;

  // Rendered once per sweep, not per link (nor in the constructor: a
  // prober that never probes pays nothing).
  const ProbeRender probe = render_probe(led_, ook_, frontend_, swing_a_);
  const SweepShared shared{probe,
                           frontend_,
                           led_.electrical().wall_plug_efficiency,
                           volts_per_gain_,
                           gains,
                           noise_for,
                           out};
  const std::size_t quads = (live.size() + 3) / 4;
  parallel_for(0, quads, [&](std::size_t q) {
    const std::size_t first = 4 * q;
    shared.run_lanes(std::span<const std::size_t>{live}.subspan(
        first, std::min<std::size_t>(4, live.size() - first)));
  });
}

channel::ChannelMatrix ChannelProber::probe_matrix(
    const channel::ChannelMatrix& truth, Rng& rng) const {
  // One fork anchors the whole sweep to the caller's stream position;
  // each link then gets its own split() sub-stream keyed by its index
  // in the matrix, so the noise draws are a function of (sweep, link
  // index) alone — not of the order (or thread) in which links run.
  // Bit-identical at any thread count.
  const Rng sweep_rng = rng.fork();
  const std::size_t m = truth.num_rx();
  const std::size_t links = truth.num_tx() * m;
  std::vector<double> gains(links);
  for (std::size_t idx = 0; idx < links; ++idx) {
    gains[idx] = truth.gain(idx / m, idx % m);
  }
  std::vector<ProbeResult> results(links);
  probe_links(
      gains, [&](std::size_t idx) { return sweep_rng.split(idx).fork(); },
      results);
  std::vector<double> measured(links);
  for (std::size_t idx = 0; idx < links; ++idx) {
    measured[idx] = results[idx].gain_estimate;
  }
  return {truth.num_tx(), m, std::move(measured)};
}

}  // namespace densevlc::core
