#include "core/beamspot.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "dsp/snr_estimator.hpp"

namespace densevlc::core {

JointTransmission::JointTransmission(const optics::LedModel& led,
                                     const phy::OokParams& ook,
                                     const phy::FrontEndConfig& frontend)
    : led_{led}, ook_{ook}, frontend_{frontend} {}

double JointTransmission::frame_airtime_s(const phy::MacFrame& frame) const {
  if (frame.payload.size() > phy::kMaxPayload) {
    throw std::invalid_argument{"frame_airtime_s: payload exceeds kMaxPayload"};
  }
  // Preamble chips plus 16 Manchester chips per serialized byte.
  const std::size_t chips =
      phy::kPreambleChips +
      16 * phy::serialized_frame_bytes(frame.payload.size());
  return static_cast<double>(chips) / ook_.chip_rate_hz;
}

void JointTransmission::render_optical_into(
    std::span<const ServingTx> servers, const phy::MacFrame& frame,
    std::span<const InterfererGroup> interferers, double ambient_optical_w,
    dsp::Waveform& optical) const {
  const auto chips = phy::frame_to_chips(frame);
  const double tx_rate = ook_.sample_rate_hz();

  // Every participating chip stream shares one timeline.
  std::size_t longest_chips = chips.size();
  double max_offset = 0.0;
  for (const auto& s : servers) {
    max_offset = std::max(max_offset, std::fabs(s.start_offset_s));
  }
  std::vector<std::vector<phy::Chip>> interferer_chips;
  interferer_chips.reserve(interferers.size());
  for (const auto& group : interferers) {
    interferer_chips.push_back(phy::frame_to_chips(group.frame));
    longest_chips = std::max(longest_chips, interferer_chips.back().size());
    for (const auto& s : group.txs) {
      max_offset = std::max(max_offset, std::fabs(s.start_offset_s));
    }
  }

  const std::size_t guard_samples = 16 * ook_.samples_per_chip;
  const auto offset_samples_max =
      static_cast<std::size_t>(std::ceil(max_offset * tx_rate));
  const std::size_t total = longest_chips * ook_.samples_per_chip +
                            2 * guard_samples + 2 * offset_samples_max;

  optical.sample_rate_hz = tx_rate;
  optical.samples.assign(total, ambient_optical_w);

  const double eta = led_.electrical().wall_plug_efficiency;
  const double bias = led_.operating_point().bias_current_a;
  const auto base_start =
      static_cast<double>(guard_samples + offset_samples_max);

  auto add_stream = [&](const ServingTx& server,
                        const std::vector<phy::Chip>& stream) {
    if (server.gain <= 0.0) return;
    const auto start = static_cast<std::ptrdiff_t>(
        base_start +
        static_cast<double>(std::llround(server.start_offset_s * tx_rate)));
    const double half = server.swing_a / 2.0;
    const double p_bias =
        eta * led_.power_at_current(Amperes{bias}).value();
    const double p_high =
        eta * led_.power_at_current(Amperes{bias + half}).value();
    const double p_low =
        eta * led_.power_at_current(Amperes{bias - half}).value();
    const auto frame_samples = static_cast<std::ptrdiff_t>(
        stream.size() * ook_.samples_per_chip);

    for (std::size_t s = 0; s < total; ++s) {
      const auto rel = static_cast<std::ptrdiff_t>(s) - start;
      double level;
      if (rel < 0 || rel >= frame_samples) {
        level = p_bias;  // idle illumination before/after the frame
      } else {
        const auto chip_idx =
            static_cast<std::size_t>(rel) / ook_.samples_per_chip;
        level = stream[chip_idx] == phy::Chip::kHigh ? p_high : p_low;
      }
      optical.samples[s] += server.gain * level;
    }
  };

  for (const auto& server : servers) add_stream(server, chips);
  for (std::size_t g = 0; g < interferers.size(); ++g) {
    for (const auto& itx : interferers[g].txs) {
      add_stream(itx, interferer_chips[g]);
    }
  }
}

TransmissionOutcome JointTransmission::transmit(
    std::span<const ServingTx> servers, const phy::MacFrame& frame,
    Rng& rng, std::span<const InterfererGroup> interferers,
    double ambient_optical_w) const {
  const TransmitJob job{servers, &frame, interferers, ambient_optical_w};
  TransmissionOutcome out;
  TransmitBatchScratch scratch;
  transmit_batch({&job, 1}, rng, {&out, 1}, scratch);
  return out;
}

void JointTransmission::transmit_batch(std::span<const TransmitJob> jobs,
                                       Rng& rng,
                                       std::span<TransmissionOutcome> outcomes,
                                       TransmitBatchScratch& scratch) const {
  const std::size_t n = jobs.size();
  DVLC_EXPECT(outcomes.size() == n,
              "transmit_batch: one outcome per job");
  scratch.optical.resize(n);
  scratch.rx.resize(n);
  scratch.active.clear();
  for (std::size_t i = 0; i < n; ++i) {
    outcomes[i] = TransmissionOutcome{};
    if (jobs[i].servers.empty()) continue;  // no lane, no fork
    render_optical_into(jobs[i].servers, *jobs[i].frame, jobs[i].interferers,
                        jobs[i].ambient_optical_w, scratch.optical[i]);
    scratch.active.push_back(i);
  }
  const std::size_t m = scratch.active.size();

  // Rendering draws nothing from `rng`, so forking all noise substreams
  // here — in job order — yields the exact per-lane streams of a
  // sequence of one-job calls.
  scratch.fes.clear();
  scratch.fes.reserve(m);
  scratch.fe_ptrs.resize(m);
  scratch.optical_ptrs.resize(m);
  scratch.rx_ptrs.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t lane = scratch.active[j];
    scratch.fes.emplace_back(frontend_, rng.fork());
    scratch.optical_ptrs[j] = &scratch.optical[lane];
    scratch.rx_ptrs[j] = &scratch.rx[lane];
  }
  for (std::size_t j = 0; j < m; ++j) scratch.fe_ptrs[j] = &scratch.fes[j];
  phy::ReceiverFrontEnd::process_batch_into(scratch.fe_ptrs,
                                            scratch.optical_ptrs,
                                            scratch.rx_ptrs,
                                            scratch.fe_scratch);

  const phy::OokDemodulator demod{ook_.chip_rate_hz,
                                  frontend_.adc.sample_rate_hz};
  scratch.signals.resize(m);
  scratch.results.resize(m);
  scratch.ok.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    scratch.signals[j] = scratch.rx_ptrs[j]->samples;
  }
  demod.receive_batch_into(scratch.signals, scratch.results, scratch.ok,
                           scratch.rx_scratch);

  for (std::size_t j = 0; j < m; ++j) {
    if (scratch.ok[j] == 0) continue;  // keeps the default outcome
    const std::size_t lane = scratch.active[j];
    const phy::OokDemodulator::RxResult& r = scratch.results[j];
    TransmissionOutcome& out = outcomes[lane];
    out.preamble_found = true;
    out.correlation = r.correlation;
    out.corrected_bytes = r.parsed.corrected_bytes;
    out.delivered = r.parsed.frame == *jobs[lane].frame;
    if (const auto snr = dsp::m2m4_snr(scratch.signals[j])) {
      out.snr_estimate_db = snr->snr_db;
    }
  }
}

}  // namespace densevlc::core
