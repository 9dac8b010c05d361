// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/ook.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "dsp/correlate.hpp"

namespace densevlc::phy {
namespace {

// Slices chips first, first + 1, ... up to out.size() of a stream whose
// chip 0 starts at sample `offset_samples`: chip i integrates its window
// from offset_samples + i * spc wherever the slicing starts.
void slice_chip_range(std::span<const double> signal, double offset_samples,
                      double spc, std::size_t first, std::span<Chip> out) {
  for (std::size_t i = first; i < out.size(); ++i) {
    const double start = offset_samples + static_cast<double>(i) * spc;
    // Integrate the central half of the chip to dodge edge transients.
    const auto lo = static_cast<std::size_t>(
        std::max(0.0, start + 0.25 * spc));
    const auto hi = static_cast<std::size_t>(
        std::max(0.0, start + 0.75 * spc));
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t s = lo; s <= hi && s < signal.size(); ++s) {
      acc += signal[s];
      ++n;
    }
    const double mean = n > 0 ? acc / static_cast<double>(n) : 0.0;
    out[i] = mean > 0.0 ? Chip::kHigh : Chip::kLow;
  }
}

}  // namespace

double OokModulator::chip_current(Chip chip) const {
  const double half = params_.swing_current_a / 2.0;
  return chip == Chip::kHigh ? params_.bias_current_a + half
                             : params_.bias_current_a - half;
}

dsp::Waveform OokModulator::modulate(std::span<const Chip> chips) const {
  dsp::Waveform wf;
  wf.sample_rate_hz = params_.sample_rate_hz();
  const std::size_t spc = params_.samples_per_chip;
  arena_resize(wf.samples, chips.size() * spc);
  std::size_t w = 0;
  for (Chip c : chips) {
    const double level = chip_current(c);
    for (std::size_t s = 0; s < spc; ++s) wf.samples[w++] = level;
  }
  return wf;
}

dsp::Waveform OokModulator::idle(std::size_t idle_chips) const {
  dsp::Waveform wf;
  wf.sample_rate_hz = params_.sample_rate_hz();
  arena_resize(wf.samples, idle_chips * params_.samples_per_chip);
  for (double& v : wf.samples) v = params_.bias_current_a;
  return wf;
}

void OokModulator::modulate_frame_into(const MacFrame& frame,
                                       bool include_pilot, std::uint8_t tx_id,
                                       std::size_t guard_chips,
                                       dsp::Waveform& wf,
                                       TxScratch& scratch) const {
  // Assemble the on-air chip sequence: [pilot + id] preamble + data.
  serialize_frame_into(frame, scratch.wire);
  const auto pilot = pilot_pattern();
  const auto pre = preamble_pattern();
  const std::size_t pilot_chips =
      include_pilot ? pilot.size() + 16 : 0;  // 16 chips: Manchester id byte
  const std::size_t total_chips =
      pilot_chips + pre.size() + scratch.wire.size() * 16;
  arena_resize(scratch.chips, total_chips);
  std::span<Chip> at{scratch.chips};
  if (include_pilot) {
    std::copy(pilot.begin(), pilot.end(), at.begin());
    const std::array<std::uint8_t, 1> id_byte{tx_id};
    manchester_encode_bytes(id_byte, at.subspan(pilot.size(), 16));
    at = at.subspan(pilot_chips);
  }
  std::copy(pre.begin(), pre.end(), at.begin());
  manchester_encode_bytes(scratch.wire, at.subspan(pre.size()));

  // Render guard + data + guard in one buffer.
  wf.sample_rate_hz = params_.sample_rate_hz();
  const std::size_t spc = params_.samples_per_chip;
  const std::size_t guard_samples = guard_chips * spc;
  arena_resize(wf.samples, guard_samples * 2 + total_chips * spc);
  std::size_t w = 0;
  for (std::size_t s = 0; s < guard_samples; ++s)
    wf.samples[w++] = params_.bias_current_a;
  for (Chip c : scratch.chips) {
    const double level = chip_current(c);
    for (std::size_t s = 0; s < spc; ++s) wf.samples[w++] = level;
  }
  for (std::size_t s = 0; s < guard_samples; ++s)
    wf.samples[w++] = params_.bias_current_a;
}

void OokDemodulator::slice_chips_into(std::span<const double> signal,
                                      double offset_samples, std::size_t count,
                                      std::vector<Chip>& out) const {
  arena_resize(out, count);
  slice_chip_range(signal, offset_samples, samples_per_chip(), 0, out);
}

std::vector<Chip> OokDemodulator::slice_chips(std::span<const double> signal,
                                              double offset_samples,
                                              std::size_t count) const {
  std::vector<Chip> chips;
  slice_chips_into(signal, offset_samples, count, chips);
  return chips;
}

void OokDemodulator::preamble_template_into(std::vector<double>& tpl) const {
  const auto pre = preamble_pattern();
  const double spc = samples_per_chip();
  const auto total = static_cast<std::size_t>(
      std::ceil(static_cast<double>(pre.size()) * spc));
  arena_resize(tpl, total);
  for (std::size_t s = 0; s < total; ++s) {
    const auto chip_idx = std::min<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(s) / spc),
        pre.size() - 1);
    tpl[s] = pre[chip_idx] == Chip::kHigh ? 1.0 : -1.0;
  }
}

std::size_t OokDemodulator::receive_batch_into(
    std::span<const std::span<const double>> signals, std::span<RxResult> out,
    std::span<std::uint8_t> ok, BatchRxScratch& scratch,
    double min_correlation) const {
  const std::size_t n = signals.size();
  DVLC_EXPECT(out.size() == n && ok.size() == n,
              "receive_batch_into: span sizes must match");
  preamble_template_into(scratch.preamble_tpl);
  arena_resize(scratch.lane_bytes, n);
  arena_resize(scratch.wire_views, n);
  arena_resize(scratch.parse_out, n);
  arena_resize(scratch.parse_ok, n);
  arena_resize(scratch.lane_of, n);

  // Front half per lane: sync search, header peek, chip slicing, lenient
  // Manchester decode. Lanes that survive collect their wire bytes (kept
  // per lane so spans stay stable) for one combined parse_frames_batch
  // call.
  const double spc = samples_per_chip();
  constexpr std::size_t kHeaderChips = kHeaderBytes * 16;
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ok[i] = 0;
    const std::span<const double> signal = signals[i];
    const auto peak = dsp::detect_pattern_into(
        signal, scratch.preamble_tpl, min_correlation, 0, signal.size(),
        scratch.correlate);
    if (!peak) continue;
    const double data_start =
        static_cast<double>(peak->index) +
        static_cast<double>(kPreambleChips) * spc;

    // The header is decoded once, straight into the lane's bytes; the
    // rest of the frame is sliced and decoded after it.
    std::vector<std::uint8_t>& bytes = scratch.lane_bytes[k];
    arena_resize(scratch.chips, kHeaderChips);
    slice_chip_range(signal, data_start, spc, 0, scratch.chips);
    arena_resize(bytes, kHeaderBytes);
    std::size_t violations =
        manchester_decode_bytes_lenient(scratch.chips, bytes);
    const std::optional<std::uint16_t> length = read_frame_length(bytes);
    if (!length) continue;

    const std::size_t total_bytes = serialized_frame_bytes(*length);
    arena_resize(scratch.chips, total_bytes * 16);
    slice_chip_range(signal, data_start, spc, kHeaderChips, scratch.chips);
    arena_resize(bytes, total_bytes);
    violations += manchester_decode_bytes_lenient(
        std::span<const Chip>{scratch.chips}.subspan(kHeaderChips),
        std::span<std::uint8_t>{bytes}.subspan(kHeaderBytes));
    out[i].manchester_violations = violations;
    out[i].preamble_at = peak->index;
    out[i].correlation = peak->score;
    scratch.wire_views[k] = {bytes.data(), bytes.size()};
    scratch.parse_out[k] = &out[i].parsed;
    scratch.lane_of[k] = static_cast<std::uint32_t>(i);
    ++k;
  }

  parse_frames_batch(
      std::span<const std::span<const std::uint8_t>>{scratch.wire_views.data(),
                                                     k},
      std::span<ParsedFrame* const>{scratch.parse_out.data(), k},
      std::span<std::uint8_t>{scratch.parse_ok.data(), k}, scratch.batch);
  std::size_t decoded = 0;
  for (std::size_t j = 0; j < k; ++j) {
    ok[scratch.lane_of[j]] = scratch.parse_ok[j];
    decoded += scratch.parse_ok[j];
  }
  return decoded;
}

}  // namespace densevlc::phy
