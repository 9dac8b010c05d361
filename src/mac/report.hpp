// Channel-report codec (paper Sec. 7.2, "Channel measurements").
//
// After the probe phase each RX reports its measured downlink gains to
// the controller over the WiFi uplink. The report is "fit in a frame
// with minimal length": gains are quantized to 16-bit fixed point with a
// 1e-10 LSB (resolution ~0.01% of a typical 1e-6 LOS gain, range up to
// 6.5e-6), so a 36-TX report costs 76 bytes of payload.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace densevlc::mac {

/// Fixed-point LSB of a quantized channel gain.
inline constexpr double kGainLsb = 1e-10;

/// Largest representable gain (clips above).
inline constexpr double kGainMax = kGainLsb * 65535.0;

/// One receiver's measured downlink gains.
struct ChannelReport {
  std::uint16_t rx_id = 0;
  std::uint8_t epoch = 0;       ///< wraps; lets the controller drop stale
  std::vector<double> gains;    ///< one per TX, linear optical gain

  bool operator==(const ChannelReport&) const = default;
};

/// Quantizes a gain to the wire code (clipping into range).
std::uint16_t quantize_gain(double gain);

/// Expands a wire code back to a gain.
double dequantize_gain(std::uint16_t code);

/// Serializes into a MAC-frame payload: rx_id (2B), epoch (1B),
/// tx_count (1B), then tx_count 16-bit codes.
std::vector<std::uint8_t> encode_report(const ChannelReport& report);

/// Parses a payload produced by encode_report. Returns nullopt on short
/// or inconsistent buffers. Gains round-trip to within kGainLsb / 2.
std::optional<ChannelReport> decode_report(
    std::span<const std::uint8_t> payload);

}  // namespace densevlc::mac
