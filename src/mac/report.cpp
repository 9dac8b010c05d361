#include "mac/report.hpp"

#include <algorithm>
#include <cmath>

namespace densevlc::mac {

std::uint16_t quantize_gain(double gain) {
  if (gain <= 0.0) return 0;
  const double code = std::round(gain / kGainLsb);
  return static_cast<std::uint16_t>(std::min(code, 65535.0));
}

double dequantize_gain(std::uint16_t code) {
  return static_cast<double>(code) * kGainLsb;
}

std::vector<std::uint8_t> encode_report(const ChannelReport& report) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + report.gains.size() * 2);
  out.push_back(static_cast<std::uint8_t>(report.rx_id >> 8));
  out.push_back(static_cast<std::uint8_t>(report.rx_id & 0xFF));
  out.push_back(report.epoch);
  out.push_back(static_cast<std::uint8_t>(report.gains.size()));
  for (double g : report.gains) {
    const std::uint16_t code = quantize_gain(g);
    out.push_back(static_cast<std::uint8_t>(code >> 8));
    out.push_back(static_cast<std::uint8_t>(code & 0xFF));
  }
  return out;
}

std::optional<ChannelReport> decode_report(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 4) return std::nullopt;
  ChannelReport report;
  report.rx_id = static_cast<std::uint16_t>((payload[0] << 8) | payload[1]);
  report.epoch = payload[2];
  const std::size_t count = payload[3];
  if (payload.size() < 4 + count * 2) return std::nullopt;
  report.gains.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto code = static_cast<std::uint16_t>(
        (payload[4 + 2 * i] << 8) | payload[5 + 2 * i]);
    report.gains.push_back(dequantize_gain(code));
  }
  return report;
}

}  // namespace densevlc::mac
