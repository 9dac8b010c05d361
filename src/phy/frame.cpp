// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/frame.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/arena.hpp"
#include "phy/reed_solomon.hpp"

namespace densevlc::phy {
namespace {

// 13-chip Barker code (+1 -> HIGH) repeated/padded to 32 chips, then the
// tail inverted so the pattern is not periodic — sharp autocorrelation.
constexpr std::array<std::uint8_t, 32> kPilotBits = {
    1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1,   // Barker-13
    0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0,   // inverted Barker-13
    1, 1, 0, 0, 1, 0};
// A different fixed word for the data preamble so pilot detectors do not
// fire on data frames and vice versa.
constexpr std::array<std::uint8_t, 32> kPreambleBits = {
    1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0,
    1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0};

std::array<Chip, 32> to_chips(const std::array<std::uint8_t, 32>& bits) {
  std::array<Chip, 32> chips{};
  for (std::size_t i = 0; i < bits.size(); ++i) {
    chips[i] = bits[i] ? Chip::kHigh : Chip::kLow;
  }
  return chips;
}

const std::array<Chip, 32>& pilot_chips() {
  static const std::array<Chip, 32> chips = to_chips(kPilotBits);
  return chips;
}

const std::array<Chip, 32>& preamble_chips() {
  static const std::array<Chip, 32> chips = to_chips(kPreambleBits);
  return chips;
}

const ReedSolomon& rs_codec() {
  static const ReedSolomon rs{kRsBlockParity};
  return rs;
}

void store_u16(std::uint8_t* at, std::uint16_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 8);
  at[1] = static_cast<std::uint8_t>(v & 0xFF);
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>((in[at] << 8) | in[at + 1]);
}

}  // namespace

const ReedSolomon& frame_rs_codec() { return rs_codec(); }

std::span<const Chip> pilot_pattern() { return pilot_chips(); }

std::span<const Chip> preamble_pattern() { return preamble_chips(); }

std::size_t serialized_frame_bytes(std::size_t payload_bytes) {
  const std::size_t blocks =
      (payload_bytes + kRsBlockData - 1) / kRsBlockData;
  return 9 + payload_bytes + blocks * kRsBlockParity;
}

void serialize_frame_into(const MacFrame& frame,
                          std::vector<std::uint8_t>& out) {
  if (frame.payload.size() > kMaxPayload) {
    throw std::invalid_argument{"serialize_frame: payload exceeds kMaxPayload"};
  }
  arena_resize(out, serialized_frame_bytes(frame.payload.size()));
  out[0] = kSfd;
  store_u16(out.data() + 1, static_cast<std::uint16_t>(frame.payload.size()));
  store_u16(out.data() + 3, frame.dst);
  store_u16(out.data() + 5, frame.src);
  store_u16(out.data() + 7, frame.protocol);
  // Payload followed by per-block RS parity: block i covers payload bytes
  // [i*200, min((i+1)*200, x)). Parity for all blocks trails the payload,
  // matching Table 3's single trailing Reed-Solomon field. Parity is
  // encoded straight into the output tail, one block at a time.
  std::copy(frame.payload.begin(), frame.payload.end(), out.begin() + 9);
  const auto& rs = rs_codec();
  std::size_t parity_at = 9 + frame.payload.size();
  for (std::size_t off = 0; off < frame.payload.size(); off += kRsBlockData) {
    const std::size_t len =
        std::min(kRsBlockData, frame.payload.size() - off);
    rs.encode_parity_into(
        std::span<const std::uint8_t>{frame.payload}.subspan(off, len),
        std::span<std::uint8_t>{out}.subspan(parity_at, kRsBlockParity));
    parity_at += kRsBlockParity;
  }
}

std::vector<std::uint8_t> serialize_frame(const MacFrame& frame) {
  std::vector<std::uint8_t> out;
  serialize_frame_into(frame, out);
  return out;
}

bool parse_frame_into(std::span<const std::uint8_t> bytes, ParsedFrame& out,
                      FrameScratch& scratch) {
  out.corrected_bytes = 0;
  arena_clear(out.frame.payload);
  if (bytes.size() < 9) return false;
  if (bytes[0] != kSfd) return false;
  const std::uint16_t length = get_u16(bytes, 1);
  if (length > kMaxPayload) return false;
  const std::size_t blocks = (length + kRsBlockData - 1) / kRsBlockData;
  const std::size_t expected = 9 + length + blocks * kRsBlockParity;
  if (bytes.size() < expected) return false;

  out.frame.dst = get_u16(bytes, 3);
  out.frame.src = get_u16(bytes, 5);
  out.frame.protocol = get_u16(bytes, 7);

  const auto& rs = rs_codec();
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t off = b * kRsBlockData;
    const std::size_t len = std::min(kRsBlockData,
                                     static_cast<std::size_t>(length) - off);
    arena_resize(scratch.codeword, len + kRsBlockParity);
    std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(9 + off), len,
                scratch.codeword.begin());
    const std::size_t parity_at = 9 + length + b * kRsBlockParity;
    std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(parity_at),
                kRsBlockParity,
                scratch.codeword.begin() + static_cast<std::ptrdiff_t>(len));
    if (!rs.decode_into(scratch.codeword, scratch.block, scratch.rs)) {
      return false;
    }
    out.corrected_bytes += scratch.block.corrected_errors;
    out.frame.payload.insert(out.frame.payload.end(),
                             scratch.block.data.begin(),
                             scratch.block.data.end());
  }
  return true;
}

std::optional<ParsedFrame> parse_frame(std::span<const std::uint8_t> bytes) {
  FrameScratch scratch;
  ParsedFrame out;
  if (!parse_frame_into(bytes, out, scratch)) return std::nullopt;
  return out;
}

std::vector<Chip> frame_to_chips(const MacFrame& frame) {
  std::vector<std::uint8_t> wire;
  serialize_frame_into(frame, wire);
  std::vector<Chip> out(kPreambleChips + wire.size() * 16);
  const auto pre = preamble_pattern();
  std::copy(pre.begin(), pre.end(), out.begin());
  manchester_encode_bytes(wire, std::span<Chip>{out}.subspan(kPreambleChips));
  return out;
}

std::vector<std::uint8_t> serialize_controller_frame(
    const ControllerFrame& cf) {
  std::vector<std::uint8_t> out;
  const auto body = serialize_frame(cf.frame);
  out.reserve(9 + body.size());
  for (int i = 7; i >= 0; --i) {
    // DVLC_LINT_WAIVE(hot-loop-alloc): control plane, reserved above
    out.push_back(static_cast<std::uint8_t>((cf.tx_mask >> (8 * i)) & 0xFF));
  }
  // DVLC_LINT_WAIVE(hot-loop-alloc): control plane, reserved above
  out.push_back(cf.leading_tx);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<ControllerFrame> parse_controller_frame(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 9 + 9) return std::nullopt;
  ControllerFrame cf;
  for (std::size_t i = 0; i < 8; ++i) {
    cf.tx_mask = (cf.tx_mask << 8) | bytes[i];
  }
  cf.leading_tx = bytes[8];
  const auto parsed = parse_frame(bytes.subspan(9));
  if (!parsed) return std::nullopt;
  cf.frame = parsed->frame;
  return cf;
}

}  // namespace densevlc::phy
