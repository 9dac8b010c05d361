// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/frame.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/arena.hpp"
#include "common/contracts.hpp"
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

// Header field offsets (Table 3): the SFD byte, then four big-endian
// 16-bit fields.
constexpr std::size_t kLengthAt = 1;
constexpr std::size_t kDstAt = 3;
constexpr std::size_t kSrcAt = 5;
constexpr std::size_t kProtocolAt = 7;
static_assert(kProtocolAt + 2 == kHeaderBytes);

void store_u16(std::uint8_t* at, std::uint16_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 8);
  at[1] = static_cast<std::uint8_t>(v & 0xFF);
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>((in[at] << 8) | in[at + 1]);
}

}  // namespace

std::span<const Chip> pilot_pattern() { return pilot_chips(); }

std::span<const Chip> preamble_pattern() { return preamble_chips(); }

std::size_t serialized_frame_bytes(std::size_t payload_bytes) {
  return kHeaderBytes + payload_bytes +
         rs_block_count(payload_bytes) * kRsBlockParity;
}

std::optional<std::uint16_t> read_frame_length(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes || bytes[0] != kSfd) return std::nullopt;
  const std::uint16_t length = get_u16(bytes, kLengthAt);
  if (length > kMaxPayload) return std::nullopt;
  return length;
}

void serialize_frame_into(const MacFrame& frame,
                          std::vector<std::uint8_t>& out) {
  if (frame.payload.size() > kMaxPayload) {
    throw std::invalid_argument{"serialize_frame: payload exceeds kMaxPayload"};
  }
  arena_resize(out, serialized_frame_bytes(frame.payload.size()));
  out[0] = kSfd;
  store_u16(out.data() + kLengthAt,
            static_cast<std::uint16_t>(frame.payload.size()));
  store_u16(out.data() + kDstAt, frame.dst);
  store_u16(out.data() + kSrcAt, frame.src);
  store_u16(out.data() + kProtocolAt, frame.protocol);
  // Payload followed by per-block RS parity: block i covers payload bytes
  // [i*200, min((i+1)*200, x)). Parity for all blocks trails the payload,
  // matching Table 3's single trailing Reed-Solomon field. Parity is
  // encoded straight into the output tail, one block at a time.
  std::copy(frame.payload.begin(), frame.payload.end(),
            out.begin() + kHeaderBytes);
  const auto& rs = rs_codec();
  std::size_t parity_at = kHeaderBytes + frame.payload.size();
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

std::size_t parse_frames_batch(
    std::span<const std::span<const std::uint8_t>> wires,
    std::span<ParsedFrame* const> out, std::span<std::uint8_t> ok,
    FrameBatch& batch) {
  const std::size_t n = wires.size();
  DVLC_EXPECT(out.size() == n && ok.size() == n,
              "parse_frames_batch: span sizes must match");

  // Pass 1 — header check and block accounting. ok[i] tentatively
  // records "header valid"; a lane failing here is cleared and rejected.
  arena_resize(batch.lane_first_block, n + 1);
  std::size_t total_blocks = 0;
  std::size_t total_cw_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    batch.lane_first_block[i] = total_blocks;
    ParsedFrame& pf = *out[i];
    pf.corrected_bytes = 0;
    arena_clear(pf.frame.payload);
    ok[i] = 0;
    const std::span<const std::uint8_t> bytes = wires[i];
    const std::optional<std::uint16_t> length = read_frame_length(bytes);
    if (!length || bytes.size() < serialized_frame_bytes(*length)) continue;
    ok[i] = 1;
    pf.frame.dst = get_u16(bytes, kDstAt);
    pf.frame.src = get_u16(bytes, kSrcAt);
    pf.frame.protocol = get_u16(bytes, kProtocolAt);
    const std::size_t blocks = rs_block_count(*length);
    total_blocks += blocks;
    total_cw_bytes += *length + blocks * kRsBlockParity;
  }
  batch.lane_first_block[n] = total_blocks;

  // Pass 2 — stage every RS block codeword (data ++ parity) contiguously
  // so the syndrome screen sees one flat span per block.
  arena_resize(batch.codewords, total_cw_bytes);
  arena_resize(batch.block_views, total_blocks);
  arena_resize(batch.block_clean, total_blocks);
  std::size_t cw_at = 0;
  std::size_t block = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ok[i] == 0) continue;
    const std::span<const std::uint8_t> bytes = wires[i];
    const std::size_t length = get_u16(bytes, kLengthAt);
    const std::size_t blocks = rs_block_count(length);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t off = b * kRsBlockData;
      const std::size_t len = std::min(kRsBlockData, length - off);
      std::uint8_t* cw = batch.codewords.data() + cw_at;
      std::copy_n(bytes.data() + kHeaderBytes + off, len, cw);
      std::copy_n(bytes.data() + kHeaderBytes + length + b * kRsBlockParity,
                  kRsBlockParity, cw + len);
      batch.block_views[block++] =
          std::span<const std::uint8_t>{cw, len + kRsBlockParity};
      cw_at += len + kRsBlockParity;
    }
  }
  DVLC_ASSERT(block == total_blocks && cw_at == total_cw_bytes,
              "parse batch block accounting drifted");
  const ReedSolomon& rs = rs_codec();
  rs.syndrome_screen_batch(batch.block_views, batch.block_clean, batch.rs);

  // Pass 3 — assemble lanes in order. Clean blocks copy their data bytes
  // directly (what decode_into's all-zero-syndromes fast path does);
  // dirty blocks run the full scalar decoder.
  std::size_t decoded = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ok[i] == 0) continue;
    ParsedFrame& pf = *out[i];
    bool good = true;
    for (std::size_t b = batch.lane_first_block[i];
         good && b < batch.lane_first_block[i + 1]; ++b) {
      const std::span<const std::uint8_t> cw = batch.block_views[b];
      const std::size_t len = cw.size() - kRsBlockParity;
      if (batch.block_clean[b] != 0) {
        pf.frame.payload.insert(pf.frame.payload.end(), cw.begin(),
                                cw.begin() + static_cast<std::ptrdiff_t>(len));
      } else if (rs.decode_into(cw, batch.block, batch.rs_decode)) {
        pf.corrected_bytes += batch.block.corrected_errors;
        pf.frame.payload.insert(pf.frame.payload.end(),
                                batch.block.data.begin(),
                                batch.block.data.end());
      } else {
        good = false;
      }
    }
    ok[i] = good ? 1 : 0;
    decoded += good ? 1 : 0;
  }
  return decoded;
}

std::optional<ParsedFrame> parse_frame(std::span<const std::uint8_t> bytes) {
  FrameBatch batch;
  ParsedFrame out;
  ParsedFrame* const outs[] = {&out};
  std::uint8_t ok[1] = {0};
  parse_frames_batch({&bytes, 1}, outs, ok, batch);
  if (ok[0] == 0) return std::nullopt;
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
  out.reserve(kControllerPrefixBytes + body.size());
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
  if (bytes.size() < kControllerPrefixBytes + kHeaderBytes) {
    return std::nullopt;
  }
  ControllerFrame cf;
  for (std::size_t i = 0; i < 8; ++i) {
    cf.tx_mask = (cf.tx_mask << 8) | bytes[i];
  }
  cf.leading_tx = bytes[8];
  const auto parsed = parse_frame(bytes.subspan(kControllerPrefixBytes));
  if (!parsed) return std::nullopt;
  cf.frame = parsed->frame;
  return cf;
}

}  // namespace densevlc::phy
