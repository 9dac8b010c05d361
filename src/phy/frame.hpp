// DenseVLC frame format (paper Table 3).
//
// On-air layout produced by a transmitter:
//
//   [pilot: 32 chips] [TX id: 1 byte]          -- only from the leading TX,
//                                                  consumed by peer TXs for
//                                                  NLOS synchronization
//   [preamble: 32 chips] [SFD: 1 B] [Length: 2 B] [Dst: 2 B] [Src: 2 B]
//   [Protocol: 2 B] [Payload: x B] [Reed-Solomon: ceil(x/200) * 16 B]
//
// Pilot and preamble are fixed chip patterns (not Manchester-coded data);
// everything from SFD onward is Manchester-coded bytes. The Ethernet
// encapsulation from controller to TXs prepends an 8-byte TX-ID mask
// selecting which transmitters must radiate the frame (Sec. 7.2).
//
// This header and frame.cpp are the only code that knows the layout: one
// writer (serialize_frame_into), one reader (parse_frames_batch, of
// which a single parse is a batch of one) and one header check
// (read_frame_length, shared with the receiver's header peek).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/arena.hpp"
#include "phy/manchester.hpp"
#include "phy/reed_solomon.hpp"

namespace densevlc::phy {

/// Start-of-frame delimiter byte following the preamble.
inline constexpr std::uint8_t kSfd = 0xA7;

/// Number of chips in the synchronization pilot and in the preamble.
inline constexpr std::size_t kPilotChips = 32;
inline constexpr std::size_t kPreambleChips = 32;

/// Payload bytes covered by each 16-parity-byte Reed-Solomon block.
inline constexpr std::size_t kRsBlockData = 200;
inline constexpr std::size_t kRsBlockParity = 16;

/// Maximum payload accepted by the serializer (fits common MTUs).
inline constexpr std::size_t kMaxPayload = 1500;

/// Header bytes ahead of the payload: SFD (1) + length, dst, src and
/// protocol (2 each, big-endian).
inline constexpr std::size_t kHeaderBytes = 9;

/// Bytes the controller -> TX encapsulation puts ahead of the frame: the
/// 8-byte TX mask and the leading TX id.
inline constexpr std::size_t kControllerPrefixBytes = 9;

/// Protocol field values used by the MAC.
enum class Protocol : std::uint16_t {
  kData = 0x0001,           ///< application payload downlink
  kChannelProbe = 0x0002,   ///< controller pilot for channel measurement
  kChannelReport = 0x0003,  ///< RX -> controller link-quality report
  kAck = 0x0004,            ///< RX -> controller MAC acknowledgement
};

/// The MAC frame carried between SFD and RS parity.
struct MacFrame {
  std::uint16_t dst = 0;
  std::uint16_t src = 0;
  std::uint16_t protocol = static_cast<std::uint16_t>(Protocol::kData);
  std::vector<std::uint8_t> payload;

  bool operator==(const MacFrame&) const = default;
};

/// The fixed pilot chip pattern (a 13-chip Barker code extended to 32
/// chips), chosen for a sharp correlation peak under the oversampled NLOS
/// detection of Sec. 6.2.
std::span<const Chip> pilot_pattern();

/// The fixed preamble chip pattern used for frame alignment at data RXs.
std::span<const Chip> preamble_pattern();

/// Number of Reed-Solomon blocks covering a payload: ceil(x / 200).
inline constexpr std::size_t rs_block_count(std::size_t payload_bytes) {
  return (payload_bytes + kRsBlockData - 1) / kRsBlockData;
}

/// Serialized byte count for a given payload size: header + payload +
/// RS parity.
std::size_t serialized_frame_bytes(std::size_t payload_bytes);

/// The one header check: the payload length declared by `bytes`, or
/// nullopt when they hold fewer than kHeaderBytes, do not start with
/// kSfd, or declare more than kMaxPayload bytes. Only the header is
/// read; the caller checks the frame's full extent against
/// serialized_frame_bytes.
[[nodiscard]] std::optional<std::uint16_t> read_frame_length(
    std::span<const std::uint8_t> bytes);

/// Serializes SFD..parity into a reused buffer. RS parity is computed
/// straight into the output tail. Throws std::invalid_argument when the
/// payload exceeds kMaxPayload.
void serialize_frame_into(const MacFrame& frame,
                          std::vector<std::uint8_t>& out);

/// serialize_frame_into into a fresh buffer.
std::vector<std::uint8_t> serialize_frame(const MacFrame& frame);

/// Result of parsing a received byte stream back into a frame.
struct ParsedFrame {
  MacFrame frame;
  std::size_t corrected_bytes = 0;  ///< RS corrections applied
};

/// Reusable struct-of-arrays workspace for parse_frames_batch: every RS
/// block of every lane staged contiguously for the batch syndrome
/// screen, plus the scalar decoder's buffers for blocks that carry
/// errors. One per receive chain, reused across epochs.
struct FrameBatch {
  std::vector<std::size_t> lane_first_block;  ///< per-lane block range
  AlignedVector<std::uint8_t> codewords;      ///< staged data ++ parity
  std::vector<std::span<const std::uint8_t>> block_views;
  std::vector<std::uint8_t> block_clean;      ///< syndrome screen out
  RsBatchScratch rs;
  RsDecodeResult block;                       ///< dirty-block decode
  RsScratch rs_decode;
};

/// The parser: out[i] receives the parse of wires[i] (paper format, not
/// interleaved), ok[i] = 1 on success. A lane fails when its header is
/// rejected by read_frame_length, its bytes are shorter than the frame
/// they declare, or any RS block fails to decode; out[i] of a failed
/// lane must not be read. Every RS block of every lane goes through one
/// batch syndrome screen, and only blocks that carry errors run the
/// scalar decoder. A single frame is a batch of one. Returns the number
/// of parsed lanes; zero heap allocations once `batch` is warm.
std::size_t parse_frames_batch(
    std::span<const std::span<const std::uint8_t>> wires,
    std::span<ParsedFrame* const> out, std::span<std::uint8_t> ok,
    FrameBatch& batch);

/// A one-lane parse_frames_batch into a fresh result; nullopt when the
/// lane fails.
[[nodiscard]] std::optional<ParsedFrame> parse_frame(
    std::span<const std::uint8_t> bytes);

/// Full on-air chip sequence for a frame: preamble chips followed by the
/// Manchester coding of the serialized bytes. (The pilot is prepended
/// separately by the leading TX only.)
std::vector<Chip> frame_to_chips(const MacFrame& frame);

/// Controller -> TX Ethernet encapsulation (Sec. 7.2): 64-bit mask of TX
/// ids that must transmit, the appointed leading TX, and the MAC frame.
struct ControllerFrame {
  std::uint64_t tx_mask = 0;      ///< bit i set => TX i transmits
  std::uint8_t leading_tx = 0;    ///< TX appointed to emit the pilot
  MacFrame frame;

  bool operator==(const ControllerFrame&) const = default;

  /// True if TX `id` (0-based) is selected.
  bool selects(std::size_t id) const {
    return id < 64 && ((tx_mask >> id) & 1) != 0;
  }
};

/// Serializes / parses the Ethernet payload (mask + leading + frame bytes).
std::vector<std::uint8_t> serialize_controller_frame(const ControllerFrame& cf);
[[nodiscard]] std::optional<ControllerFrame> parse_controller_frame(
    std::span<const std::uint8_t> bytes);

}  // namespace densevlc::phy
