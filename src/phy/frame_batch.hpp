// Batch-of-frames codec: encode/decode many frames in one call.
//
// The per-epoch PHY loop handles every active beamspot's frame; doing
// them one at a time leaves the SIMD column kernels (phy_kernels.hpp)
// starved — an RS codeword is only 216 bytes, but 30 codewords side by
// side fill a 32-lane AVX2 vector. This layer stages all frames of a
// batch into struct-of-arrays scratch (`FrameBatch`), routes every RS
// block through the batch column kernels, and falls back to the scalar
// per-codeword paths only for blocks that actually carry errors (the
// syndrome screen separates them exactly).
//
// Contract: per lane, the outputs are bit-identical to FrameCodec
// encode_into/decode_into — same wire bytes, same parse results, same
// accept/reject decisions. Zero heap allocations once the batch scratch
// has warmed up (see common/arena.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.hpp"
#include "phy/frame.hpp"
#include "phy/frame_codec.hpp"
#include "phy/reed_solomon.hpp"

namespace densevlc::phy {

/// Struct-of-arrays scratch for the batch codec paths. One instance per
/// pipeline (transmit or receive side); reused across epochs.
struct FrameBatch {
  /// Extent of one lane (frame) inside `wire`.
  struct Lane {
    std::size_t off = 0;
    std::size_t len = 0;
  };

  std::vector<Lane> lanes;             ///< per-lane extents into `wire`
  AlignedVector<std::uint8_t> wire;    ///< concatenated per-lane wire bytes
  AlignedVector<std::uint8_t> body;    ///< (de)interleave staging
  std::vector<RsParityJob> parity_jobs;          ///< encode-side RS work
  AlignedVector<std::uint8_t> codewords;         ///< decode-side staging
  std::vector<std::span<const std::uint8_t>> block_views;
  std::vector<std::uint8_t> block_clean;         ///< syndrome screen out
  std::vector<std::size_t> lane_first_block;     ///< per-lane block range
  std::vector<std::span<const std::uint8_t>> wire_views;
  std::vector<ParsedFrame*> out_ptrs;
  RsBatchScratch rs;
  FrameScratch frame;                  ///< scalar fallback (dirty blocks)

  /// Wire bytes of lane `i` after encode_frames_batch.
  std::span<const std::uint8_t> lane_wire(std::size_t i) const {
    return {wire.data() + lanes[i].off, lanes[i].len};
  }
};

/// Encodes every frame into `batch.wire` (extents in `batch.lanes`,
/// readable via lane_wire). Per lane bit-identical to
/// codec.encode_into; throws std::invalid_argument on over-long payloads
/// like the scalar path.
void encode_frames_batch(const FrameCodec& codec,
                         std::span<const MacFrame* const> frames,
                         FrameBatch& batch);

/// Parses many paper-format (non-interleaved) wire streams at once:
/// out[i] receives the parse of wires[i], ok[i] = 1 on success. The
/// outcome per lane is bit-identical to parse_frame_into. Returns the
/// number of successfully parsed lanes.
std::size_t parse_frames_batch(
    std::span<const std::span<const std::uint8_t>> wires,
    std::span<ParsedFrame* const> out, std::span<std::uint8_t> ok,
    FrameBatch& batch);

/// Full batch decode with the codec's interleave depth: deinterleaves
/// each lane (when configured) and parses all lanes through the batch RS
/// path. Per lane bit-identical to codec.decode_into. Returns the number
/// of successfully decoded lanes.
std::size_t decode_frames_batch(
    const FrameCodec& codec,
    std::span<const std::span<const std::uint8_t>> wires,
    std::span<ParsedFrame> out, std::span<std::uint8_t> ok,
    FrameBatch& batch);

}  // namespace densevlc::phy
