// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/frame_codec.hpp"

#include <algorithm>

#include "common/arena.hpp"
#include "phy/interleaver.hpp"

namespace densevlc::phy {

void FrameCodec::encode_into(const MacFrame& frame,
                             std::vector<std::uint8_t>& out,
                             Scratch& scratch) const {
  if (depth_ <= 1) {
    serialize_frame_into(frame, out);
    return;
  }
  // Serialize into staging, then copy the clear header and interleave
  // the body into place.
  serialize_frame_into(frame, scratch.wire);
  arena_resize(out, scratch.wire.size());
  std::copy_n(scratch.wire.begin(), kHeaderBytes, out.begin());
  interleave_into(std::span<const std::uint8_t>{scratch.wire}.subspan(
                      kHeaderBytes),
                  depth_, std::span<std::uint8_t>{out}.subspan(kHeaderBytes));
}

std::vector<std::uint8_t> FrameCodec::encode(const MacFrame& frame) const {
  Scratch scratch;
  std::vector<std::uint8_t> out;
  encode_into(frame, out, scratch);
  return out;
}

bool FrameCodec::decode_into(std::span<const std::uint8_t> bytes,
                             ParsedFrame& out, Scratch& scratch) const {
  std::span<const std::uint8_t> wire = bytes;
  if (depth_ > 1 && bytes.size() > kHeaderBytes) {
    arena_resize(scratch.wire, bytes.size());
    std::copy_n(bytes.begin(), kHeaderBytes, scratch.wire.begin());
    deinterleave_into(
        bytes.subspan(kHeaderBytes), depth_,
        std::span<std::uint8_t>{scratch.wire}.subspan(kHeaderBytes));
    wire = scratch.wire;
  }
  ParsedFrame* const outs[] = {&out};
  std::uint8_t ok[1] = {0};
  parse_frames_batch({&wire, 1}, outs, ok, scratch.batch);
  return ok[0] != 0;
}

std::optional<ParsedFrame> FrameCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  Scratch scratch;
  ParsedFrame out;
  if (!decode_into(bytes, out, scratch)) return std::nullopt;
  return out;
}

std::size_t FrameCodec::matched_depth(std::size_t payload_bytes) {
  const std::size_t blocks = rs_block_count(payload_bytes);
  return blocks <= 1 ? 1 : blocks;
}

}  // namespace densevlc::phy
