// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/frame_batch.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"
#include "phy/interleaver.hpp"

namespace densevlc::phy {
namespace {

constexpr std::size_t kHeaderBytes = 9;

void store_u16(std::uint8_t* at, std::uint16_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 8);
  at[1] = static_cast<std::uint8_t>(v & 0xFF);
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>((in[at] << 8) | in[at + 1]);
}

std::size_t blocks_for(std::size_t payload_bytes) {
  return (payload_bytes + kRsBlockData - 1) / kRsBlockData;
}

// Paper-format serialization of every frame into `batch.wire` (extents in
// `batch.lanes`): per lane bit-identical to serialize_frame_into, with
// all RS parity routed through the batch column kernels.
void serialize_frames_batch(std::span<const MacFrame* const> frames,
                            FrameBatch& batch) {
  const std::size_t n = frames.size();
  arena_resize(batch.lanes, n);
  std::size_t total = 0;
  std::size_t total_blocks = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t payload = frames[i]->payload.size();
    if (payload > kMaxPayload) {
      throw std::invalid_argument{
          "encode_frames_batch: payload exceeds kMaxPayload"};
    }
    batch.lanes[i] = {total, serialized_frame_bytes(payload)};
    total += batch.lanes[i].len;
    total_blocks += blocks_for(payload);
  }
  arena_resize(batch.wire, total);
  arena_resize(batch.parity_jobs, total_blocks);

  // Header + payload per lane, with one RS parity job per block writing
  // straight into the wire tail (same layout as serialize_frame_into).
  std::size_t job = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const MacFrame& frame = *frames[i];
    const std::size_t payload = frame.payload.size();
    std::uint8_t* out = batch.wire.data() + batch.lanes[i].off;
    out[0] = kSfd;
    store_u16(out + 1, static_cast<std::uint16_t>(payload));
    store_u16(out + 3, frame.dst);
    store_u16(out + 5, frame.src);
    store_u16(out + 7, frame.protocol);
    std::copy(frame.payload.begin(), frame.payload.end(),
              out + kHeaderBytes);
    std::size_t parity_at = kHeaderBytes + payload;
    for (std::size_t off = 0; off < payload; off += kRsBlockData) {
      const std::size_t len = std::min(kRsBlockData, payload - off);
      batch.parity_jobs[job++] = RsParityJob{
          std::span<const std::uint8_t>{out + kHeaderBytes + off, len},
          std::span<std::uint8_t>{out + parity_at, kRsBlockParity}};
      parity_at += kRsBlockParity;
    }
  }
  DVLC_ASSERT(job == total_blocks, "encode batch block accounting drifted");
  frame_rs_codec().encode_parity_batch(batch.parity_jobs, batch.rs);
}

}  // namespace

void encode_frames_batch(const FrameCodec& codec,
                         std::span<const MacFrame* const> frames,
                         FrameBatch& batch) {
  serialize_frames_batch(frames, batch);
  const std::size_t n = frames.size();
  const std::size_t depth = codec.interleave_depth();
  if (depth <= 1) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (batch.lanes[i].len <= kHeaderBytes) continue;
    std::uint8_t* out = batch.wire.data() + batch.lanes[i].off;
    const std::size_t body_len = batch.lanes[i].len - kHeaderBytes;
    arena_resize(batch.body, body_len);
    std::copy_n(out + kHeaderBytes, body_len, batch.body.begin());
    interleave_into(std::span<const std::uint8_t>{batch.body.data(), body_len},
                    depth,
                    std::span<std::uint8_t>{out + kHeaderBytes, body_len});
  }
}

std::size_t parse_frames_batch(
    std::span<const std::span<const std::uint8_t>> wires,
    std::span<ParsedFrame* const> out, std::span<std::uint8_t> ok,
    FrameBatch& batch) {
  const std::size_t n = wires.size();
  DVLC_EXPECT(out.size() == n && ok.size() == n,
              "parse_frames_batch: span sizes must match");

  // Pass 1 — header validation and block accounting. ok[i] tentatively
  // records "header valid"; lanes failing here mirror parse_frame_into's
  // early returns (result cleared, false).
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
    if (bytes.size() < kHeaderBytes) continue;
    if (bytes[0] != kSfd) continue;
    const std::uint16_t length = get_u16(bytes, 1);
    if (length > kMaxPayload) continue;
    const std::size_t blocks = blocks_for(length);
    const std::size_t expected =
        kHeaderBytes + length + blocks * kRsBlockParity;
    if (bytes.size() < expected) continue;
    ok[i] = 1;
    pf.frame.dst = get_u16(bytes, 3);
    pf.frame.src = get_u16(bytes, 5);
    pf.frame.protocol = get_u16(bytes, 7);
    total_blocks += blocks;
    total_cw_bytes += length + blocks * kRsBlockParity;
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
    const std::size_t length = get_u16(bytes, 1);
    const std::size_t blocks = blocks_for(length);
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
  const ReedSolomon& rs = frame_rs_codec();
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
      } else if (rs.decode_into(cw, batch.frame.block, batch.frame.rs)) {
        pf.corrected_bytes += batch.frame.block.corrected_errors;
        pf.frame.payload.insert(pf.frame.payload.end(),
                                batch.frame.block.data.begin(),
                                batch.frame.block.data.end());
      } else {
        good = false;
      }
    }
    ok[i] = good ? 1 : 0;
    decoded += good ? 1 : 0;
  }
  return decoded;
}

std::size_t decode_frames_batch(
    const FrameCodec& codec,
    std::span<const std::span<const std::uint8_t>> wires,
    std::span<ParsedFrame> out, std::span<std::uint8_t> ok,
    FrameBatch& batch) {
  const std::size_t n = wires.size();
  DVLC_EXPECT(out.size() == n && ok.size() == n,
              "decode_frames_batch: span sizes must match");
  // Stage each lane's bytes (deinterleaved when the codec is configured
  // so), then hand contiguous views to the shared parse path.
  const std::size_t depth = codec.interleave_depth();
  arena_resize(batch.lanes, n);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    batch.lanes[i] = {total, wires[i].size()};
    total += wires[i].size();
  }
  arena_resize(batch.wire, total);
  arena_resize(batch.wire_views, n);
  arena_resize(batch.out_ptrs, n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t* lane = batch.wire.data() + batch.lanes[i].off;
    std::copy(wires[i].begin(), wires[i].end(), lane);
    if (depth > 1 && wires[i].size() > kHeaderBytes) {
      const std::size_t body_len = wires[i].size() - kHeaderBytes;
      arena_resize(batch.body, body_len);
      std::copy_n(lane + kHeaderBytes, body_len, batch.body.begin());
      deinterleave_into(
          std::span<const std::uint8_t>{batch.body.data(), body_len}, depth,
          std::span<std::uint8_t>{lane + kHeaderBytes, body_len});
    }
    batch.wire_views[i] =
        std::span<const std::uint8_t>{lane, batch.lanes[i].len};
    batch.out_ptrs[i] = &out[i];
  }
  return parse_frames_batch(batch.wire_views, batch.out_ptrs, ok, batch);
}

}  // namespace densevlc::phy
