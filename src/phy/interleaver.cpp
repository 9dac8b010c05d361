// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/interleaver.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace densevlc::phy {

void interleave_into(std::span<const std::uint8_t> data, std::size_t depth,
                     std::span<std::uint8_t> out) {
  DVLC_EXPECT(out.size() == data.size(),
              "interleave_into: output size mismatch");
  if (depth <= 1 || data.size() <= depth) {
    std::copy(data.begin(), data.end(), out.begin());
    return;
  }
  // Row-wise write, column-wise read over a depth x cols matrix, skipping
  // pad cells of the final partial row; the walk below enumerates the
  // permutation without materializing it.
  const std::size_t cols = (data.size() + depth - 1) / depth;
  std::size_t w = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < depth; ++r) {
      const std::size_t idx = r * cols + c;
      if (idx < data.size()) out[w++] = data[idx];
    }
  }
}

void deinterleave_into(std::span<const std::uint8_t> data, std::size_t depth,
                       std::span<std::uint8_t> out) {
  DVLC_EXPECT(out.size() == data.size(),
              "deinterleave_into: output size mismatch");
  if (depth <= 1 || data.size() <= depth) {
    std::copy(data.begin(), data.end(), out.begin());
    return;
  }
  const std::size_t cols = (data.size() + depth - 1) / depth;
  std::size_t w = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < depth; ++r) {
      const std::size_t idx = r * cols + c;
      if (idx < data.size()) out[idx] = data[w++];
    }
  }
}

std::size_t burst_tolerance(std::size_t depth, std::size_t rs_capacity) {
  if (depth <= 1) return rs_capacity;
  // A burst of length L covers at most ceil(L / depth) consecutive
  // positions of any one row; rows map into RS blocks contiguously, so
  // tolerance = depth * capacity.
  return depth * rs_capacity;
}

}  // namespace densevlc::phy
