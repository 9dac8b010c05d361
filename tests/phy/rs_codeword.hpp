// Test helper: the systematic Reed-Solomon codeword of a message
// (message ++ parity), built with ReedSolomon::encode_parity_into.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "phy/reed_solomon.hpp"

namespace densevlc::phy {

inline std::vector<std::uint8_t> rs_codeword(
    const ReedSolomon& rs, std::span<const std::uint8_t> message) {
  std::vector<std::uint8_t> cw(message.size() + rs.parity_symbols());
  std::copy(message.begin(), message.end(), cw.begin());
  rs.encode_parity_into(message,
                        std::span<std::uint8_t>{cw}.subspan(message.size()));
  return cw;
}

}  // namespace densevlc::phy
