// Systematic Reed-Solomon codec over GF(2^8).
//
// DenseVLC's frame format (paper Table 3) appends 16 parity bytes per
// ceil(x/200) block of payload, i.e. a shortened RS(216, 200) code per
// block that corrects up to 8 byte errors. This codec implements the
// general RS(n, k) machinery — encoder via LFSR division by the generator
// polynomial, decoder via syndromes, Berlekamp-Massey, Chien search and
// Forney's algorithm — and the frame layer instantiates it with 16 parity
// symbols.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.hpp"
#include "phy/gf256.hpp"

namespace densevlc::phy {

/// Outcome of a successful decode.
struct RsDecodeResult {
  std::vector<std::uint8_t> data;   ///< corrected message (k' bytes)
  std::size_t corrected_errors = 0; ///< number of byte positions fixed
};

/// Fixed-capacity decoder workspace: every buffer the decoder needs, so
/// decode_into never touches the heap. A few KB — keep one per receive
/// chain and reuse it across frames (see common/arena.hpp).
struct RsScratch {
  std::array<std::uint8_t, 254> syndromes{};
  // Berlekamp-Massey polynomials. sigma can transiently grow to
  // prev_sigma.size() + m before trailing zeros are trimmed, so the
  // buffers are sized for the worst-case sum, not just degree 254.
  std::array<std::uint8_t, 512> sigma{};
  std::array<std::uint8_t, 512> prev_sigma{};
  std::array<std::uint8_t, 512> old_sigma{};
  std::array<std::uint8_t, 512> adjust{};
  std::array<std::uint8_t, 254> omega{};
  std::array<std::uint8_t, 256> sigma_deriv{};
  std::array<std::size_t, 128> error_positions{};
  std::array<std::uint8_t, 255> corrected{};
};

/// Reusable workspace for the batch syndrome screen (see
/// common/arena.hpp): column-major codeword staging plus the
/// length-grouped codeword order. The staging buffers are 32-byte
/// aligned for the SIMD loads.
struct RsBatchScratch {
  AlignedVector<std::uint8_t> cols;      ///< input bytes, column-major
  AlignedVector<std::uint8_t> out_cols;  ///< syndromes, column-major
  std::vector<std::uint32_t> order;      ///< codewords grouped by length
};

/// A Reed-Solomon code with a fixed number of parity symbols.
///
/// Message length is flexible per call (shortened code): any k with
/// k + parity <= 255 is accepted.
class ReedSolomon {
 public:
  /// Creates a codec adding `parity_symbols` bytes (must be even and in
  /// [2, 254]; throws std::invalid_argument otherwise). Correction
  /// capacity is parity_symbols / 2 byte errors.
  explicit ReedSolomon(std::size_t parity_symbols);

  /// Number of parity bytes appended per codeword.
  std::size_t parity_symbols() const { return n_parity_; }

  /// Maximum number of correctable byte errors per codeword.
  std::size_t correction_capacity() const { return n_parity_ / 2; }

  /// Writes the parity bytes of `message` (at most 255 -
  /// parity_symbols() bytes) into `parity`, whose size must equal
  /// parity_symbols(): the systematic codeword is message ++ parity. The
  /// LFSR division runs off per-tap GF(256) row tables; no allocation,
  /// no throw (contract-checks the sizes instead). `parity` must not
  /// alias `message`.
  void encode_parity_into(std::span<const std::uint8_t> message,
                          std::span<std::uint8_t> parity) const;

  /// Decodes a codeword (message + parity) into a reused result and a
  /// fixed workspace. Returns false when the codeword is shorter than
  /// parity_symbols() + 1 or longer than 255 bytes, or when more than
  /// correction_capacity() errors corrupted it (decode failure).
  [[nodiscard]] bool decode_into(std::span<const std::uint8_t> codeword,
                                 RsDecodeResult& out,
                                 RsScratch& scratch) const;

  // --- Batch column API (SIMD across codewords; see phy_kernels.hpp) ----

  /// Batch syndrome screen: clean[i] = 1 iff codewords[i] is a valid
  /// codeword with every syndrome zero (the error-free fast path of
  /// decode_into), else 0 — including structurally invalid sizes, which
  /// a subsequent decode_into rejects the same way. Never a false
  /// positive or negative: the syndrome bytes match the scalar Horner
  /// exactly. Zero allocations once `scratch` has warmed up.
  void syndrome_screen_batch(
      std::span<const std::span<const std::uint8_t>> codewords,
      std::span<std::uint8_t> clean, RsBatchScratch& scratch) const;

 private:
  std::size_t n_parity_;
  std::vector<std::uint8_t> generator_;  // descending-degree coefficients
  // Row tables for the two hot inner loops: encode_rows_[i] multiplies by
  // generator_[i + 1] (LFSR tap i), syndrome_rows_[i] multiplies by
  // alpha^i (Horner step of syndrome i).
  std::vector<gf256::MulRow> encode_rows_;
  std::vector<gf256::MulRow> syndrome_rows_;
  // Split-nibble variant of the syndrome constants for the SIMD column
  // kernel (see gf256::NibbleTables).
  std::vector<gf256::NibbleTables> syndrome_ntabs_;
};

}  // namespace densevlc::phy
