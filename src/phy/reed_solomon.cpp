// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/reed_solomon.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "phy/gf256.hpp"
#include "phy/phy_kernels.hpp"

namespace densevlc::phy {

namespace gf = gf256;

namespace {

// Column staging width granularity: a multiple of every backend's byte
// lane count (scalar/NEON 16, AVX2 32), so one padded width fits all.
constexpr std::size_t kBatchWidthAlign = 32;
// Below this many equal-length lanes the transpose overhead outweighs the
// column kernel; fall back to the scalar per-codeword paths.
constexpr std::size_t kMinBatchWidth = 4;

constexpr std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

// Length-grouped stable order of `n` items via counting sort over the
// 0..255 byte-length domain. `starts[len]` is the first slot of length
// `len`'s group in `order`; items where `include` is false are skipped
// (their count is zero). No allocations beyond the arena order buffer.
template <class LenFn, class IncludeFn>
void group_by_length(std::size_t n, LenFn len, IncludeFn include,
                     std::vector<std::uint32_t>& order,
                     std::array<std::uint32_t, 257>& starts) {
  std::array<std::uint32_t, 256> count{};
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!include(i)) continue;
    ++count[len(i)];
    ++kept;
  }
  starts[0] = 0;
  for (std::size_t l = 0; l < 256; ++l) {
    starts[l + 1] = starts[l] + count[l];
  }
  densevlc::arena_resize(order, kept);
  std::array<std::uint32_t, 256> cursor{};
  for (std::size_t l = 0; l < 256; ++l) cursor[l] = starts[l];
  for (std::size_t i = 0; i < n; ++i) {
    if (!include(i)) continue;
    order[cursor[len(i)]++] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace

ReedSolomon::ReedSolomon(std::size_t parity_symbols)
    : n_parity_{parity_symbols} {
  if (parity_symbols < 2 || parity_symbols > 254 || parity_symbols % 2 != 0) {
    throw std::invalid_argument{
        "ReedSolomon: parity_symbols must be even and in [2, 254]"};
  }
  // Generator polynomial g(x) = prod_{i=0}^{2t-1} (x - alpha^i),
  // descending-degree coefficients.
  generator_ = {1};
  for (std::size_t i = 0; i < n_parity_; ++i) {
    const std::uint8_t root = gf::pow_alpha(static_cast<int>(i));
    const std::uint8_t factor[2] = {1, root};  // (x + alpha^i); char 2: -=+
    generator_ = gf::poly_mul(generator_, factor);
  }
  DVLC_ASSERT(generator_.size() == n_parity_ + 1 && generator_.front() == 1,
              "RS generator polynomial must be monic of degree 2t");
  encode_rows_.reserve(n_parity_);
  syndrome_rows_.reserve(n_parity_);
  syndrome_ntabs_.reserve(n_parity_);
  for (std::size_t i = 0; i < n_parity_; ++i) {
    // DVLC_LINT_WAIVE(hot-loop-alloc): one-time construction, reserved above
    encode_rows_.push_back(gf::mul_row(generator_[i + 1]));
    // DVLC_LINT_WAIVE(hot-loop-alloc): one-time construction, reserved above
    syndrome_rows_.push_back(gf::mul_row(gf::pow_alpha(static_cast<int>(i))));
    // DVLC_LINT_WAIVE(hot-loop-alloc): one-time construction, reserved above
    syndrome_ntabs_.push_back(
        gf::nibble_tables(gf::pow_alpha(static_cast<int>(i))));
  }
}

void ReedSolomon::encode_parity_into(std::span<const std::uint8_t> message,
                                     std::span<std::uint8_t> parity) const {
  DVLC_EXPECT(parity.size() == n_parity_,
              "encode_parity_into: parity span size mismatch");
  DVLC_EXPECT(message.size() + n_parity_ <= 255,
              "encode_parity_into: message too long for GF(256)");
  // Systematic encoding: remainder of message * x^{2t} divided by g(x).
  // Fused shift + tap update: rem[i] = rem_old[i+1] ^ fb * g[i+1], with
  // the multiply served by the per-tap row table (row[0] == 0 covers the
  // fb == 0 case the scalar loop branched on).
  std::fill(parity.begin(), parity.end(), 0);
  for (std::uint8_t byte : message) {
    const std::uint8_t feedback = gf::add(byte, parity[0]);
    for (std::size_t i = 0; i + 1 < n_parity_; ++i) {
      parity[i] = gf::add(parity[i + 1], encode_rows_[i][feedback]);
    }
    parity[n_parity_ - 1] = encode_rows_[n_parity_ - 1][feedback];
  }
}

bool ReedSolomon::decode_into(std::span<const std::uint8_t> codeword,
                              RsDecodeResult& out, RsScratch& scr) const {
  arena_clear(out.data);
  out.corrected_errors = 0;
  if (codeword.size() <= n_parity_ || codeword.size() > 255) return false;
  const std::size_t n = codeword.size();
  const std::size_t k = n - n_parity_;

  // Syndromes S_i = c(alpha^i), i = 0 .. 2t-1. Horner with the per-point
  // row table: acc = alpha^i * acc + byte is one load and one XOR.
  bool all_zero = true;
  for (std::size_t i = 0; i < n_parity_; ++i) {
    const gf::MulRow& row = syndrome_rows_[i];
    std::uint8_t acc = 0;
    for (std::uint8_t c : codeword) acc = gf::add(row[acc], c);
    scr.syndromes[i] = acc;
    all_zero = all_zero && acc == 0;
  }
  if (all_zero) {
    arena_resize(out.data, k);
    std::copy_n(codeword.begin(), k, out.data.begin());
    return true;
  }

  // Berlekamp-Massey on the fixed workspace; lengths tracked explicitly.
  // Same update order as the allocating version, so the trimmed sigma is
  // byte-identical.
  scr.sigma[0] = 1;
  std::size_t sigma_len = 1;
  scr.prev_sigma[0] = 1;
  std::size_t prev_len = 1;
  std::size_t errors = 0;  // current LFSR length L
  std::size_t m = 1;       // steps since last update
  std::uint8_t prev_discrepancy = 1;
  for (std::size_t step = 0; step < n_parity_; ++step) {
    // Discrepancy: d = S_step + sum_{i=1}^{L} sigma_i * S_{step-i}.
    std::uint8_t d = scr.syndromes[step];
    for (std::size_t i = 1; i < sigma_len && i <= step; ++i) {
      d = gf::add(d, gf::mul(scr.sigma[i], scr.syndromes[step - i]));
    }
    if (d == 0) {
      ++m;
      continue;
    }
    const std::uint8_t coeff = gf::div(d, prev_discrepancy);
    const std::size_t adjust_len = prev_len + m;
    DVLC_ASSERT(adjust_len <= scr.adjust.size(),
                "RS scratch adjust buffer overflow");
    std::fill_n(scr.adjust.begin(), m, 0);
    for (std::size_t i = 0; i < prev_len; ++i) {
      scr.adjust[i + m] = gf::mul(scr.prev_sigma[i], coeff);
    }
    const bool length_change = 2 * errors <= step;
    std::size_t old_len = 0;
    if (length_change) {
      // sigma' = sigma - (d/b) x^m prev_sigma, L' = step+1-L.
      std::copy_n(scr.sigma.begin(), sigma_len, scr.old_sigma.begin());
      old_len = sigma_len;
    }
    if (adjust_len > sigma_len) {
      std::fill(scr.sigma.begin() + static_cast<std::ptrdiff_t>(sigma_len),
                scr.sigma.begin() + static_cast<std::ptrdiff_t>(adjust_len),
                0);
      sigma_len = adjust_len;
    }
    for (std::size_t i = 0; i < adjust_len; ++i) {
      scr.sigma[i] = gf::add(scr.sigma[i], scr.adjust[i]);
    }
    if (length_change) {
      errors = step + 1 - errors;
      std::copy_n(scr.old_sigma.begin(), old_len, scr.prev_sigma.begin());
      prev_len = old_len;
      prev_discrepancy = d;
      m = 1;
    } else {
      ++m;
    }
  }
  while (sigma_len > 0 && scr.sigma[sigma_len - 1] == 0) --sigma_len;
  DVLC_ASSERT(sigma_len > 0, "BM sigma lost its constant term");
  const std::size_t num_errors = sigma_len - 1;
  if (num_errors == 0 || num_errors > correction_capacity()) return false;

  // Chien search: roots of sigma are alpha^{-position} for codeword
  // positions counted from the highest-degree end (position 0 is the
  // first byte, exponent n-1 in the codeword polynomial).
  std::size_t n_found = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const int exponent = static_cast<int>(n - 1 - pos);
    const std::uint8_t x_inv = gf::pow_alpha(-exponent);
    // Evaluate sigma (ascending order) at x_inv.
    std::uint8_t acc = 0;
    for (std::size_t i = sigma_len; i-- > 0;) {
      acc = gf::add(gf::mul(acc, x_inv), scr.sigma[i]);
    }
    if (acc == 0) {
      DVLC_ASSERT(n_found < scr.error_positions.size(),
                  "more sigma roots than its degree allows");
      scr.error_positions[n_found++] = pos;
    }
  }
  if (n_found != num_errors) return false;

  // Forney: error magnitudes from the error evaluator polynomial
  // omega(x) = [S(x) * sigma(x)] mod x^{2t}  (ascending order).
  std::fill_n(scr.omega.begin(), n_parity_, 0);
  for (std::size_t i = 0; i < sigma_len; ++i) {
    for (std::size_t j = 0; j + i < n_parity_ && j < n_parity_; ++j) {
      scr.omega[i + j] =
          gf::add(scr.omega[i + j], gf::mul(scr.sigma[i], scr.syndromes[j]));
    }
  }
  // Formal derivative of sigma: keep odd-degree terms shifted down.
  std::size_t deriv_len = 0;
  for (std::size_t i = 1; i < sigma_len; i += 2) {
    scr.sigma_deriv[deriv_len++] = scr.sigma[i];
  }

  std::copy(codeword.begin(), codeword.end(), scr.corrected.begin());
  for (std::size_t e = 0; e < n_found; ++e) {
    const std::size_t pos = scr.error_positions[e];
    const int exponent = static_cast<int>(n - 1 - pos);
    const std::uint8_t x_inv = gf::pow_alpha(-exponent);
    // omega(x_inv), ascending evaluation.
    std::uint8_t num = 0;
    for (std::size_t i = n_parity_; i-- > 0;) {
      num = gf::add(gf::mul(num, x_inv), scr.omega[i]);
    }
    // sigma'(x_inv): derivative has only even powers of x_inv left after
    // the shift; evaluate at x_inv^2.
    const std::uint8_t x_inv2 = gf::mul(x_inv, x_inv);
    std::uint8_t den = 0;
    for (std::size_t i = deriv_len; i-- > 0;) {
      den = gf::add(gf::mul(den, x_inv2), scr.sigma_deriv[i]);
    }
    if (den == 0) return false;
    // With syndromes anchored at alpha^0 (b = 0), Forney's formula carries
    // an extra factor X_j^{1-b} = X_j = alpha^{exponent}.
    const std::uint8_t magnitude =
        gf::mul(gf::div(num, den), gf::pow_alpha(exponent));
    scr.corrected[pos] = gf::add(scr.corrected[pos], magnitude);
  }

  // Verify: all syndromes of the corrected word must vanish.
  for (std::size_t i = 0; i < n_parity_; ++i) {
    const gf::MulRow& row = syndrome_rows_[i];
    std::uint8_t acc = 0;
    for (std::size_t p = 0; p < n; ++p) acc = gf::add(row[acc], scr.corrected[p]);
    if (acc != 0) return false;
  }

  arena_resize(out.data, k);
  std::copy_n(scr.corrected.begin(), k, out.data.begin());
  out.corrected_errors = n_found;
  return true;
}

void ReedSolomon::syndrome_screen_batch(
    std::span<const std::span<const std::uint8_t>> codewords,
    std::span<std::uint8_t> clean, RsBatchScratch& scr) const {
  DVLC_EXPECT(clean.size() == codewords.size(),
              "syndrome_screen_batch: clean span size mismatch");
  const bool kernel_ok = n_parity_ <= detail::kMaxRsParity;
  // Structurally invalid sizes can never be clean (decode_into rejects
  // them up front); exclude them from the kernel groups.
  const auto valid = [&](std::size_t i) {
    return codewords[i].size() > n_parity_ && codewords[i].size() <= 255;
  };
  for (std::size_t i = 0; i < codewords.size(); ++i) {
    clean[i] = 0;
  }
  std::array<std::uint32_t, 257> starts{};
  group_by_length(
      codewords.size(), [&](std::size_t i) { return codewords[i].size(); },
      valid, scr.order, starts);
  for (std::size_t len = 0; len < 256; ++len) {
    const std::size_t g0 = starts[len];
    const std::size_t g1 = starts[len + 1];
    const std::size_t lanes = g1 - g0;
    if (lanes == 0) continue;
    if (!kernel_ok || lanes < kMinBatchWidth) {
      for (std::size_t s = g0; s < g1; ++s) {
        const std::span<const std::uint8_t> cw = codewords[scr.order[s]];
        bool all_zero = true;
        for (std::size_t i = 0; all_zero && i < n_parity_; ++i) {
          const gf::MulRow& row = syndrome_rows_[i];
          std::uint8_t acc = 0;
          for (std::uint8_t c : cw) acc = gf::add(row[acc], c);
          all_zero = acc == 0;
        }
        clean[scr.order[s]] = all_zero ? 1 : 0;
      }
      continue;
    }
    const std::size_t width = round_up(lanes, kBatchWidthAlign);
    arena_resize(scr.cols, len * width);
    arena_resize(scr.out_cols, n_parity_ * width);
    std::fill(scr.cols.begin(), scr.cols.end(), 0);
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::span<const std::uint8_t> cw = codewords[scr.order[g0 + l]];
      for (std::size_t r = 0; r < len; ++r) {
        scr.cols[r * width + l] = cw[r];
      }
    }
    if (simd::use_vector_kernels()) {
      detail::rs_syndrome_cols_vec(scr.cols.data(), len,
                                   syndrome_ntabs_.data(), n_parity_,
                                   scr.out_cols.data(), width);
    } else {
      detail::rs_syndrome_cols_kernel<simd::ScalarBackend>(
          scr.cols.data(), len, syndrome_ntabs_.data(), n_parity_,
          scr.out_cols.data(), width);
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      bool all_zero = true;
      for (std::size_t i = 0; all_zero && i < n_parity_; ++i) {
        all_zero = scr.out_cols[i * width + l] == 0;
      }
      clean[scr.order[g0 + l]] = all_zero ? 1 : 0;
    }
  }
}

}  // namespace densevlc::phy
