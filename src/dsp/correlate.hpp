// Cross-correlation utilities for preamble and pilot detection.
//
// Both the data receiver (frame preamble search) and the synchronization
// listener (NLOS pilot search at frx oversampling) locate a known pattern
// inside a noisy sample stream via normalized cross-correlation.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/arena.hpp"

namespace densevlc::dsp {

/// Normalized cross-correlation in [-1, 1]: each window of the signal is
/// mean-removed and scaled by its energy, as is the pattern. Windows with
/// no variance correlate as 0.
std::vector<double> normalized_correlate(std::span<const double> signal,
                                         std::span<const double> pattern);

/// Result of a pattern search.
struct PeakDetection {
  std::size_t index = 0;   ///< sample offset of the best alignment
  double score = 0.0;      ///< normalized correlation at the peak
};

/// Finds the best normalized-correlation alignment of `pattern` within
/// `signal`, requiring the peak to reach `threshold`. Returns nullopt when
/// nothing crosses the threshold (e.g. pilot absent / blocked).
std::optional<PeakDetection> detect_pattern(std::span<const double> signal,
                                            std::span<const double> pattern,
                                            double threshold);

// --- Zero-allocation overloads (see common/arena.hpp) -------------------

/// Reusable workspace for repeated pattern searches: mean-removed pattern
/// staging, the score vector, and the per-position rolling window
/// statistics the SIMD score kernel consumes (aligned for vector loads).
struct CorrelateScratch {
  std::vector<double> pattern;
  std::vector<double> scores;
  AlignedVector<double> means;
  AlignedVector<double> vars;
};

/// normalized_correlate into `scratch.scores`. Bit-identical to the
/// value-returning function, which now wraps this.
void normalized_correlate_into(std::span<const double> signal,
                               std::span<const double> pattern,
                               CorrelateScratch& scratch);

/// detect_pattern running off a reused workspace.
std::optional<PeakDetection> detect_pattern_into(
    std::span<const double> signal, std::span<const double> pattern,
    double threshold, CorrelateScratch& scratch);

/// detect_pattern_into searching only window positions [first, last),
/// with `last` clamped to the last valid position; an empty range finds
/// nothing. The rolling window statistics still run from position 0, so
/// every searched score is bit-identical to normalized_correlate_into's
/// at that position: the result equals the full search whenever the
/// full search's peak lies inside the range. On return `scratch.scores`
/// holds the scores of positions first, first + 1, ... in order.
// DVLC_LINT_WAIVE(api-pair-drift): no value twin; range callers hold a scratch
std::optional<PeakDetection> detect_pattern_into(
    std::span<const double> signal, std::span<const double> pattern,
    double threshold, std::size_t first, std::size_t last,
    CorrelateScratch& scratch);

}  // namespace densevlc::dsp
