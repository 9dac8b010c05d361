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

/// Result of a pattern search.
struct PeakDetection {
  std::size_t index = 0;   ///< sample offset of the best alignment
  double score = 0.0;      ///< normalized correlation at the peak
};

/// Finds the best normalized-correlation alignment of `pattern` within
/// the whole of `signal`, requiring the peak to reach `threshold`.
/// Returns nullopt when nothing crosses the threshold (e.g. pilot absent
/// / blocked).
std::optional<PeakDetection> detect_pattern(std::span<const double> signal,
                                            std::span<const double> pattern,
                                            double threshold);

// --- Zero-allocation search (see common/arena.hpp) ----------------------

/// Reusable workspace for repeated pattern searches: mean-removed pattern
/// staging, the score vector, and the per-position rolling window
/// statistics the SIMD score kernel consumes (aligned for vector loads).
struct CorrelateScratch {
  std::vector<double> pattern;
  std::vector<double> scores;
  AlignedVector<double> means;
  AlignedVector<double> vars;
};

/// The pattern search, over window positions [first, last) only, running
/// off a reused workspace. The score at each position is the normalized
/// cross-correlation in [-1, 1]: the window of the signal is mean-removed
/// and scaled by its energy, as is the pattern; a window with no variance,
/// or a flat pattern, scores 0. `last` is clamped to the last
/// valid position, so [0, signal.size()) searches the whole capture; an
/// empty range finds nothing. The rolling window statistics always run
/// from position 0, so a score does not depend on the range: the result
/// equals the whole-capture search whenever that search's peak lies
/// inside the range. On return `scratch.scores` holds the scores of
/// positions first, first + 1, ... in order.
// DVLC_LINT_WAIVE(api-pair-drift): the value form searches the whole capture
std::optional<PeakDetection> detect_pattern_into(
    std::span<const double> signal, std::span<const double> pattern,
    double threshold, std::size_t first, std::size_t last,
    CorrelateScratch& scratch);

}  // namespace densevlc::dsp
