// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>

#include "common/arena.hpp"
#include "dsp/dsp_kernels.hpp"

namespace densevlc::dsp {
namespace {

// Scores window positions [first, last) into scratch.scores[0, last - first).
// Requires a non-empty pattern no longer than the signal and
// first <= last <= signal.size() - pattern.size() + 1.
void score_positions(std::span<const double> signal,
                     std::span<const double> pattern, std::size_t first,
                     std::size_t last, CorrelateScratch& scratch) {
  const std::size_t m = pattern.size();

  // Mean-removed pattern and its energy, computed once.
  double pat_mean = 0.0;
  for (double p : pattern) pat_mean += p;
  pat_mean /= static_cast<double>(m);
  arena_resize(scratch.pattern, m);
  std::vector<double>& pat = scratch.pattern;
  double pat_energy = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    pat[j] = pattern[j] - pat_mean;
    pat_energy += pat[j] * pat[j];
  }
  const std::size_t count = last - first;
  arena_resize(scratch.scores, count);
  if (pat_energy <= 0.0) {
    for (double& s : scratch.scores) s = 0.0;
    return;
  }

  // Rolling window sums let each position cost O(m) for the dot product
  // but O(1) for mean/energy bookkeeping. The statistics recurrence stays
  // scalar (each step depends on the previous) and always starts at
  // position 0, so the per-position mean and variance are the reference
  // values regardless of backend or range; only the independent
  // per-position dot products are vectorized, and only over the range.
  arena_resize(scratch.means, count);
  arena_resize(scratch.vars, count);
  double win_sum = 0.0;
  double win_sq = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    win_sum += signal[j];
    win_sq += signal[j] * signal[j];
  }
  const auto advance = [&](std::size_t i) {
    if (i + m < signal.size()) {
      win_sum += signal[i + m] - signal[i];
      win_sq += signal[i + m] * signal[i + m] - signal[i] * signal[i];
    }
  };
  for (std::size_t i = 0; i < first; ++i) advance(i);
  for (std::size_t i = first; i < last; ++i) {
    scratch.means[i - first] = win_sum / static_cast<double>(m);
    // sum of squared deviations
    scratch.vars[i - first] = win_sq - win_sum * scratch.means[i - first];
    advance(i);
  }
  const double* window = signal.data() + first;
  if (simd::use_vector_kernels()) {
    detail::correlate_scores_vec(window, pat.data(), m, scratch.means.data(),
                                 scratch.vars.data(), pat_energy,
                                 scratch.scores.data(), count);
  } else {
    detail::correlate_scores_kernel<simd::ScalarBackend>(
        window, pat.data(), m, scratch.means.data(), scratch.vars.data(),
        pat_energy, scratch.scores.data(), count);
  }
}

// First highest score reaching `threshold`; `first` is the window
// position of scores[0].
std::optional<PeakDetection> best_score(std::span<const double> scores,
                                        std::size_t first, double threshold) {
  std::optional<PeakDetection> best;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] >= threshold && (!best || scores[i] > best->score)) {
      best = PeakDetection{first + i, scores[i]};
    }
  }
  return best;
}

}  // namespace

std::optional<PeakDetection> detect_pattern_into(
    std::span<const double> signal, std::span<const double> pattern,
    double threshold, std::size_t first, std::size_t last,
    CorrelateScratch& scratch) {
  arena_clear(scratch.scores);
  if (pattern.empty() || signal.size() < pattern.size()) return std::nullopt;
  last = std::min(last, signal.size() - pattern.size() + 1);
  if (first >= last) return std::nullopt;
  score_positions(signal, pattern, first, last, scratch);
  return best_score(scratch.scores, first, threshold);
}

std::optional<PeakDetection> detect_pattern(std::span<const double> signal,
                                            std::span<const double> pattern,
                                            double threshold) {
  CorrelateScratch scratch;
  return detect_pattern_into(signal, pattern, threshold, 0, signal.size(),
                             scratch);
}

}  // namespace densevlc::dsp
