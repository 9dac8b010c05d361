// Fixture: the sanctioned parallel idioms — disjoint i-indexed writes,
// body-local accumulation and derived per-index Rng streams. Must produce
// zero findings.
#include <cstddef>
#include <vector>

namespace densevlc {

void indexed_writes(std::vector<double>& out, std::size_t n, std::size_t m) {
  parallel_for(0, n, [&](std::size_t j) {
    for (std::size_t k = 0; k < m; ++k) {
      out[j * m + k] = static_cast<double>(j + k);
    }
  });
}

void body_local_accumulation(std::vector<double>& out, std::size_t n) {
  parallel_for(0, n, [&](std::size_t i) {
    double acc = 0.0;
    std::vector<double> scratch;
    for (std::size_t k = 0; k < 8; ++k) {
      acc += static_cast<double>(k);
      scratch.push_back(acc);
    }
    out[i] = acc + scratch.back();
  });
}

void derived_streams(std::vector<double>& samples, const Rng& rng,
                     std::size_t n) {
  const Rng sweep = rng.fork();
  parallel_for(0, n, [&](std::size_t i) {
    Rng link_rng = sweep.split(i);
    samples[i] = link_rng.uniform();
  });
}

}  // namespace densevlc
