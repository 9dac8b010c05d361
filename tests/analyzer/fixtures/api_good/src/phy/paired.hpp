// Fixture: the scratch convention followed, with an into/value pair
// whose signatures stay paired.
#pragma once

#include <vector>

namespace densevlc::phy {

struct DemodScratch {
  std::vector<double> buffer;
};

void window_into(const std::vector<double>& signal, std::vector<double>& out,
                 DemodScratch& scratch);

std::vector<double> window(const std::vector<double>& signal);

}  // namespace densevlc::phy
