// Fixture: scratch structs passed against the convention.
#pragma once

#include <vector>

namespace densevlc::phy {

struct DemodScratch {
  std::vector<double> buffer;
};

void run_const(const DemodScratch& scratch);  // EXPECT-FINDING: api-scratch-ref

void run_by_value(DemodScratch scratch);  // EXPECT-FINDING: api-scratch-ref

void run_ok(DemodScratch& scratch);  // non-const reference: clean

}  // namespace densevlc::phy
