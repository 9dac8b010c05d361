// Differential suite for the batch channel prober.
//
// probe_matrix and probe_link are held bit for bit against the frozen
// per-link prober in bench/prober_reference (value front-end, per-link
// render, global correlation argmax): on both testbeds, at the Fig. 7
// receivers and at seeded drops, with zero-gain links, with live-link
// counts that leave 1-, 2- and 3-lane final quads, and at 1 and 4 pool
// threads. Like test_batch, every test runs under the native and the
// forced-scalar SIMD dispatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "core/prober.hpp"
#include "core/testbed.hpp"
#include "prober_reference.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 4};

/// Param = force-scalar: false runs the native (vector) dispatch, true
/// pins every kernel onto the scalar backend.
class ProberDiff : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::set_force_scalar(GetParam()); }
  void TearDown() override {
    simd::set_force_scalar(false);
    set_global_threads(0);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, ProberDiff, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? "ForcedScalar" : "NativeSimd";
    });

struct Rig {
  core::Testbed tb;
  phy::OokParams ook{};
  phy::FrontEndConfig frontend{};
  double swing_a = 0.9;
  core::ChannelProber prober{tb.led, ook, frontend, swing_a};

  explicit Rig(core::Testbed testbed) : tb{std::move(testbed)} {}

  core::ProbeResult reference(double h, Rng& rng) const {
    return bench::ref::probe_link(tb.led, ook, frontend, swing_a,
                                  prober.volts_per_gain(), h, rng);
  }

  /// The reference sweep: one fork anchors it, link idx draws from
  /// split(idx).
  channel::ChannelMatrix reference_sweep(const channel::ChannelMatrix& truth,
                                         Rng& rng) const {
    const Rng sweep = rng.fork();
    channel::ChannelMatrix out = truth;
    const std::size_t m = truth.num_rx();
    for (std::size_t idx = 0; idx < truth.num_tx() * m; ++idx) {
      Rng link_rng = sweep.split(idx);
      out.set_gain(idx / m, idx % m,
                   reference(truth.gain(idx / m, idx % m), link_rng)
                       .gain_estimate);
    }
    return out;
  }
};

std::vector<core::Testbed> testbeds() {
  return {core::make_simulation_testbed(), core::make_experimental_testbed()};
}

/// Fig. 7 receivers plus seeded uniform drops inside the wall margin.
std::vector<std::vector<geom::Vec3>> rx_sets(const geom::Room& room) {
  std::vector<std::vector<geom::Vec3>> sets{scenario::fig7_rx_positions()};
  Rng rng{0xD209};
  for (std::size_t d = 0; d < 3; ++d) {
    std::vector<geom::Vec3> drop;
    for (std::size_t k = 0; k < 4; ++k) {
      drop.push_back({rng.uniform(0.4, room.width - 0.4),
                      rng.uniform(0.4, room.depth - 0.4), 0.0});
    }
    sets.push_back(std::move(drop));
  }
  return sets;
}

void expect_same(const channel::ChannelMatrix& got,
                 const channel::ChannelMatrix& want) {
  ASSERT_EQ(got.num_tx(), want.num_tx());
  ASSERT_EQ(got.num_rx(), want.num_rx());
  for (std::size_t j = 0; j < got.num_tx(); ++j) {
    for (std::size_t k = 0; k < got.num_rx(); ++k) {
      EXPECT_EQ(got.gain(j, k), want.gain(j, k)) << "j=" << j << " k=" << k;
    }
  }
}

/// Zeroes links of `h` so that exactly `live` stay positive in column k.
void keep_live_in_column(channel::ChannelMatrix& h, std::size_t k,
                         std::size_t live) {
  std::size_t kept = 0;
  for (std::size_t j = 0; j < h.num_tx(); ++j) {
    if (h.gain(j, k) <= 0.0) continue;
    if (kept < live) {
      ++kept;
    } else {
      h.set_gain(j, k, 0.0);
    }
  }
  ASSERT_EQ(kept, live);
}

TEST_P(ProberDiff, FullSweepMatchesReference) {
  for (const auto& tb : testbeds()) {
    const Rig s{tb};
    const auto sets = rx_sets(tb.room);
    for (std::size_t r = 0; r < sets.size(); ++r) {
      const auto truth = tb.channel_for(sets[r]);
      Rng ref_rng{100 + r};
      const auto want = s.reference_sweep(truth, ref_rng);
      for (const std::size_t threads : kThreadCounts) {
        set_global_threads(threads);
        Rng rng{100 + r};
        expect_same(s.prober.probe_matrix(truth, rng), want);
        // Exactly one fork of the caller's stream, as the reference.
        Rng after{100 + r};
        (void)after.fork();
        EXPECT_EQ(rng.uniform(), after.uniform());
      }
    }
  }
}

TEST_P(ProberDiff, ZeroGainLinksMatchReference) {
  for (const auto& tb : testbeds()) {
    const Rig s{tb};
    auto truth = tb.channel_for(scenario::fig7_rx_positions());
    // A dead TX row, a blocked RX column and scattered zeros.
    for (std::size_t k = 0; k < truth.num_rx(); ++k) truth.set_gain(5, k, 0.0);
    for (std::size_t j = 0; j < truth.num_tx(); ++j) truth.set_gain(j, 2, 0.0);
    for (std::size_t j = 0; j < truth.num_tx(); j += 7) {
      truth.set_gain(j, 0, 0.0);
    }
    Rng ref_rng{7};
    const auto want = s.reference_sweep(truth, ref_rng);
    for (const std::size_t threads : kThreadCounts) {
      set_global_threads(threads);
      Rng rng{7};
      const auto got = s.prober.probe_matrix(truth, rng);
      expect_same(got, want);
      for (std::size_t j = 0; j < truth.num_tx(); ++j) {
        EXPECT_EQ(got.gain(j, 2), 0.0);
      }
    }
  }
}

TEST_P(ProberDiff, DirtyMasksLeavingPartialQuadsMatchReference) {
  for (const auto& tb : testbeds()) {
    const Rig s{tb};
    const auto rx = scenario::fig7_rx_positions();
    // Live links per column: one column with 33, 34 and 35 live links
    // (1-, 2- and 3-lane final quads), then two columns whose live links
    // total 4q + 3; every other column is zeroed.
    const std::vector<std::vector<std::size_t>> layouts{
        {0, 33, 0, 0}, {0, 34, 0, 0}, {0, 35, 0, 0}, {30, 0, 0, 33}};
    for (std::size_t l = 0; l < layouts.size(); ++l) {
      auto truth = tb.channel_for(rx);
      for (std::size_t k = 0; k < truth.num_rx(); ++k) {
        keep_live_in_column(truth, k, layouts[l][k]);
      }
      Rng ref_rng{20 + l};
      const auto want = s.reference_sweep(truth, ref_rng);
      for (const std::size_t threads : kThreadCounts) {
        set_global_threads(threads);
        Rng rng{20 + l};
        expect_same(s.prober.probe_matrix(truth, rng), want);
      }
    }
  }
}

TEST_P(ProberDiff, ProbeLinkMatchesReference) {
  for (const auto& tb : testbeds()) {
    const Rig s{tb};
    const auto truth = tb.channel_for(scenario::fig7_rx_positions());
    std::vector<double> gains{0.0, -1e-7, 1e-12, 2e-9, 1e-7, 8e-7};
    for (std::size_t j = 0; j < truth.num_tx(); j += 5) {
      gains.push_back(truth.gain(j, 1));
    }
    for (const std::size_t threads : kThreadCounts) {
      set_global_threads(threads);
      // One stream through every call: zero-gain links must leave it
      // untouched, as the reference does.
      Rng rng{50};
      Rng ref_rng{50};
      for (const double h : gains) {
        const auto got = s.prober.probe_link(h, rng);
        const auto want = s.reference(h, ref_rng);
        EXPECT_EQ(got.detected, want.detected) << "h=" << h;
        EXPECT_EQ(got.gain_estimate, want.gain_estimate) << "h=" << h;
        EXPECT_EQ(got.snr_db, want.snr_db) << "h=" << h;
      }
      EXPECT_EQ(rng.uniform(), ref_rng.uniform());
    }
  }
}

}  // namespace
}  // namespace densevlc
