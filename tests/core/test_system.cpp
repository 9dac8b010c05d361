// Tests for the assembled DenseVlcSystem (MAC + sync + data path).
#include "core/system.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "scenario/scenarios.hpp"

namespace densevlc::core {
namespace {

SystemConfig fast_config() {
  SystemConfig cfg;
  cfg.testbed = core::make_experimental_testbed();
  cfg.mac.epoch_period_s = 0.25;
  cfg.sync_mode = SyncMode::kNlosVlc;
  return cfg;
}

TEST(System, TrueChannelTracksMobility) {
  SystemConfig cfg = fast_config();
  std::vector<std::unique_ptr<geom::MobilityModel>> mob;
  mob.push_back(std::make_unique<geom::WaypointMobility>(
      std::vector<geom::WaypointMobility::Waypoint>{
          {0.0, {0.75, 0.75, 0.0}}, {10.0, {2.25, 2.25, 0.0}}}));
  DenseVlcSystem system{cfg, std::move(mob)};
  const auto h0 = system.true_channel(0.0);
  const auto h10 = system.true_channel(10.0);
  EXPECT_NE(h0.best_tx_for(0), h10.best_tx_for(0));
}

TEST(System, BbbGroupingMatchesPaper) {
  // Sec. 7.1: four TXs per BBB in 2x2 blocks; TX2 & TX8 share a board,
  // TX3 & TX9 share a different one (1-based paper ids).
  auto system =
      DenseVlcSystem::with_static_rxs(fast_config(), {{1.25, 0.75, 0.0}});
  EXPECT_EQ(system.bbb_of(1), system.bbb_of(7));    // TX2, TX8
  EXPECT_EQ(system.bbb_of(2), system.bbb_of(8));    // TX3, TX9
  EXPECT_NE(system.bbb_of(1), system.bbb_of(2));    // different boards
  EXPECT_EQ(system.bbb_of(0), system.bbb_of(1));    // TX1, TX2
}

TEST(System, NlosErrorsCharacterizedAtStartup) {
  auto system =
      DenseVlcSystem::with_static_rxs(fast_config(), {{1.25, 0.75, 0.0}});
  ASSERT_FALSE(system.nlos_error_samples().empty());
  for (double e : system.nlos_error_samples()) {
    EXPECT_LT(std::fabs(e), 5e-6);  // all within a few ADC samples
  }
}

TEST(System, OffsetsRespectSyncMode) {
  SystemConfig cfg = fast_config();
  cfg.sync_mode = SyncMode::kNlosVlc;
  auto system =
      DenseVlcSystem::with_static_rxs(cfg, {{1.25, 0.75, 0.0}});
  Beamspot spot;
  spot.rx = 0;
  spot.txs = {1, 7, 2};  // TX2+TX8 (one BBB), TX3 (another)
  spot.leader = 1;
  Rng rng{1};
  const auto offsets = system.draw_tx_offsets(spot, rng);
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_DOUBLE_EQ(offsets[0], 0.0);  // leader BBB
  EXPECT_DOUBLE_EQ(offsets[1], 0.0);  // same BBB as leader
  EXPECT_LT(std::fabs(offsets[2]), 5e-6);  // NLOS-synced neighbour
}

TEST(System, NoSyncOffsetsAreLarge) {
  SystemConfig cfg = fast_config();
  cfg.sync_mode = SyncMode::kNone;
  auto system =
      DenseVlcSystem::with_static_rxs(cfg, {{1.25, 0.75, 0.0}});
  Beamspot spot;
  spot.rx = 0;
  spot.txs = {1, 2};  // two BBBs
  spot.leader = 1;
  Rng rng{2};
  double max_spread = 0.0;
  for (int t = 0; t < 30; ++t) {
    const auto offsets = system.draw_tx_offsets(spot, rng);
    max_spread =
        std::max(max_spread, std::fabs(offsets[0] - offsets[1]));
  }
  EXPECT_GT(max_spread, 5e-6);  // multiple microseconds of skew
}

TEST(System, AnalyticEpochServesAllRxs) {
  auto system = DenseVlcSystem::with_static_rxs(
      fast_config(), scenario::fig7_rx_positions());
  const auto report = system.run_epoch_analytic(0.0);
  ASSERT_EQ(report.throughput_bps.size(), 4u);
  EXPECT_EQ(report.beamspots.size(), 4u);
  EXPECT_GT(report.txs_assigned, 4u);
  for (double t : report.throughput_bps) EXPECT_GT(t, 0.0);
  EXPECT_LE(report.power_used_w, fast_config().power_budget_w + 1e-9);
}

TEST(System, WaveformRunDeliversFramesWithSync) {
  SystemConfig cfg = fast_config();
  cfg.power_budget_w = 0.25;  // small beamspots keep the test fast
  auto system =
      DenseVlcSystem::with_static_rxs(cfg, {{1.0, 1.0, 0.0}});
  const auto report = system.run(0.5, 40);
  ASSERT_EQ(report.rx.size(), 1u);
  EXPECT_GT(report.rx[0].frames_sent, 0u);
  EXPECT_GT(report.rx[0].frames_delivered, 0u);
  EXPECT_LT(report.rx[0].per(), 0.2);
  EXPECT_GT(report.throughput_bps(0), 0.0);
}

TEST(System, AcksFollowDeliveries) {
  SystemConfig cfg = fast_config();
  cfg.power_budget_w = 0.25;
  cfg.wifi.loss_probability = 0.0;
  auto system =
      DenseVlcSystem::with_static_rxs(cfg, {{1.0, 1.0, 0.0}});
  const auto report = system.run(0.5, 40);
  EXPECT_EQ(report.rx[0].acks_received, report.rx[0].frames_delivered);
}

}  // namespace
}  // namespace densevlc::core
