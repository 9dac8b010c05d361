// Tests for the receiver mobility models.
#include "geom/mobility.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace densevlc::geom {
namespace {

TEST(Static, NeverMoves) {
  const StaticMobility m{{1.0, 2.0, 0.0}};
  EXPECT_EQ(m.position(0.0), (geom::Vec3{1.0, 2.0, 0.0}));
  EXPECT_EQ(m.position(100.0), (geom::Vec3{1.0, 2.0, 0.0}));
}

TEST(Waypoint, RejectsEmptyAndNonMonotonic) {
  EXPECT_THROW(WaypointMobility{std::vector<WaypointMobility::Waypoint>{}},
               std::invalid_argument);
  EXPECT_THROW(
      WaypointMobility({{1.0, {0, 0, 0}}, {1.0, {1, 1, 0}}}),
      std::invalid_argument);
}

TEST(Waypoint, InterpolatesLinearly) {
  const WaypointMobility m({{0.0, {0.0, 0.0, 0.0}}, {10.0, {2.0, 4.0, 0.0}}});
  const auto mid = m.position(5.0);
  EXPECT_NEAR(mid.x, 1.0, 1e-12);
  EXPECT_NEAR(mid.y, 2.0, 1e-12);
}

TEST(Waypoint, HoldsAtEnds) {
  const WaypointMobility m({{1.0, {1.0, 1.0, 0.0}}, {2.0, {3.0, 3.0, 0.0}}});
  EXPECT_EQ(m.position(0.0), (geom::Vec3{1.0, 1.0, 0.0}));
  EXPECT_EQ(m.position(99.0), (geom::Vec3{3.0, 3.0, 0.0}));
}

TEST(Waypoint, MultiSegmentPath) {
  const WaypointMobility m({{0.0, {0.0, 0.0, 0.0}},
                            {1.0, {1.0, 0.0, 0.0}},
                            {2.0, {1.0, 1.0, 0.0}}});
  EXPECT_NEAR(m.position(0.5).x, 0.5, 1e-12);
  EXPECT_NEAR(m.position(1.5).y, 0.5, 1e-12);
  EXPECT_NEAR(m.position(1.5).x, 1.0, 1e-12);
}

TEST(RandomWalk, StaysInRoom) {
  const geom::Room room{3.0, 3.0, 2.8};
  const RandomWalkMobility m{{1.5, 1.5, 0.0}, 0.5, 2.0, room, 60.0, 99};
  for (double t = 0.0; t <= 60.0; t += 0.37) {
    const auto p = m.position(t);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, room.width);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, room.depth);
  }
}

TEST(RandomWalk, ActuallyMoves) {
  const geom::Room room{3.0, 3.0, 2.8};
  const RandomWalkMobility m{{1.5, 1.5, 0.0}, 0.5, 2.0, room, 10.0, 7};
  const auto start = m.position(0.0);
  const auto later = m.position(5.0);
  EXPECT_GT((start - later).norm(), 0.1);
}

TEST(RandomWalk, SpeedBoundsDisplacement) {
  const geom::Room room{30.0, 30.0, 2.8};  // huge room: no wall bounces
  const double speed = 0.5;
  const RandomWalkMobility m{{15.0, 15.0, 0.0}, speed, 5.0, room, 20.0, 3};
  for (double t = 0.0; t < 19.0; t += 1.0) {
    const double d = (m.position(t) - m.position(t + 1.0)).norm();
    EXPECT_LE(d, speed * 1.0 + 0.02);
  }
}

TEST(RandomWalk, DeterministicGivenSeed) {
  const geom::Room room{3.0, 3.0, 2.8};
  const RandomWalkMobility a{{1.0, 1.0, 0.0}, 0.4, 1.5, room, 10.0, 42};
  const RandomWalkMobility b{{1.0, 1.0, 0.0}, 0.4, 1.5, room, 10.0, 42};
  for (double t = 0.0; t < 10.0; t += 0.9) {
    EXPECT_EQ(a.position(t), b.position(t));
  }
}

TEST(RandomWalk, ClampsPastDuration) {
  const geom::Room room{3.0, 3.0, 2.8};
  const RandomWalkMobility m{{1.0, 1.0, 0.0}, 0.4, 1.5, room, 5.0, 1};
  EXPECT_EQ(m.position(5.0), m.position(1000.0));
  EXPECT_EQ(m.position(-1.0), m.position(0.0));
}

}  // namespace
}  // namespace densevlc::geom
