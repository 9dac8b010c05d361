// Tests for the fixed-size thread pool and its deterministic parallel_for.
//
// The contract under test: parallel_for results are a pure function of
// the input range — never of the thread count — because chunk boundaries
// depend only on the range length and bodies write disjoint slots. The
// suite checks the pool mechanics and its sizing, then the contract on
// the prober sweep that runs on it. Gain matrices and illuminance rasters
// are serial loops; their cross-thread-count checks guard against
// parallelism being added back.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/model.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/prober.hpp"
#include "illum/illuminance_map.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc {
namespace {

/// Thread counts every determinism assertion sweeps, per the issue:
/// {1, 2, 4, hardware_concurrency} (deduplicated by the loops being
/// idempotent when counts repeat).
std::vector<std::size_t> sweep_thread_counts() {
  return {1, 2, 4, hardware_threads()};
}

/// Restores the default global pool after each test.
class ThreadPoolTest : public ::testing::Test {
 protected:
  ~ThreadPoolTest() override { set_global_threads(0); }
};

TEST_F(ThreadPoolTest, RunsEveryChunkExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool{threads};
    std::vector<std::atomic<int>> hits(97);
    pool.run_chunks(hits.size(),
                    [&](std::size_t c) { hits[c].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST_F(ThreadPoolTest, ZeroChunksIsNoop) {
  ThreadPool pool{4};
  pool.run_chunks(0, [](std::size_t) { FAIL() << "chunk ran"; });
}

TEST_F(ThreadPoolTest, PoolIsReusableAcrossBatches) {
  ThreadPool pool{4};
  for (int batch = 0; batch < 50; ++batch) {
    std::atomic<int> count{0};
    pool.run_chunks(8, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
  }
}

TEST_F(ThreadPoolTest, ChunkExceptionPropagatesToCaller) {
  ThreadPool pool{4};
  EXPECT_THROW(pool.run_chunks(16,
                               [](std::size_t c) {
                                 if (c == 7) {
                                   throw std::runtime_error{"chunk 7"};
                                 }
                               }),
               std::runtime_error);
  // The pool must still be serviceable afterwards.
  std::atomic<int> count{0};
  pool.run_chunks(4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST_F(ThreadPoolTest, ChunkBoundsPartitionTheRange) {
  for (std::size_t n : {1u, 7u, 63u, 64u, 65u, 1000u}) {
    const std::size_t chunks = detail::chunk_count(n);
    std::size_t expected_lo = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [lo, hi] = detail::chunk_bounds(n, chunks, c);
      EXPECT_EQ(lo, expected_lo);
      EXPECT_GT(hi, lo);
      expected_lo = hi;
    }
    EXPECT_EQ(expected_lo, n);
  }
}

TEST_F(ThreadPoolTest, ParallelForCoversRangeDisjointly) {
  for (std::size_t threads : sweep_thread_counts()) {
    set_global_threads(threads);
    std::vector<int> hits(1003, 0);
    parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(hits.size()));
  }
}

TEST_F(ThreadPoolTest, NestedParallelForRunsInline) {
  set_global_threads(4);
  EXPECT_EQ(global_threads(), 4u);
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](std::size_t) {
    // Reentrant use from inside a chunk must not deadlock.
    parallel_for(0, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST_F(ThreadPoolTest, RepeatedNestedParallelForPerChunkDoesNotDeadlock) {
  // Regression: a chunk body that makes TWO sequential nested parallel
  // calls. The first nested call's inline scope must not mark the thread
  // idle on exit — if it does, the second call enqueues on the pool as a
  // top-level batch and deadlocks against its own outer batch. Trip
  // condition needs more items than kMaxChunks so chunks hold several
  // indices (this is how the Monte-Carlo campaign runner found it).
  set_global_threads(4);
  const std::size_t n = detail::kMaxChunks * 2 + 5;
  std::vector<int> sums(n, 0);
  parallel_for(0, n, [&](std::size_t i) {
    int local = 0;
    // Nested calls run inline on the calling thread, so each ++local is
    // single-threaded by design.
    // DVLC_LINT_WAIVE(par-shared-write): nested parallel_for runs inline
    parallel_for(0, 4, [&](std::size_t) { ++local; });
    // DVLC_LINT_WAIVE(par-shared-write): nested parallel_for runs inline
    parallel_for(0, 4, [&](std::size_t) { ++local; });
    sums[i] = local;
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(sums[i], 8);
}

TEST_F(ThreadPoolTest, ThreadCountIsValidatedAndCappedAtMaxChunks) {
  // Threads beyond kMaxChunks could never claim a chunk.
  set_global_threads(1000);
  ASSERT_EQ(global_threads(), detail::kMaxChunks);

  const char* saved = std::getenv("DENSEVLC_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  const std::size_t fallback =
      std::min(hardware_threads(), detail::kMaxChunks);

  // Not a whole positive decimal: one line on stderr, hardware default.
  for (const char* bad : {"4x", "", "0", "-3", " 4", "+4", "2.5"}) {
    ASSERT_EQ(setenv("DENSEVLC_THREADS", bad, 1), 0);
    ::testing::internal::CaptureStderr();
    set_global_threads(0);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(global_threads(), fallback) << '"' << bad << '"';
    EXPECT_NE(err.find("DENSEVLC_THREADS"), std::string::npos) << bad;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << bad;
  }

  ASSERT_EQ(setenv("DENSEVLC_THREADS", "3", 1), 0);
  set_global_threads(0);
  EXPECT_EQ(global_threads(), 3u);
  ASSERT_EQ(setenv("DENSEVLC_THREADS", "100000", 1), 0);
  set_global_threads(0);
  EXPECT_EQ(global_threads(), detail::kMaxChunks);

  if (saved != nullptr) {
    setenv("DENSEVLC_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("DENSEVLC_THREADS");
  }
}

// ---------------------------------------------------------------------
// Determinism of the real parallel workloads across thread counts.

TEST_F(ThreadPoolTest, ChannelMatrixBitIdenticalAcrossThreadCounts) {
  const auto tb = core::make_simulation_testbed();
  const auto instances = scenario::random_instances(3, 0.25, tb.room, 0xDE7);
  for (const auto& rx_xy : instances) {
    std::vector<std::vector<double>> gains;
    for (std::size_t threads : sweep_thread_counts()) {
      set_global_threads(threads);
      const auto h = tb.channel_for(rx_xy);
      std::vector<double> flat;
      for (std::size_t j = 0; j < h.num_tx(); ++j) {
        for (std::size_t k = 0; k < h.num_rx(); ++k) {
          flat.push_back(h.gain(j, k));
        }
      }
      gains.push_back(std::move(flat));
    }
    for (std::size_t i = 1; i < gains.size(); ++i) {
      EXPECT_EQ(gains[0], gains[i]);
    }
  }
}

TEST_F(ThreadPoolTest, IlluminanceMapBitIdenticalAcrossThreadCounts) {
  const auto tb = core::make_simulation_testbed();
  std::vector<std::vector<double>> rasters;
  for (std::size_t threads : sweep_thread_counts()) {
    set_global_threads(threads);
    const illum::IlluminanceMap map{tb.room,     tb.tx_poses(), tb.emitter,
                                    tb.led,      Meters{0.8},   41,
                                    kWhiteLedEfficacy};
    std::vector<double> flat;
    for (std::size_t iy = 0; iy < 41; ++iy) {
      for (std::size_t ix = 0; ix < 41; ++ix) {
        flat.push_back(map.at(ix, iy).value());
      }
    }
    rasters.push_back(std::move(flat));
  }
  for (std::size_t i = 1; i < rasters.size(); ++i) {
    EXPECT_EQ(rasters[0], rasters[i]);
  }
}

TEST_F(ThreadPoolTest, ProbeMatrixBitIdenticalAcrossThreadCounts) {
  const auto tb = core::make_simulation_testbed();
  const auto truth = tb.channel_for(scenario::fig7_rx_positions());
  core::ChannelProber prober{tb.led, phy::OokParams{}, phy::FrontEndConfig{},
                             0.9};
  std::vector<std::vector<double>> sweeps;
  for (std::size_t threads : sweep_thread_counts()) {
    set_global_threads(threads);
    Rng rng{0xBEE5};  // same stream position for every sweep
    const auto measured = prober.probe_matrix(truth, rng);
    std::vector<double> flat;
    for (std::size_t j = 0; j < measured.num_tx(); ++j) {
      for (std::size_t k = 0; k < measured.num_rx(); ++k) {
        flat.push_back(measured.gain(j, k));
      }
    }
    sweeps.push_back(std::move(flat));
  }
  for (std::size_t i = 1; i < sweeps.size(); ++i) {
    EXPECT_EQ(sweeps[0], sweeps[i]);
  }
}

}  // namespace
}  // namespace densevlc
