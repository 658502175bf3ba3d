#include "common/shard_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace bmg {
namespace {

class ShardPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { shard::set_worker_count(0); }
};

TEST_F(ShardPoolTest, ResultsLandInGridOrderAtEveryWorkerCount) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    shard::set_worker_count(workers);
    std::vector<int> out(37, -1);
    const auto stats = shard::run_cells(
        out.size(), [&](std::size_t c) { out[c] = static_cast<int>(c) * 3; });
    ASSERT_EQ(stats.size(), out.size());
    for (std::size_t c = 0; c < out.size(); ++c) {
      EXPECT_EQ(out[c], static_cast<int>(c) * 3) << "workers=" << workers;
      EXPECT_EQ(stats[c].cell, c);
      EXPECT_LT(stats[c].worker, workers);
    }
  }
}

TEST_F(ShardPoolTest, AdmissionBoundedByWorkerCount) {
  // At most W cells may be live at once — that is the peak-memory
  // bound the shard model promises (W whole simulations, not N).
  constexpr std::size_t kWorkers = 4;
  shard::set_worker_count(kWorkers);
  std::atomic<int> live{0}, peak{0};
  (void)shard::run_cells(64, [&](std::size_t) {
    const int now = ++live;
    int prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }
    std::atomic<int> spin{0};
    while (spin.fetch_add(1, std::memory_order_relaxed) < 20000) {
    }
    --live;
  });
  EXPECT_LE(peak.load(), static_cast<int>(kWorkers));
  EXPECT_GE(peak.load(), 1);
}

TEST_F(ShardPoolTest, WorkerCountConfiguration) {
  shard::set_worker_count(3);
  EXPECT_EQ(shard::worker_count(), 3u);
  shard::set_worker_count(1);
  EXPECT_EQ(shard::worker_count(), 1u);
  // 0 re-reads the environment/hardware default; >= 1 always.
  shard::set_worker_count(0);
  EXPECT_GE(shard::worker_count(), 1u);
}

TEST_F(ShardPoolTest, NestedRunCellsSerializesInline) {
  shard::set_worker_count(4);
  std::vector<int> inner(5, 0);
  (void)shard::run_cells(2, [&](std::size_t outer) {
    if (outer != 0) return;
    (void)shard::run_cells(inner.size(),
                           [&](std::size_t i) { inner[i] = static_cast<int>(i) + 1; });
  });
  for (std::size_t i = 0; i < inner.size(); ++i)
    EXPECT_EQ(inner[i], static_cast<int>(i) + 1);
}

TEST_F(ShardPoolTest, LowestCellExceptionWins) {
  for (const std::size_t workers : {1u, 4u}) {
    shard::set_worker_count(workers);
    try {
      (void)shard::run_cells(16, [&](std::size_t c) {
        if (c == 11 || c == 3 || c == 14)
          throw std::runtime_error("cell " + std::to_string(c));
      });
      FAIL() << "expected throw at workers=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 3") << "workers=" << workers;
    }
  }
}

TEST_F(ShardPoolTest, RemainingCellsRunAfterAFailure) {
  shard::set_worker_count(2);
  std::vector<int> ran(12, 0);
  try {
    (void)shard::run_cells(ran.size(), [&](std::size_t c) {
      ran[c] = 1;
      if (c == 0) throw std::runtime_error("first");
    });
    FAIL();
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0), 12);
}

TEST_F(ShardPoolTest, CellStatsRecordTimings) {
  shard::set_worker_count(1);
  const auto stats = shard::run_cells(3, [&](std::size_t) {
    std::atomic<int> spin{0};
    while (spin.fetch_add(1, std::memory_order_relaxed) < 100000) {
    }
  });
  for (const auto& s : stats) {
    EXPECT_GE(s.wall_s, 0.0);
    EXPECT_GE(s.cpu_s, 0.0);
  }
}

TEST_F(ShardPoolTest, ZeroCellsIsANoop) {
  shard::set_worker_count(4);
  EXPECT_TRUE(shard::run_cells(0, [&](std::size_t) { FAIL(); }).empty());
}

}  // namespace
}  // namespace bmg
