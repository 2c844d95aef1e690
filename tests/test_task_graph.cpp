/// \file test_task_graph.cpp
/// Unit tests for the persistent-worker stage-chain executor: chunk
/// coverage at awkward grain boundaries, stage ordering, zero-item
/// stages, the single-lane inline fast path, exception propagation,
/// and reuse across many runs (the per-step dispatch pattern World
/// relies on).

#include "src/util/task_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dtn {
namespace {

TEST(TaskExecutor, OneStageCoversEveryIndexExactlyOnce) {
  for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    TaskExecutor ex(lanes);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{64}, std::size_t{65},
                          std::size_t{1000}}) {
      for (std::size_t grain : {std::size_t{1}, std::size_t{8},
                                std::size_t{64}, std::size_t{2000}}) {
        std::vector<std::atomic<int>> hits(n);
        TaskGraph g;
        const int s = g.add(
            [&](std::size_t b, std::size_t e) {
              for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
            },
            grain);
        g.set_items(s, n);
        ex.run(g);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(hits[i].load(), 1) << "lanes=" << lanes << " n=" << n
                                       << " grain=" << grain << " i=" << i;
      }
    }
  }
}

TEST(TaskExecutor, SingleLaneRunsInlineOnCaller) {
  TaskExecutor ex(1);
  EXPECT_EQ(ex.lanes(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  bool same_thread = true;
  std::size_t covered = 0;
  TaskGraph g;
  const int wide = g.add(
      [&](std::size_t b, std::size_t e) {
        if (std::this_thread::get_id() != caller) same_thread = false;
        covered += e - b;
      },
      7);
  g.add_serial([&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() != caller) same_thread = false;
  });
  g.set_items(wide, 100);
  ex.run(g);
  EXPECT_TRUE(same_thread);
  EXPECT_EQ(covered, 100u);
}

TEST(TaskExecutor, ZeroItemsSkipsStageButLaterStagesRun) {
  for (std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    TaskExecutor ex(lanes);
    TaskGraph g;
    std::atomic<int> calls{0};
    std::atomic<bool> tail_ran{false};
    int a = g.add([&](std::size_t, std::size_t) { calls.fetch_add(1); }, 4);
    g.add_serial([&](std::size_t, std::size_t) { tail_ran.store(true); });
    g.set_items(a, 0);
    ex.run(g);
    EXPECT_EQ(calls.load(), 0) << "lanes=" << lanes;
    EXPECT_TRUE(tail_ran.load()) << "lanes=" << lanes;
  }
}

TEST(TaskExecutor, StagesRunInOrder) {
  // Two parallel stages, then a serial join. The second stage reads the
  // first stage's writes at other chunks' indices, and the join must
  // observe every write from both.
  TaskExecutor ex(4);
  TaskGraph g;
  constexpr std::size_t kN = 500;
  std::vector<int> a(kN, 0), b(kN, 0);
  long long total = -1;
  int na = g.add([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) a[i] = static_cast<int>(i);
  }, 16);
  int nb = g.add([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) b[i] = 2 * a[kN - 1 - i];
  }, 16);
  g.add_serial([&](std::size_t, std::size_t) {
    total = 0;
    for (std::size_t i = 0; i < kN; ++i) total += a[i] + b[i];
  });
  g.set_items(na, kN);
  g.set_items(nb, kN);
  for (int rep = 0; rep < 50; ++rep) {
    std::fill(a.begin(), a.end(), 0);
    std::fill(b.begin(), b.end(), 0);
    total = -1;
    ex.run(g);
    const long long want = 3LL * (kN - 1) * kN / 2;
    ASSERT_EQ(total, want) << "rep=" << rep;
  }
}

TEST(TaskExecutor, ChainThroughZeroChunkStages) {
  // a -> (zero) -> (zero) -> c -> (zero): empty stages anywhere in the
  // chain are skipped, including two in a row and a trailing one.
  for (std::size_t lanes : {std::size_t{1}, std::size_t{2}}) {
    TaskExecutor ex(lanes);
    TaskGraph g;
    std::vector<int> order;
    g.add_serial([&](std::size_t, std::size_t) { order.push_back(1); });
    int mid1 = g.add([](std::size_t, std::size_t) {}, 1);
    int mid2 = g.add([](std::size_t, std::size_t) {}, 1);
    g.add_serial([&](std::size_t, std::size_t) { order.push_back(3); });
    int tail = g.add([](std::size_t, std::size_t) {}, 1);
    g.set_items(mid1, 0);
    g.set_items(mid2, 0);
    g.set_items(tail, 0);
    ex.run(g);
    ASSERT_EQ(order.size(), 2u) << "lanes=" << lanes;
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 3);
  }
}

TEST(TaskExecutor, EarlierStageSizesLaterStageMidRun) {
  // The step-graph pattern: a serial planning stage sets the item count
  // of the parallel stage it feeds, during the run — here also of one
  // two stages ahead, past a stage it empties.
  for (std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    TaskExecutor ex(lanes);
    TaskGraph g;
    std::atomic<std::size_t> covered{0};
    std::atomic<std::size_t> covered_far{0};
    int stage = -1;
    int far = -1;
    g.add_serial([&](std::size_t, std::size_t) {
      g.set_items(stage, 37);
      g.set_items(far, 11);
    });
    stage = g.add(
        [&](std::size_t lo, std::size_t hi) { covered.fetch_add(hi - lo); },
        4);
    g.add_serial([&](std::size_t, std::size_t) {});
    far = g.add(
        [&](std::size_t lo, std::size_t hi) { covered_far.fetch_add(hi - lo); },
        2);
    for (int rep = 0; rep < 3; ++rep) {
      covered.store(0);
      covered_far.store(0);
      g.set_items(stage, 0);  // stale counts from the previous run
      g.set_items(far, 0);
      ex.run(g);
      EXPECT_EQ(covered.load(), 37u) << "lanes=" << lanes << " rep=" << rep;
      EXPECT_EQ(covered_far.load(), 11u) << "lanes=" << lanes
                                         << " rep=" << rep;
    }
  }
}

/// Runs a one-stage graph of `n` items and returns how many it covered.
std::size_t run_count(TaskExecutor& ex, std::size_t n, std::size_t grain) {
  std::atomic<std::size_t> ok{0};
  TaskGraph g;
  const int s = g.add(
      [&](std::size_t b, std::size_t e) { ok.fetch_add(e - b); }, grain);
  g.set_items(s, n);
  ex.run(g);
  return ok.load();
}

TEST(TaskExecutor, ExceptionFromStagePropagatesToCaller) {
  for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    TaskExecutor ex(lanes);
    TaskGraph g;
    const int s = g.add(
        [](std::size_t, std::size_t e) {
          if (e >= 40) throw std::runtime_error("boom");
        },
        8);
    g.set_items(s, 256);
    EXPECT_THROW(ex.run(g), std::runtime_error) << "lanes=" << lanes;
    // The executor must stay usable after a failed run.
    EXPECT_EQ(run_count(ex, 100, 9), 100u) << "lanes=" << lanes;
  }
}

TEST(TaskExecutor, ExceptionFromHelperLanePropagatesToCaller) {
  // Only helper lanes throw; the caller's chunk holds until one has, so
  // the failure must cross threads to reach run().
  TaskExecutor ex(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> helper_threw{false};
  TaskGraph g;
  const int s = g.add(
      [&](std::size_t, std::size_t) {
        if (std::this_thread::get_id() != caller) {
          helper_threw.store(true);
          throw std::runtime_error("helper boom");
        }
        while (!helper_threw.load()) std::this_thread::yield();
      },
      8);
  g.set_items(s, 256);
  EXPECT_THROW(ex.run(g), std::runtime_error);
  EXPECT_TRUE(helper_threw.load());
  EXPECT_EQ(run_count(ex, 1000, 7), 1000u);
}

TEST(TaskExecutor, ExceptionInStageAbandonsRunButGraphIsReusable) {
  for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    TaskExecutor ex(lanes);
    TaskGraph g;
    std::atomic<int> runs{0};
    bool fail = true;
    g.add_serial([&](std::size_t, std::size_t) {
      if (fail) throw std::logic_error("stage failed");
      runs.fetch_add(1);
    });
    g.add_serial([&](std::size_t, std::size_t) { runs.fetch_add(1); });
    EXPECT_THROW(ex.run(g), std::logic_error) << "lanes=" << lanes;
    EXPECT_EQ(runs.load(), 0) << "lanes=" << lanes;
    fail = false;
    ex.run(g);
    EXPECT_EQ(runs.load(), 2) << "lanes=" << lanes;
  }
}

TEST(TaskExecutor, ManyRepeatedRunsStaySane) {
  // The per-step dispatch pattern: one graph, thousands of runs.
  TaskExecutor ex(3);
  TaskGraph g;
  constexpr std::size_t kN = 97;  // awkward: not a multiple of the grain
  std::vector<long long> data(kN, 0);
  long long sum = 0;
  int fill = g.add([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) data[i] += 1;
  }, 10);
  g.add_serial([&](std::size_t, std::size_t) {
    sum = std::accumulate(data.begin(), data.end(), 0LL);
  });
  g.set_items(fill, kN);
  constexpr int kRuns = 2000;
  for (int r = 0; r < kRuns; ++r) ex.run(g);
  EXPECT_EQ(sum, static_cast<long long>(kN) * kRuns);
}

TEST(TaskExecutor, StageOfAtMostOneGrainIsOneChunk) {
  for (std::size_t lanes : {std::size_t{1}, std::size_t{8}}) {
    TaskExecutor ex(lanes);
    std::atomic<int> calls{0};
    std::atomic<bool> whole{false};
    TaskGraph g;
    const int s = g.add(
        [&](std::size_t b, std::size_t e) {
          calls.fetch_add(1);
          whole.store(b == 0 && e == 5);
        },
        16);
    g.set_items(s, 5);
    ex.run(g);
    EXPECT_EQ(calls.load(), 1) << "lanes=" << lanes;
    EXPECT_TRUE(whole.load()) << "lanes=" << lanes;
  }
}

}  // namespace
}  // namespace dtn
