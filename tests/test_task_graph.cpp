/// \file test_task_graph.cpp
/// Unit tests for the persistent-worker task-graph executor: chunk
/// coverage at awkward grain boundaries, dependency ordering,
/// zero-item nodes, the single-lane inline fast path, exception
/// propagation, and reuse across many runs (the per-step dispatch
/// pattern World relies on).

#include "src/util/task_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace dtn {
namespace {

TEST(TaskExecutor, ForEachCoversEveryIndexExactlyOnce) {
  TaskExecutor ex(4);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{64}, std::size_t{65}, std::size_t{1000}}) {
    for (std::size_t grain : {std::size_t{1}, std::size_t{8}, std::size_t{64},
                              std::size_t{2000}}) {
      std::vector<std::atomic<int>> hits(n);
      TaskKernel k = [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      };
      ex.for_each(n, grain, k);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain
                                     << " i=" << i;
    }
  }
}

TEST(TaskExecutor, SingleLaneRunsInlineOnCaller) {
  TaskExecutor ex(1);
  EXPECT_EQ(ex.lanes(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  bool same_thread = true;
  TaskKernel k = [&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() != caller) same_thread = false;
  };
  ex.for_each(100, 7, k);
  EXPECT_TRUE(same_thread);

  TaskGraph g;
  int a = g.add_serial([&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() != caller) same_thread = false;
  });
  g.add_serial([&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() != caller) same_thread = false;
  }, {a});
  ex.run(g);
  EXPECT_TRUE(same_thread);
}

TEST(TaskExecutor, ZeroItemsSkipsKernelButReleasesSuccessors) {
  for (std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    TaskExecutor ex(lanes);
    TaskGraph g;
    std::atomic<int> calls{0};
    std::atomic<bool> tail_ran{false};
    int a = g.add([&](std::size_t, std::size_t) { calls.fetch_add(1); }, 4);
    g.add_serial([&](std::size_t, std::size_t) { tail_ran.store(true); }, {a});
    g.set_items(a, 0);
    ex.run(g);
    EXPECT_EQ(calls.load(), 0) << "lanes=" << lanes;
    EXPECT_TRUE(tail_ran.load()) << "lanes=" << lanes;
  }
}

TEST(TaskExecutor, DependenciesOrderPhases) {
  // Diamond: root fan-out -> two parallel phases -> serial join. The
  // join must observe every write from both branches.
  TaskExecutor ex(4);
  TaskGraph g;
  constexpr std::size_t kN = 500;
  std::vector<int> a(kN, 0), b(kN, 0);
  long long total = -1;
  int na = g.add([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) a[i] = static_cast<int>(i);
  }, 16);
  int nb = g.add([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) b[i] = 2 * static_cast<int>(i);
  }, 16);
  int nj = g.add_serial([&](std::size_t, std::size_t) {
    total = 0;
    for (std::size_t i = 0; i < kN; ++i) total += a[i] + b[i];
  }, {na, nb});
  (void)nj;
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

TEST(TaskExecutor, ChainThroughZeroChunkMiddleNode) {
  // a -> (zero-item) -> c: the zero-chunk middle node must cascade.
  for (std::size_t lanes : {std::size_t{1}, std::size_t{2}}) {
    TaskExecutor ex(lanes);
    TaskGraph g;
    std::vector<int> order;
    int a = g.add_serial([&](std::size_t, std::size_t) { order.push_back(1); });
    int mid = g.add([](std::size_t, std::size_t) {}, 1, {a});
    g.add_serial([&](std::size_t, std::size_t) { order.push_back(3); }, {mid});
    g.set_items(mid, 0);
    ex.run(g);
    ASSERT_EQ(order.size(), 2u) << "lanes=" << lanes;
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 3);
  }
}

TEST(TaskExecutor, PredecessorSizesSuccessorMidRun) {
  // The step-graph pattern: a serial planning node sets the item count
  // of the parallel stage it feeds, during the run.
  for (std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    TaskExecutor ex(lanes);
    TaskGraph g;
    std::atomic<std::size_t> covered{0};
    int stage = -1;
    int plan = g.add_serial(
        [&](std::size_t, std::size_t) { g.set_items(stage, 37); });
    stage = g.add(
        [&](std::size_t lo, std::size_t hi) { covered.fetch_add(hi - lo); },
        4, {plan});
    for (int rep = 0; rep < 3; ++rep) {
      covered.store(0);
      g.set_items(stage, 0);  // stale count from the previous run
      ex.run(g);
      EXPECT_EQ(covered.load(), 37u) << "lanes=" << lanes << " rep=" << rep;
    }
  }
}

TEST(TaskExecutor, ExceptionFromWorkerTaskPropagatesToCaller) {
  for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    TaskExecutor ex(lanes);
    TaskKernel bad = [](std::size_t, std::size_t e) {
      if (e >= 40) throw std::runtime_error("boom");
    };
    EXPECT_THROW(ex.for_each(256, 8, bad), std::runtime_error)
        << "lanes=" << lanes;
    // The executor must stay usable after a failed run.
    std::atomic<int> ok{0};
    TaskKernel good = [&](std::size_t b, std::size_t e) {
      ok.fetch_add(static_cast<int>(e - b));
    };
    ex.for_each(100, 9, good);
    EXPECT_EQ(ok.load(), 100) << "lanes=" << lanes;
  }
}

TEST(TaskExecutor, ExceptionInGraphNodeAbandonsRunButGraphIsReusable) {
  for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    TaskExecutor ex(lanes);
    TaskGraph g;
    std::atomic<int> runs{0};
    bool fail = true;
    int a = g.add_serial([&](std::size_t, std::size_t) {
      if (fail) throw std::logic_error("node failed");
      runs.fetch_add(1);
    });
    g.add_serial([&](std::size_t, std::size_t) { runs.fetch_add(1); }, {a});
    EXPECT_THROW(ex.run(g), std::logic_error) << "lanes=" << lanes;
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
  }, {fill});
  g.set_items(fill, kN);
  constexpr int kRuns = 2000;
  for (int r = 0; r < kRuns; ++r) ex.run(g);
  EXPECT_EQ(sum, static_cast<long long>(kN) * kRuns);
}

TEST(TaskExecutor, ForEachInlineWhenNAtMostGrain) {
  TaskExecutor ex(8);
  const std::thread::id caller = std::this_thread::get_id();
  bool inline_run = false;
  TaskKernel k = [&](std::size_t b, std::size_t e) {
    inline_run = (std::this_thread::get_id() == caller) && b == 0 && e == 5;
  };
  ex.for_each(5, 16, k);
  EXPECT_TRUE(inline_run);
}

}  // namespace
}  // namespace dtn
