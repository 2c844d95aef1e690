// Deterministic intra-step parallelism (DESIGN.md §11/§16): running the
// World with any Parallel.threads value must produce bit-identical
// digest trajectories — the task-graph executor only changes *where*
// read-mostly work runs, never what it computes or the order in which
// effects are applied. Threads 0 and 1 both run the step graph on one
// inline lane; that run is the baseline here, and the legacy scan loop
// (test_event_core, test_faults) is the independent serial reference.
// The proof mirrors the event-core suite: digest trajectories on both
// paper scenarios under all four paper policies (plus knapsack-SDSRP on
// RWP), one lane vs 2/8 lanes, with and without faults, plus targeted
// checks for the sharded subsystems (contact churn ordering, batched TTL
// verdicts, checkpoint round-trips), the phase-profile contract, and the
// zero-allocation guarantee of the steady-state step loop at one lane
// and at two.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/buffer/fifo.hpp"
#include "src/config/scenario.hpp"
#include "src/core/world.hpp"
#include "src/mobility/random_walk.hpp"
#include "src/mobility/stationary.hpp"
#include "src/net/contact_tracker.hpp"
#include "src/routing/spray_and_wait.hpp"
#include "src/snapshot/checkpoint.hpp"
#include "src/util/rng.hpp"

// Counts every global allocation so the steady-state test below can
// assert the step loop performs none once warm. Counting is cheap and
// the suite is single-threaded outside the World's own pool, which also
// routes through these operators (relaxed atomic keeps them safe).
// ASan owns operator new/delete itself (replacing them trips its
// alloc-dealloc-mismatch check), so the counter — and the one test that
// needs it — is compiled out under address sanitizing; the TSan job
// keeps it, exercising the counter under the pool's concurrency.
#if defined(__SANITIZE_ADDRESS__)
#define DTN_NO_ALLOC_COUNTER 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DTN_NO_ALLOC_COUNTER 1
#endif
#endif

#ifndef DTN_NO_ALLOC_COUNTER
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // DTN_NO_ALLOC_COUNTER

namespace dtn {
namespace {

std::vector<std::uint64_t> digest_trajectory(Scenario sc,
                                             std::size_t threads) {
  sc.world.threads = threads;
  auto w = build_world(sc);
  std::vector<std::uint64_t> digests;
  for (double t = 300.0; t <= sc.world.duration + 1e-9; t += 300.0) {
    w->run_until(t);
    digests.push_back(w->digest());
  }
  return digests;
}

void enable_faults(Scenario& sc) {
  sc.fault.enabled = true;
  sc.fault.churn_fraction = 0.5;
  sc.fault.mean_up_s = 600.0;
  sc.fault.mean_down_s = 300.0;
  sc.fault.link_abort_rate_per_hour = 60.0;
  sc.fault.degrade_rate_per_hour = 6.0;
  sc.fault.degrade_duration_s = 120.0;
  sc.fault.degrade_range_factor = 0.6;
  sc.fault.degrade_bitrate_factor = 0.5;
}

struct ParallelCase {
  const char* scenario;  // "rwp" | "taxi"
  const char* policy;
  bool faults;
};

class ParallelStepEquivalence
    : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelStepEquivalence, DigestTrajectoryMatchesOneLane) {
  const ParallelCase& pc = GetParam();
  Scenario sc = std::string(pc.scenario) == "rwp"
                    ? Scenario::random_waypoint_paper()
                    : Scenario::taxi_paper();
  sc.policy = pc.policy;
  sc.world.duration = 900.0;
  if (pc.faults) enable_faults(sc);
  const std::vector<std::uint64_t> one_lane = digest_trajectory(sc, 0);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(digest_trajectory(sc, threads), one_lane)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperScenarios, ParallelStepEquivalence,
    ::testing::Values(ParallelCase{"rwp", "fifo", false},
                      ParallelCase{"rwp", "ttl-ratio", false},
                      ParallelCase{"rwp", "copies-ratio", false},
                      ParallelCase{"rwp", "sdsrp", false},
                      ParallelCase{"rwp", "knapsack-sdsrp", false},
                      ParallelCase{"taxi", "fifo", false},
                      ParallelCase{"taxi", "ttl-ratio", false},
                      ParallelCase{"taxi", "copies-ratio", false},
                      ParallelCase{"taxi", "sdsrp", false},
                      ParallelCase{"rwp", "sdsrp", true},
                      ParallelCase{"taxi", "fifo", true}),
    [](const ::testing::TestParamInfo<ParallelCase>& info) {
      std::string name = std::string(info.param.scenario) + "_" +
                         info.param.policy +
                         (info.param.faults ? "_faults" : "");
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ParallelStepEquivalence, TightBuffersExerciseDropPaths) {
  // Saturated buffers put SDSRP's drop path on every contact: each one
  // rates full buffers through the priority memo, evicts, and gossips
  // dropped lists. The graph must still match its one-lane run at 2 and
  // 4 lanes.
  Scenario sc = Scenario::random_waypoint_paper();
  sc.world.duration = 900.0;
  sc.buffer_capacity = 1'250'000;
  const std::vector<std::uint64_t> one_lane = digest_trajectory(sc, 0);
  EXPECT_EQ(digest_trajectory(sc, 2), one_lane);
  EXPECT_EQ(digest_trajectory(sc, 4), one_lane);
}

// --- sharded-subsystem checks ---

TEST(ShardedContactTracker, ChurnOrderingMatchesOneShardAtAnyLaneCount) {
  // Drive two trackers over the same random walk: one sized for a single
  // lane, one for several (its updates split into multiple shards, which
  // update() runs in order on the caller). Churn lists, the current set and the
  // skip/full-pass cadence must agree step for step — sharding the
  // candidate enumeration and the watch recheck only ever batches the
  // one-shard iteration order. Concurrent run_shard calls are covered by
  // the World graph tests above.
  constexpr std::size_t kNodes = 300;
  constexpr double kRange = 100.0;
  constexpr double kStep = 1.0;
  constexpr double kSpeed = 25.0;  // large churn per step
  for (const std::size_t lanes : {std::size_t{2}, std::size_t{8}}) {
    ContactTracker one_shard(kRange);
    ContactTracker sharded(kRange);
    one_shard.set_motion_bound(kSpeed * kStep);
    sharded.set_motion_bound(kSpeed * kStep);
    sharded.set_lanes(lanes);

    Rng rng(2026);
    std::vector<Vec2> pos(kNodes);
    for (Vec2& p : pos) {
      p = {rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)};
    }
    for (int step = 0; step < 200; ++step) {
      for (Vec2& p : pos) {
        p.x += rng.uniform(-kSpeed, kSpeed);
        p.y += rng.uniform(-kSpeed, kSpeed);
      }
      const ContactChurn& cs = one_shard.update(pos);
      // Copy before the second update: churn references are reused.
      const std::vector<NodePair> ups = cs.went_up;
      const std::vector<NodePair> downs = cs.went_down;
      const ContactChurn& cp = sharded.update(pos);
      ASSERT_EQ(cp.went_up, ups) << "lanes=" << lanes << " step=" << step;
      ASSERT_EQ(cp.went_down, downs) << "lanes=" << lanes << " step=" << step;
      ASSERT_EQ(sharded.current(), one_shard.current())
          << "lanes=" << lanes << " step=" << step;
    }
    EXPECT_EQ(sharded.full_pass_count(), one_shard.full_pass_count())
        << "lanes=" << lanes;
  }
}

Message short_ttl_msg(MessageId id, NodeId src, NodeId dst, double ttl) {
  Message m;
  m.id = id;
  m.source = src;
  m.destination = dst;
  m.size = 10;
  m.created = 0.0;
  m.ttl = ttl;
  m.copies = 1;  // wait phase: no spraying, buffers stay put
  m.initial_copies = 1;
  m.received = 0.0;
  return m;
}

TEST(ParallelTtl, MassExpiryMatchesOneLane) {
  // A mass expiry (hundreds of messages dying in one step) on several
  // lanes must reproduce the one-lane run's outcome exactly.
  auto build = [](std::size_t threads) {
    WorldConfig cfg;
    cfg.step = 1.0;
    cfg.duration = 200.0;
    cfg.range = 10.0;
    cfg.bandwidth = 1e9;
    cfg.threads = threads;
    auto w = std::make_unique<World>(cfg);
    w->set_router(std::make_unique<SprayAndWaitRouter>());
    w->set_policy(std::make_unique<FifoPolicy>());
    // 8 isolated nodes, far out of range: no transfers, pure TTL churn.
    for (int i = 0; i < 8; ++i) {
      w->add_node(std::make_unique<StationaryModel>(
                      Vec2{static_cast<double>(i) * 1000.0, 0.0}),
                  1'000'000);
    }
    MessageId id = 1;
    for (NodeId n = 0; n < 8; ++n) {
      for (int k = 0; k < 40; ++k) {  // 320 copies expiring at t=50
        EXPECT_TRUE(w->inject_message(
            short_ttl_msg(id++, n, (n + 1) % 8, /*ttl=*/50.0)));
      }
    }
    w->run_until(60.0);
    return w;
  };
  const auto one_lane = build(0);
  EXPECT_EQ(one_lane->stats().ttl_expired, 320u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto w = build(threads);
    EXPECT_EQ(w->stats().ttl_expired, 320u) << "threads=" << threads;
    EXPECT_EQ(w->digest(), one_lane->digest()) << "threads=" << threads;
  }
}

// --- checkpointing under parallel mode ---

TEST(ParallelCheckpoint, MidRunRestoreIsDigestEqual) {
  Scenario sc = Scenario::taxi_paper();
  sc.policy = "sdsrp";
  sc.world.duration = 900.0;
  sc.world.threads = 2;
  const std::string path =
      ::testing::TempDir() + "parallel_step_checkpoint.ckpt";

  auto w = build_world(sc);
  w->run_until(450.0);
  snapshot::save_checkpoint(path, sc, *w);
  w->run_until(sc.world.duration);
  const std::uint64_t uninterrupted = w->digest();
  w.reset();

  auto restored = snapshot::restore_checkpoint(path);
  // The thread count rides in the embedded scenario: a resumed run keeps
  // its parallel mode without the caller re-specifying it.
  EXPECT_EQ(restored.scenario.world.threads, 2u);
  restored.world->run_until(sc.world.duration);
  EXPECT_EQ(restored.world->digest(), uninterrupted);

  // And a one-lane resume of the same checkpoint converges to the same
  // state — the lane count is invisible to the saved bytes.
  Settings s = sc.to_settings();
  s.set("Parallel.threads", "0");
  const Scenario one_lane_sc = Scenario::from_settings(s);
  EXPECT_EQ(one_lane_sc.world.threads, 0u);
  auto one_lane = build_world(one_lane_sc);
  {
    snapshot::ArchiveReader in = snapshot::read_archive_file(path);
    snapshot::restore_world_into(in, *one_lane);
  }
  one_lane->run_until(sc.world.duration);
  EXPECT_EQ(one_lane->digest(), uninterrupted);
  std::remove(path.c_str());
}

TEST(ParallelConfig, ThreadsRoundTripsThroughSettings) {
  Scenario sc = Scenario::random_waypoint_paper();
  EXPECT_EQ(sc.world.threads, 0u);  // one-lane default
  sc.world.threads = 8;
  const Scenario back = Scenario::from_settings(sc.to_settings());
  EXPECT_EQ(back.world.threads, 8u);
}

// --- phase profile (the contract perfbench's layer metrics read) ---

TEST(ParallelProfile, OneLaneStampsPhasesManyLanesFoldIntoDispatch) {
  // At one lane (threads 0 or 1) the graph runs its nodes in order on
  // the caller and each node stamps its own phase; with more lanes the
  // phases overlap, so the whole graph run is charged to dispatch_s.
  Scenario sc = Scenario::random_waypoint_paper();
  sc.policy = "sdsrp";
  sc.world.duration = 600.0;
  sc.world.profile_phases = true;
  const auto steps = static_cast<std::uint64_t>(
      std::llround(sc.world.duration / sc.world.step));
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    sc.world.threads = threads;
    auto w = build_world(sc);
    w->run();
    const PhaseProfile& p = w->phase_profile();
    EXPECT_EQ(p.steps, steps) << "threads=" << threads;
    EXPECT_GT(p.transfers_s, 0.0) << "threads=" << threads;
    if (threads <= 1) {
      EXPECT_GT(p.mobility_s, 0.0) << "threads=" << threads;
      EXPECT_GT(p.contacts_s, 0.0) << "threads=" << threads;
      EXPECT_GT(p.events_s, 0.0) << "threads=" << threads;
      EXPECT_GT(p.ttl_s, 0.0) << "threads=" << threads;
      EXPECT_EQ(p.dispatch_s, 0.0) << "threads=" << threads;
    } else {
      EXPECT_GT(p.dispatch_s, 0.0);
      EXPECT_EQ(p.mobility_s, 0.0);
      EXPECT_EQ(p.contacts_s, 0.0);
      EXPECT_EQ(p.events_s, 0.0);
      EXPECT_EQ(p.ttl_s, 0.0);
    }
  }
}

// --- steady-state allocation ---

TEST(ParallelScratch, SteadyStateStepLoopDoesNotAllocate) {
#ifdef DTN_NO_ALLOC_COUNTER
  GTEST_SKIP() << "allocation counter disabled under AddressSanitizer";
#else
  // The hot-path scratch (due TTL batches, churn buffers, traffic and
  // fault staging) lives in reused World members; once every buffer has
  // grown to its working size, stepping must not touch the heap. A
  // quiet stationary fleet reaches that steady state immediately:
  // priority caching off keeps the idle memo and per-node memos empty,
  // and the huge occupancy interval keeps the sampler out of the window.
  // The two-lane variant additionally pins the executor contract: graph
  // dispatch borrows preallocated kernels and never touches the heap
  // once warm.
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    WorldConfig cfg;
    cfg.step = 1.0;
    cfg.duration = 1000.0;
    cfg.range = 10.0;
    cfg.bandwidth = 100.0;
    cfg.priority_cache = false;
    cfg.occupancy_sample_interval = 1e9;
    cfg.threads = threads;
    auto w = std::make_unique<World>(cfg);
    w->set_router(std::make_unique<SprayAndWaitRouter>());
    w->set_policy(std::make_unique<FifoPolicy>());
    for (int i = 0; i < 16; ++i) {
      w->add_node(std::make_unique<StationaryModel>(
                      Vec2{static_cast<double>(i) * 500.0, 0.0}),
                  10000);
    }
    w->run_until(50.0);  // warm every scratch buffer
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    w->run_until(150.0);
    const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << "threads=" << threads;
  }
#endif  // DTN_NO_ALLOC_COUNTER
}

TEST(ParallelScratch, HierarchicalGridRebuildsDoNotAllocateInSteadyState) {
#ifdef DTN_NO_ALLOC_COUNTER
  GTEST_SKIP() << "allocation counter disabled under AddressSanitizer";
#else
  // The stationary variant above never re-buckets the grid after warmup
  // (the kinetic budget is never spent). This one keeps the fleet moving
  // so full grid passes — the hierarchical counting-sort rebuild included
  // — keep running inside the measured window. Movers are confined to
  // small boxes far apart (no contacts ever form, so no Message churn),
  // and two stationary sentinels pin the corners of the coarse-tile
  // bounding box so the dense directory never has to grow mid-window.
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    WorldConfig cfg;
    cfg.step = 1.0;
    cfg.duration = 1000.0;
    cfg.range = 10.0;
    cfg.bandwidth = 100.0;
    cfg.priority_cache = false;
    cfg.occupancy_sample_interval = 1e9;
    cfg.threads = threads;
    auto w = std::make_unique<World>(cfg);
    w->set_router(std::make_unique<SprayAndWaitRouter>());
    w->set_policy(std::make_unique<FifoPolicy>());
    for (int i = 0; i < 16; ++i) {
      RandomWalkConfig wc;
      wc.area = Rect({i * 600.0, 0.0}, {i * 600.0 + 50.0, 50.0});
      wc.v_min = wc.v_max = 5.0;
      wc.epoch = 7.0;
      w->add_node(std::make_unique<RandomWalkModel>(wc, Rng(1000 + i)), 10000);
    }
    w->add_node(std::make_unique<StationaryModel>(Vec2{-60.0, -60.0}), 10000);
    w->add_node(std::make_unique<StationaryModel>(Vec2{9600.0, 120.0}), 10000);

    w->run_until(200.0);  // warm scratch; movers have bounced off every wall
    ASSERT_TRUE(w->contacts().grid().hierarchical());
    const std::size_t passes_before = w->contacts().full_pass_count();
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    w->run_until(400.0);
    const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << "threads=" << threads;
    // The window must actually have exercised the rebuild path.
    EXPECT_GT(w->contacts().full_pass_count(), passes_before);
    EXPECT_TRUE(w->contacts().grid().hierarchical());
    EXPECT_TRUE(w->contacts().current().empty());
  }
#endif  // DTN_NO_ALLOC_COUNTER
}

}  // namespace
}  // namespace dtn
