// Deterministic intra-step parallelism (DESIGN.md §11/§16): running the
// World with any Parallel.threads value must produce bit-identical
// digest trajectories to the serial reference — the task-graph executor
// only changes *where* read-mostly work runs, never what it computes or
// the order in which effects are applied. The proof mirrors the
// event-core suite: digest trajectories on both paper scenarios under
// all four paper policies (plus knapsack-SDSRP on RWP), serial vs 1/2/8
// workers, with and without faults, plus targeted checks for the sharded
// subsystems (contact churn ordering, batched TTL verdicts, checkpoint
// round-trips) and the zero-allocation guarantee of the steady-state
// step loop, serial and parallel alike.
#include <gtest/gtest.h>

#include <atomic>
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
#include "src/util/task_graph.hpp"

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

TEST_P(ParallelStepEquivalence, DigestTrajectoryMatchesSerial) {
  const ParallelCase& pc = GetParam();
  Scenario sc = std::string(pc.scenario) == "rwp"
                    ? Scenario::random_waypoint_paper()
                    : Scenario::taxi_paper();
  sc.policy = pc.policy;
  sc.world.duration = 900.0;
  if (pc.faults) enable_faults(sc);
  const std::vector<std::uint64_t> serial = digest_trajectory(sc, 0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    EXPECT_EQ(digest_trajectory(sc, threads), serial)
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
  // dropped lists. The graph path must still match serial at 2 and 4
  // lanes.
  Scenario sc = Scenario::random_waypoint_paper();
  sc.world.duration = 900.0;
  sc.buffer_capacity = 1'250'000;
  const std::vector<std::uint64_t> serial = digest_trajectory(sc, 0);
  EXPECT_EQ(digest_trajectory(sc, 2), serial);
  EXPECT_EQ(digest_trajectory(sc, 4), serial);
}

// --- sharded-subsystem checks ---

TEST(ParallelContactTracker, ChurnOrderingMatchesSerialAtAnyWorkerCount) {
  // Drive two trackers over the same random walk: one serial, one with an
  // executor attached. Churn lists, the current set and the skip/full-pass
  // cadence must agree step for step — the sharded candidate enumeration
  // and watch recheck only ever batch the serial iteration order.
  constexpr std::size_t kNodes = 300;
  constexpr double kRange = 100.0;
  constexpr double kStep = 1.0;
  constexpr double kSpeed = 25.0;  // large churn per step
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    ContactTracker serial(kRange);
    ContactTracker parallel(kRange);
    serial.set_motion_bound(kSpeed * kStep);
    parallel.set_motion_bound(kSpeed * kStep);
    TaskExecutor exec(workers);
    parallel.set_executor(&exec);

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
      const ContactChurn& cs = serial.update(pos);
      // Copy before the second update: churn references are reused.
      const std::vector<NodePair> ups = cs.went_up;
      const std::vector<NodePair> downs = cs.went_down;
      const ContactChurn& cp = parallel.update(pos);
      ASSERT_EQ(cp.went_up, ups) << "workers=" << workers
                                 << " step=" << step;
      ASSERT_EQ(cp.went_down, downs) << "workers=" << workers
                                     << " step=" << step;
      ASSERT_EQ(parallel.current(), serial.current())
          << "workers=" << workers << " step=" << step;
    }
    EXPECT_EQ(parallel.full_pass_count(), serial.full_pass_count())
        << "workers=" << workers;
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

TEST(ParallelTtl, BatchedExpiryVerdictsMatchSerial) {
  // A mass expiry (hundreds of messages dying in one step) crosses the
  // parallel-classification threshold; the verdict batch must reproduce
  // the serial pop-order outcome exactly.
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
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
        ASSERT_TRUE(w->inject_message(
            short_ttl_msg(id++, n, (n + 1) % 8, /*ttl=*/50.0)));
      }
    }
    w->run_until(60.0);
    EXPECT_EQ(w->stats().ttl_expired, 320u) << "threads=" << threads;
    if (threads == 0) continue;
    // Same script serial: end digests must agree.
    cfg.threads = 0;
    auto ws = std::make_unique<World>(cfg);
    ws->set_router(std::make_unique<SprayAndWaitRouter>());
    ws->set_policy(std::make_unique<FifoPolicy>());
    for (int i = 0; i < 8; ++i) {
      ws->add_node(std::make_unique<StationaryModel>(
                       Vec2{static_cast<double>(i) * 1000.0, 0.0}),
                   1'000'000);
    }
    MessageId sid = 1;
    for (NodeId n = 0; n < 8; ++n) {
      for (int k = 0; k < 40; ++k) {
        ASSERT_TRUE(ws->inject_message(
            short_ttl_msg(sid++, n, (n + 1) % 8, /*ttl=*/50.0)));
      }
    }
    ws->run_until(60.0);
    EXPECT_EQ(w->digest(), ws->digest());
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

  // And a serial resume of the same checkpoint converges to the same
  // state — parallel mode is invisible to the saved bytes.
  Settings s = sc.to_settings();
  s.set("Parallel.threads", "0");
  const Scenario serial_sc = Scenario::from_settings(s);
  EXPECT_EQ(serial_sc.world.threads, 0u);
  auto serial = build_world(serial_sc);
  {
    snapshot::ArchiveReader in = snapshot::read_archive_file(path);
    snapshot::restore_world_into(in, *serial);
  }
  serial->run_until(sc.world.duration);
  EXPECT_EQ(serial->digest(), uninterrupted);
  std::remove(path.c_str());
}

TEST(ParallelConfig, ThreadsRoundTripsThroughSettings) {
  Scenario sc = Scenario::random_waypoint_paper();
  EXPECT_EQ(sc.world.threads, 0u);  // serial default: goldens unaffected
  sc.world.threads = 8;
  const Scenario back = Scenario::from_settings(sc.to_settings());
  EXPECT_EQ(back.world.threads, 8u);
}

// --- quiet-step batching ---

// A fleet slow enough that the kinetic budget covers many steps of
// worst-case motion: run_until fuses those spans into batched mobility
// advances. Adjacent walk boxes nearly touch, so contact episodes (and
// the sprayed traffic riding on them) punctuate the quiet spans, and
// staggered TTLs force batches to break at exact expiry steps.
std::unique_ptr<World> quiet_batch_world(std::size_t threads) {
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 1200.0;
  cfg.range = 10.0;
  cfg.bandwidth = 10'000.0;
  cfg.threads = threads;
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<FifoPolicy>());
  for (int i = 0; i < 12; ++i) {
    RandomWalkConfig wc;
    wc.area = Rect({i * 32.0, 0.0}, {i * 32.0 + 30.0, 30.0});
    wc.v_min = wc.v_max = 0.25;
    wc.epoch = 20.0;
    w->add_node(std::make_unique<RandomWalkModel>(wc, Rng(42 + i)), 100000);
  }
  MessageId id = 1;
  for (NodeId n = 0; n + 1 < 12; ++n) {
    Message m;
    m.id = id++;
    m.source = n;
    m.destination = n + 1;
    m.size = 100;
    m.created = 0.0;
    m.ttl = 100.0 + 50.0 * static_cast<double>(n);
    m.copies = 4;
    m.initial_copies = 4;
    m.received = 0.0;
    EXPECT_TRUE(w->inject_message(m));
  }
  return w;
}

TEST(QuietBatch, RunUntilMatchesPureStepLoop) {
  // run_until fuses provably-quiet spans into batched mobility advances
  // (DESIGN.md §16); step() never batches. The digest trajectories must
  // be bit-identical, with batches breaking at exactly the right step
  // around TTL expiries, contact episodes and occupancy samples — at
  // any thread count, since batch sizing is state-pure.
  auto reference = quiet_batch_world(0);
  std::vector<std::uint64_t> ref_digests;
  for (double t = 100.0; t <= 1200.0 + 1e-9; t += 100.0) {
    while (reference->now() + 1.0 <= t + 1e-9) reference->step();
    ref_digests.push_back(reference->digest());
  }
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    auto w = quiet_batch_world(threads);
    std::vector<std::uint64_t> digests;
    for (double t = 100.0; t <= 1200.0 + 1e-9; t += 100.0) {
      w->run_until(t);
      digests.push_back(w->digest());
    }
    EXPECT_EQ(digests, ref_digests) << "threads=" << threads;
    // Vacuity guard: batched steps never pass through step(), so they
    // are invisible to the per-step profile counter. If batching never
    // engaged, this scenario is not testing what it claims to.
    EXPECT_LT(w->phase_profile().steps, reference->phase_profile().steps)
        << "threads=" << threads;
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
  // The parallel variant additionally pins the executor contract: graph
  // dispatch, for_each and the quiet-batch path borrow preallocated
  // kernels and never touch the heap once warm.
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
  // The movers keep the kinetic budget too thin for quiet batching, so
  // the parallel variant measures the task-graph step itself (dispatch,
  // tracker shards, merge) rather than the batched fast path.
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
