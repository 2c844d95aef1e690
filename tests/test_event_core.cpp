// Event-driven simulation core (DESIGN.md §9): the expiry/ETA heap step
// loop with kinetic contact skipping must be decision-identical to the
// legacy scan-everything loop. The proof mirrors the priority-cache
// equivalence suite: World::digest() trajectories — hashing the complete
// dynamic state — must coincide sample for sample on both paper
// scenarios under all four paper policies, plus targeted edge cases the
// big runs would only hit by accident (teleports, expiry while pinned).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/buffer/fifo.hpp"
#include "src/config/scenario.hpp"
#include "src/core/world.hpp"
#include "src/mobility/stationary.hpp"
#include "src/routing/spray_and_wait.hpp"

namespace dtn {
namespace {

std::vector<std::uint64_t> digest_trajectory(Scenario sc, bool legacy) {
  sc.world.legacy_step = legacy;
  auto w = build_world(sc);
  std::vector<std::uint64_t> digests;
  for (double t = 300.0; t <= sc.world.duration + 1e-9; t += 300.0) {
    w->run_until(t);
    digests.push_back(w->digest());
  }
  return digests;
}

struct EquivalenceCase {
  const char* scenario;  // "rwp" | "taxi"
  const char* policy;
  double duration;
};

class EventCoreEquivalence
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EventCoreEquivalence, DigestTrajectoryMatchesLegacy) {
  const EquivalenceCase& pc = GetParam();
  Scenario sc = std::string(pc.scenario) == "rwp"
                    ? Scenario::random_waypoint_paper()
                    : Scenario::taxi_paper();
  sc.policy = pc.policy;
  sc.world.duration = pc.duration;
  EXPECT_EQ(digest_trajectory(sc, /*legacy=*/false),
            digest_trajectory(sc, /*legacy=*/true));
}

INSTANTIATE_TEST_SUITE_P(
    PaperScenarios, EventCoreEquivalence,
    ::testing::Values(EquivalenceCase{"rwp", "fifo", 1800.0},
                      EquivalenceCase{"rwp", "ttl-ratio", 1800.0},
                      EquivalenceCase{"rwp", "copies-ratio", 1800.0},
                      EquivalenceCase{"rwp", "sdsrp", 1800.0},
                      EquivalenceCase{"taxi", "fifo", 1500.0},
                      EquivalenceCase{"taxi", "ttl-ratio", 1500.0},
                      EquivalenceCase{"taxi", "copies-ratio", 1500.0},
                      EquivalenceCase{"taxi", "sdsrp", 1500.0}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      std::string name = std::string(info.param.scenario) + "_" +
                         info.param.policy;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(EventCoreEquivalence, TightBuffersExerciseDropPath) {
  // Saturated buffers force evictions, source rejections and dropped-list
  // gossip — the paths where expiry-heap tombstones accumulate fastest.
  Scenario sc = Scenario::random_waypoint_paper();
  sc.world.duration = 1500.0;
  sc.buffer_capacity = 1'250'000;
  EXPECT_EQ(digest_trajectory(sc, false), digest_trajectory(sc, true));
}

// --- scripted-topology edge cases ---

Message msg(MessageId id, NodeId src, NodeId dst, int copies = 4,
            double created = 0.0, double ttl = 500.0,
            std::int64_t size = 100) {
  Message m;
  m.id = id;
  m.source = src;
  m.destination = dst;
  m.size = size;
  m.created = created;
  m.ttl = ttl;
  m.copies = copies;
  m.initial_copies = copies;
  m.received = created;
  return m;
}

std::unique_ptr<World> stationary_world(const WorldConfig& cfg,
                                        const std::vector<Vec2>& positions) {
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<FifoPolicy>());
  for (const Vec2& p : positions) {
    w->add_node(std::make_unique<StationaryModel>(p), 10000);
  }
  return w;
}

TEST(EventCoreKinetics, TeleportDefeatsContactSkipping) {
  // A stationary fleet reports max_speed() == 0, so the tracker banks a
  // large motion budget — but a scripted teleport must still register:
  // skip decisions charge the *observed* displacement, not the bound.
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 1000.0;
  cfg.range = 10.0;
  cfg.bandwidth = 100.0;
  auto w = stationary_world(cfg, {{0, 0}, {500, 0}});
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1)));
  w->run_until(50.0);  // long skip streak while out of range
  EXPECT_EQ(w->stats().delivered, 0u);
  auto& mob = dynamic_cast<StationaryModel&>(w->node(1).mobility());
  mob.move_to({5, 0});  // teleport into range
  w->run_until(55.0);
  EXPECT_EQ(w->stats().delivered, 1u);
  EXPECT_TRUE(w->contacts().in_contact(0, 1));
  mob.move_to({500, 0});  // and back out: the link must drop
  w->run_until(60.0);
  EXPECT_FALSE(w->contacts().in_contact(0, 1));
}

TEST(EventCoreKinetics, SkippingActuallyEngagesOnPaperScenario) {
  // Not a correctness property, a regression guard for the optimization:
  // at 2 m/s in a 4500x3400 m world most steps cannot change any contact,
  // so the tracker must be skipping a substantial share of grid passes.
  Scenario sc = Scenario::random_waypoint_paper();
  sc.world.duration = 600.0;
  auto w = build_world(sc);
  w->run();
  const auto& t = w->contacts();
  EXPECT_EQ(t.update_count(), 600u);
  EXPECT_LT(t.full_pass_count(), t.update_count() / 2);
}

TEST(EventCoreKinetics, LegacyStepRunsFullPassEveryStep) {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.world.duration = 300.0;
  sc.world.legacy_step = true;
  auto w = build_world(sc);
  w->run();
  EXPECT_EQ(w->contacts().full_pass_count(), w->contacts().update_count());
}

TEST(EventCoreHeaps, ExpiryWhilePinnedIsDeferredLikeLegacy) {
  // A message expiring mid-transfer is pinned: the heap must defer it (as
  // the legacy scan skips pinned copies) and the in-flight-death path in
  // handle_completion must account it exactly once, in both modes.
  for (const bool legacy : {false, true}) {
    WorldConfig cfg;
    cfg.step = 1.0;
    cfg.duration = 100.0;
    cfg.range = 10.0;
    cfg.bandwidth = 10.0;  // 100-byte message -> 10 s transfer
    cfg.legacy_step = legacy;
    auto w = stationary_world(cfg, {{0, 0}, {5, 0}});
    // Expires at t = 5, mid-flight of the transfer starting at t = 1.
    ASSERT_TRUE(w->inject_message(msg(1, 0, 1, 4, 0.0, /*ttl=*/5.0)));
    w->run_until(20.0);
    EXPECT_EQ(w->stats().ttl_expired, 1u) << "legacy=" << legacy;
    EXPECT_EQ(w->stats().delivered, 0u) << "legacy=" << legacy;
    EXPECT_FALSE(w->node(0).buffer().has(1));
    EXPECT_EQ(w->stats().transfers_started,
              w->stats().transfers_completed + w->stats().transfers_aborted);
  }
}

TEST(EventCoreHeaps, AbortTombstonesDoNotCompleteLater) {
  // Start a transfer, break the link mid-flight (teleport), then restore
  // it. The aborted transfer's ETA entry must be discarded as a
  // tombstone, and the retry must succeed with consistent accounting.
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 200.0;
  cfg.range = 10.0;
  cfg.bandwidth = 10.0;
  auto w = stationary_world(cfg, {{0, 0}, {5, 0}});
  ASSERT_TRUE(w->inject_message(msg(1, 0, 1)));
  w->run_until(5.0);
  ASSERT_EQ(w->transfers_in_flight().size(), 1u);
  auto& mob = dynamic_cast<StationaryModel&>(w->node(1).mobility());
  mob.move_to({500, 0});  // link down: abort
  w->run_until(8.0);
  EXPECT_EQ(w->transfers_in_flight().size(), 0u);
  EXPECT_EQ(w->stats().transfers_aborted, 1u);
  mob.move_to({5, 0});  // link back up: retry from scratch
  w->run_until(25.0);
  EXPECT_EQ(w->stats().delivered, 1u);
  EXPECT_EQ(w->stats().transfers_started,
            w->stats().transfers_completed + w->stats().transfers_aborted);
}

/// Records TTL purges (in order) and counts aborted transfers.
struct ExpiryCounter : WorldObserver {
  std::vector<std::pair<NodeId, MessageId>> expired;
  std::size_t aborted = 0;
  void on_ttl_expired(NodeId node, const Message& m, SimTime) override {
    expired.emplace_back(node, m.id);
  }
  void on_transfer_aborted(const Transfer&) override { ++aborted; }
};

struct DuplicateEntryRun {
  std::vector<std::uint64_t> digests;  ///< after every step
  std::vector<std::pair<NodeId, MessageId>> expired;
  std::size_t aborted = 0;
  bool relay_held_x_at_expiry = false;
};

/// Node 1 receives message X from node 0, loses it to an eviction and
/// receives it again, so its expiry heap holds two entries for (1, X)
/// with the same expiry (created + ttl is fixed per id). At that expiry
/// node 1 is mid-transfer of X to node 2: X is pinned, both entries are
/// deferred and re-pushed. Then either the transfer completes (X died in
/// flight) or, with `abort`, the link breaks first and the next pop
/// purges X.
DuplicateEntryRun run_duplicate_expiry(bool legacy, std::size_t threads,
                                       bool abort) {
  WorldConfig cfg;
  cfg.step = 1.0;
  cfg.duration = 400.0;
  cfg.range = 10.0;
  cfg.bandwidth = 10.0;  // 100-byte message -> 10 s transfer
  cfg.legacy_step = legacy;
  cfg.threads = threads;
  auto w = std::make_unique<World>(cfg);
  w->set_router(std::make_unique<SprayAndWaitRouter>());
  w->set_policy(std::make_unique<FifoPolicy>());
  w->add_node(std::make_unique<StationaryModel>(Vec2{0, 0}), 10000);
  w->add_node(std::make_unique<StationaryModel>(Vec2{5, 0}), 150);
  w->add_node(std::make_unique<StationaryModel>(Vec2{1000, 0}), 10000);
  w->add_node(std::make_unique<StationaryModel>(Vec2{9000, 0}), 10000);
  ExpiryCounter counter;
  w->add_observer(&counter);
  auto& relay = dynamic_cast<StationaryModel&>(w->node(1).mobility());
  auto& peer = dynamic_cast<StationaryModel&>(w->node(2).mobility());
  constexpr MessageId kX = 1;
  EXPECT_TRUE(w->inject_message(msg(kX, 0, 3, 8, 0.0, /*ttl=*/200.0)));

  DuplicateEntryRun out;
  for (int t = 1; t <= 230; ++t) {
    switch (t) {
      case 15:  // first copy of X arrived at t = 11; leave
        EXPECT_TRUE(w->node(1).buffer().has(kX));
        relay.move_to({3000, 0});
        break;
      case 20:  // a local message evicts X (FIFO: longest resident)
        EXPECT_TRUE(w->inject_message(msg(2, 1, 3, 1, 19.0, 1000.0)));
        EXPECT_FALSE(w->node(1).buffer().has(kX));
        relay.move_to({5, 0});  // back to node 0: X is sent again
        break;
      case 40:  // second copy arrived at t = 30; meet node 2 later
        EXPECT_TRUE(w->node(1).buffer().has(kX));
        relay.move_to({3000, 0});
        break;
      case 195:  // X (copies 2) goes to node 2 over t = 195..205
        peer.move_to({3005, 0});
        break;
      case 202:  // the link breaks in this step, before the completion
        if (abort) peer.move_to({9000, 500});
        break;
      default:
        break;
    }
    w->step();
    if (t == 200) out.relay_held_x_at_expiry = w->node(1).buffer().has(kX);
    out.digests.push_back(w->digest());
  }
  out.expired = counter.expired;
  out.aborted = counter.aborted;
  return out;
}

TEST(EventCoreHeaps, DuplicateExpiryEntriesActOnceLikeLegacy) {
  for (const bool abort : {false, true}) {
    const DuplicateEntryRun legacy = run_duplicate_expiry(true, 0, abort);
    // Node 0's copy expires at t = 200; node 1's is pinned then and
    // deferred by both of its entries.
    EXPECT_TRUE(legacy.relay_held_x_at_expiry) << "abort=" << abort;
    const std::vector<std::pair<NodeId, MessageId>> want = {{0, 1}, {1, 1}};
    EXPECT_EQ(legacy.expired, want) << "abort=" << abort;
    EXPECT_EQ(legacy.aborted, 1u) << "abort=" << abort;
    for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
      const DuplicateEntryRun graph = run_duplicate_expiry(false, threads,
                                                           abort);
      EXPECT_TRUE(graph.relay_held_x_at_expiry)
          << "abort=" << abort << " threads=" << threads;
      EXPECT_EQ(graph.expired, want)
          << "abort=" << abort << " threads=" << threads;
      EXPECT_EQ(graph.aborted, 1u)
          << "abort=" << abort << " threads=" << threads;
      EXPECT_EQ(graph.digests, legacy.digests)
          << "abort=" << abort << " threads=" << threads;
    }
  }
}

TEST(EventCoreConfig, LegacyStepRoundTripsThroughSettings) {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.world.legacy_step = true;
  const Scenario back = Scenario::from_settings(sc.to_settings());
  EXPECT_TRUE(back.world.legacy_step);
  EXPECT_FALSE(Scenario::random_waypoint_paper().world.legacy_step);
}

}  // namespace
}  // namespace dtn
