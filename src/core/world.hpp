// World: the discrete-step DTN simulation kernel.
//
// Each step of `step_s` seconds the kernel: moves every node, diffs the
// in-range pair set into link up/down events, finishes transfers whose
// transmission time elapsed, creates scheduled traffic, expires TTLs, and
// starts new transfers on idle links. This mirrors the ONE simulator's
// world model (sampled movement, range connectivity, finite-bandwidth
// serial transfers, byte-capacity buffers).
//
// Determinism: given a seed and a fixed configuration, every run produces
// identical results — all iteration orders are explicitly sorted and all
// randomness flows from explicitly forked Rng streams.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "src/core/buffer_policy.hpp"
#include "src/core/hot_state.hpp"
#include "src/core/idle_table.hpp"
#include "src/core/message_arena.hpp"
#include "src/core/message_generator.hpp"
#include "src/core/node.hpp"
#include "src/core/observer.hpp"
#include "src/core/oracle.hpp"
#include "src/core/router.hpp"
#include "src/core/sim_stats.hpp"
#include "src/core/types.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/net/contact_tracker.hpp"
#include "src/util/task_graph.hpp"
#include "src/util/units.hpp"

namespace dtn {

struct WorldConfig {
  double step = 1.0;          ///< movement/connectivity sampling period (s)
  double duration = 18000.0;  ///< total simulated time (s)
  double range = 100.0;       ///< radio range (m)
  double bandwidth = units::kbps(250);  ///< link speed (bytes/s)
  bool collect_intermeeting = false;    ///< record pairwise samples (Fig. 3)
  double occupancy_sample_interval = 60.0;  ///< s between occupancy samples
  /// Immunization extension (off by default — the paper's evaluation runs
  /// without any acknowledgment mechanism): destinations seed an
  /// "already delivered" set that nodes exchange on contact; holders
  /// purge copies of delivered messages and refuse new ones.
  bool ack_gossip = false;
  /// Priority memoization (DESIGN.md §8): cache-safe policies reuse
  /// computed priorities and per-node send orders between invalidation
  /// events instead of re-deriving them per contact per step.
  bool priority_cache = true;
  /// Staleness quantum for pure time decay (remaining TTL, censored-MLE
  /// λ): a cached priority older than this is recomputed. 0 restricts
  /// reuse to the same instant, making cached runs decision-identical to
  /// uncached ones (`World::digest()`-provable); the default trades ≤15 s
  /// of TTL-decay staleness for the hot-path speedup. The quantum also
  /// bounds how long an idle contact pair may be skipped outright.
  double priority_refresh_s = 15.0;
  /// Escape hatch: run the original scan-based step loop (full-buffer TTL
  /// scans, transfer-vector scans, a full contact pass every step)
  /// instead of the event-driven core (DESIGN.md §9: expiry/ETA heaps +
  /// kinetic contact skipping). The scan loop is fully serial and ignores
  /// `threads`: it is the independent reference the event-driven step
  /// graph is checked against — `World::digest()` trajectories match
  /// bit-for-bit — so this exists for the equivalence tests and
  /// benchmarks, not as a feature switch.
  bool legacy_step = false;
  /// Intra-step parallelism (DESIGN.md §11/§16): execution-lane count
  /// (including the caller) for the event-driven step graph, a chain of
  /// six stages dispatched with a single epoch bump. Three of them fan
  /// out over the lanes — mobility advance, contact candidate
  /// enumeration plus watch-pair rechecks, and contact-event estimator
  /// updates; the rest (planning, merging, and the apply stage with
  /// churn, completions, traffic and TTL) are serial. 0 (the default)
  /// and 1 both mean one inline lane: the chain runs on the calling
  /// thread. Any value produces bit-identical digest trajectories —
  /// extra lanes only reorder *computation*, never *application*, and
  /// every merge is a deterministic concatenation or an exact min/max
  /// reduction.
  /// Scenario key: `Parallel.threads`.
  std::size_t threads = 0;
  /// Per-phase wall-clock accounting (PhaseProfile, bench support). Off
  /// by default: the step loop carries zero timing overhead.
  bool profile_phases = false;
};

/// Cumulative wall-clock seconds per step phase (profile_phases only).
/// At one lane (threads 0 or 1) the step graph runs its stages in order
/// on the caller, and each stage stamps its own phase; the legacy
/// scan loop stamps the same fields. With more lanes the parallel stages
/// run on several threads at once (per-thread stamps would interleave),
/// so the whole graph run is folded into dispatch_s instead.
struct PhaseProfile {
  double mobility_s = 0.0;   ///< mobility advance (one lane / legacy)
  double contacts_s = 0.0;   ///< tracker + link churn (one lane / legacy)
  double events_s = 0.0;     ///< completions + traffic (one lane / legacy)
  double ttl_s = 0.0;        ///< TTL purge (one lane / legacy)
  double prewarm_s = 0.0;    ///< always 0; retained for readers of the struct
  double transfers_s = 0.0;  ///< start_transfers (always)
  double dispatch_s = 0.0;   ///< whole graph run, more than one lane only
  std::uint64_t steps = 0;
};

/// An in-flight message transmission.
struct Transfer {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  MessageId msg = 0;
  SimTime started = 0.0;
  SimTime eta = 0.0;
  /// In-run creation order; identifies this transfer in the completion
  /// heap (an aborted transfer leaves a stale heap entry whose seq no
  /// longer matches). Derived state: not serialized, reassigned on load.
  std::uint64_t seq = 0;
};

class World {
 public:
  explicit World(const WorldConfig& cfg);

  // --- setup (call before adding nodes / running) ---
  void set_router(std::unique_ptr<Router> router);
  void set_policy(std::unique_ptr<BufferPolicy> policy);
  /// Adds a node; returns its id (assigned densely from 0).
  NodeId add_node(MobilityPtr mobility, std::int64_t buffer_capacity,
                  const NodeEstimatorConfig& est_cfg = {});
  /// Enables the periodic traffic source.
  void enable_traffic(const MessageGenConfig& cfg, std::uint64_t seed);
  /// Enables fault injection (node churn, link aborts, radio degradation).
  /// Call after adding every node and before the first step; a validated
  /// but inert config (no mechanism can ever fire) is a no-op, keeping
  /// the fault-free hot path untouched.
  void enable_faults(const FaultConfig& cfg, std::uint64_t seed);

  /// Registers a report observer (non-owning; must outlive the world).
  /// Observers fire in registration order.
  void add_observer(WorldObserver* observer);

  // --- execution ---
  void step();
  void run_until(SimTime t);
  void run();  ///< until cfg.duration

  /// Creates a message directly in its source's buffer (tests, examples).
  /// Returns false if the source's admission control rejected it.
  bool inject_message(Message m);

  // --- inspection ---
  SimTime now() const { return now_; }
  const WorldConfig& config() const { return cfg_; }
  std::size_t node_count() const { return nodes_.size(); }
  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  const SimStats& stats() const { return stats_; }
  const GlobalRegistry& registry() const { return registry_; }
  const ContactTracker& contacts() const { return tracker_; }
  const std::vector<Transfer>& transfers_in_flight() const { return transfers_; }
  const Router& router() const { return *router_; }
  const BufferPolicy& policy() const { return *policy_; }
  /// The slab arena holding every buffered message copy (DESIGN.md §14).
  const MessageArena& arena() const { return arena_; }
  /// The per-node SoA hot-state block (radio, buffer, fault mirrors).
  const NodeHotState& hot_state() const { return hot_; }
  /// The active fault plan, or nullptr when fault injection is off.
  const FaultPlan* faults() const { return fault_.get(); }
  /// Links usable this step: the geometric contact set, minus pairs
  /// severed by the fault layer (an endpoint down, or a degraded radio
  /// whose shrunken range no longer covers the distance).
  const std::vector<NodePair>& active_contacts() const {
    return fault_ != nullptr ? live_contacts_ : tracker_.current();
  }
  /// Pairwise intermeeting samples (only when collect_intermeeting).
  const std::vector<double>& intermeeting_samples() const {
    return imt_samples_;
  }
  /// Contact duration samples (only when collect_intermeeting).
  const std::vector<double>& contact_duration_samples() const {
    return contact_samples_;
  }

  /// Context used for policy evaluation at `n`'s buffer.
  PolicyContext ctx_for(const Node& n) const;

  /// Cumulative per-phase wall clock (only populated when
  /// cfg.profile_phases; zeros otherwise).
  const PhaseProfile& phase_profile() const { return profile_; }

  // --- snapshot / digest ---
  /// Serializes the complete dynamic state (time, nodes, contacts,
  /// in-flight transfers, traffic schedule, registry, stats, router and
  /// policy state). The structure — node count, capacities, router/policy
  /// identity — is NOT serialized; restore into a world built from the
  /// same configuration (see snapshot/checkpoint.hpp).
  void save_state(snapshot::ArchiveWriter& out) const;
  void load_state(snapshot::ArchiveReader& in);

  /// FNV-1a digest over the canonical serialized state. Two worlds with
  /// equal digests are (up to hash collision) in identical states; a
  /// deterministic run produces an identical digest trajectory every time.
  std::uint64_t digest() const;

 private:
  /// A scheduled TTL expiry (event-driven purge). Entries are lazily
  /// invalidated: a message that was dropped, forwarded away or purged
  /// leaves a stale entry that is discarded when popped.
  struct ExpiryEvent {
    SimTime expiry = 0.0;
    NodeId node = kNoNode;
    MessageId msg = 0;
  };
  /// A scheduled transfer completion. Valid while `outgoing_[from]`
  /// points at a transfer with the same seq (aborts tombstone entries).
  struct EtaEvent {
    SimTime eta = 0.0;
    NodeId from = kNoNode;
    std::uint64_t seq = 0;
  };
  /// Min-heap comparators (std::push_heap et al. expect "less", so these
  /// order *after*); ties break on the full key for determinism.
  static bool expiry_after(const ExpiryEvent& a, const ExpiryEvent& b);
  static bool eta_after(const EtaEvent& a, const EtaEvent& b);

  // --- step bodies (dispatch in step()) ---
  /// The scan-based reference step (cfg.legacy_step): fully serial —
  /// mobility, tracker update, link churn, scan completions, traffic,
  /// scan TTL, start_transfers.
  void step_legacy();
  /// The event-driven step (DESIGN.md §16): the phases are the stages
  /// of one chain dispatched with a single epoch bump, and the parallel
  /// stages fan out over the lanes. Decision- and digest-identical to
  /// step_legacy at any lane count.
  void step_graph();
  /// Builds the step graph once (kernels capture `this`; per-step item
  /// counts are refreshed by the planning stages via set_items).
  void build_step_graph();
  // Stage bodies (see build_step_graph for the chain).
  void plan_contacts();                 ///< g_plan_: reduce + tracker plan
  void merge_contacts_and_shard_imt();  ///< g_merge_
  void run_imt_groups(std::size_t begin, std::size_t end);  ///< g_imt_
  void apply_step_events();             ///< the serial apply stage
  /// Charges the wall time since the previous stamp to `acc` and restarts
  /// the clock; a no-op unless stamp_phases_ (see PhaseProfile).
  void stamp(double& acc);

  /// Advances mobility for nodes [begin, end) and samples the post-move
  /// positions into positions_ (the tracker input).
  void advance_mobility(std::size_t begin, std::size_t end);
  void process_link_down(const NodePair& p);
  void process_link_up(const NodePair& p);
  void abort_transfers_on(const NodePair& p);
  void abort_transfer_from(NodeId from, NodeId to);
  /// Legacy scan: completes every due transfer in (eta, from) order.
  void scan_completions();
  void handle_completion(const Transfer& t);
  /// Legacy scan: purges expired copies node by node.
  void scan_ttl();
  // --- event-phase helpers (the serial apply stage) ---
  /// Pops every eta-heap entry due at now_ and completes it, in pop
  /// order (the legacy completion order); tombstones are skipped.
  void apply_due_completions();
  /// Polls the traffic generator and admits its output in order.
  void admit_traffic();
  /// Pops every expiry-heap entry due at now_ and purges, skips (stale)
  /// or defers (pinned) it, in pop order.
  void apply_due_ttl();
  void start_transfers();
  void try_start(NodeId from, NodeId to);
  void handle_drop(Node& n, const Message& m);
  void sample_occupancy();
  // --- fault layer (all no-ops unless fault_ is set) ---
  /// Drains fault events due this step and applies their side effects
  /// (transfer aborts, downtime accounting, reboot purges).
  void apply_fault_events();
  /// Aborts the (at most one — the radio serializes) transfer `id`
  /// participates in, counting it as fault-induced.
  void abort_faulted_transfer_of(NodeId id);
  /// Reboot with `Fault.rebootPurge`: the buffer is lost.
  void purge_on_reboot(Node& n);
  /// Filters the geometric contact set through node availability and
  /// degraded radio ranges into `out`.
  void compute_live_contacts(std::vector<NodePair>& out) const;
  /// Recomputes the live set and turns its diff against the previous one
  /// into link down/up events (replaces the raw tracker churn).
  void refresh_live_contacts();
  /// ACK gossip: removes unpinned copies of known-delivered messages.
  void purge_acked(Node& n);
  /// Computes the fleet-wide per-step motion bound from the mobility
  /// models and hands it to the contact tracker (once, lazily, on the
  /// first step — all nodes exist by then).
  void configure_kinetics();
  /// Swap-pop removal of `from`'s outgoing transfer, keeping the
  /// `outgoing_` index consistent. O(1); vector order is not meaningful.
  void remove_transfer(NodeId from);
  void push_expiry(NodeId node, SimTime expiry, MessageId msg);
  /// Reconstructs outgoing_/heaps/seqs from restored transfers+buffers.
  void rebuild_event_queues();

  /// Pre-sizes the arena, handle spans, idle table and grid directories
  /// from the fleet size and traffic schedule so the steady-state step
  /// loop allocates nothing even at 100k nodes (runs once, lazily, with
  /// configure_kinetics).
  void prepare_capacity();

  template <typename Fn>
  void notify(Fn&& fn) {
    for (WorldObserver* o : observers_) fn(*o);
  }

  WorldConfig cfg_;
  /// Persistent-worker executor running the step graph: max(threads, 1)
  /// lanes, so one lane when threads is 0 or 1.
  TaskExecutor exec_;
  SimTime now_ = 0.0;
  std::vector<WorldObserver*> observers_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<BufferPolicy> policy_;
  /// Declared before nodes_: buffers free their arena handles on
  /// destruction, so the arena must outlive every Node.
  MessageArena arena_;
  NodeHotState hot_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Non-owning mobility pointers parallel to nodes_: the per-step
  /// advance loop streams over these without chasing Node objects.
  std::vector<MobilityModel*> mobility_raw_;
  ContactTracker tracker_;
  /// Active transfers, unordered (swap-pop removal). At most one per
  /// sender — try_start serializes on the radio — so `outgoing_` below
  /// indexes this vector by sender id. Serialization sorts by sender so
  /// archives and digests do not depend on removal history.
  std::vector<Transfer> transfers_;
  std::unique_ptr<MessageGenerator> gen_;
  std::unique_ptr<FaultPlan> fault_;
  /// Fault-filtered contact set (sorted; valid only when fault_ is set).
  /// Derived state: recomputed from the tracker + plan flags on restore.
  std::vector<NodePair> live_contacts_;
  std::vector<NodePair> live_scratch_;
  GlobalRegistry registry_;
  SimStats stats_;
  SimTime next_occupancy_sample_ = 0.0;

  // --- event-driven core (DESIGN.md §9) ---
  std::vector<std::int64_t> outgoing_;  ///< node id -> transfers_ index | -1
  std::uint64_t transfer_seq_ = 0;
  std::vector<EtaEvent> eta_heap_;        ///< min-heap on (eta, from, seq)
  std::vector<ExpiryEvent> expiry_heap_;  ///< min-heap (expiry, node, msg)
  std::vector<ExpiryEvent> expiry_deferred_;  ///< purge scratch (pinned)
  std::vector<Vec2> positions_;               ///< step scratch, reused
  bool kinetics_configured_ = false;

  // --- step-loop scratch, hoisted so a steady-state step allocates
  // nothing (asserted in test_parallel_step) ---
  std::vector<Message> traffic_scratch_;   ///< MessageGenerator::poll output
  std::vector<Transfer> legacy_due_;       ///< legacy completion scan
  std::vector<NodeId> fault_senders_;      ///< apply_fault_events: sorted view
  std::vector<MessageId> doomed_scratch_;  ///< purge_acked / purge_on_reboot

  // --- step task graph (DESIGN.md §16) ---
  TaskGraph step_graph_;
  bool graph_built_ = false;
  // The chain's stages in run order; the last one, the serial apply
  // stage (churn, completions, traffic, TTL), is never resized.
  int g_mob_ = -1;    ///< parallel: advance mobility (+ displacement max)
  int g_plan_ = -1;   ///< serial:   displacement reduce + tracker plan
  int g_track_ = -1;  ///< parallel: tracker shards
  int g_merge_ = -1;  ///< serial:   tracker finish + imt event grouping
  int g_imt_ = -1;    ///< parallel: per-node contact-estimator updates
  /// One contact-edge event for the hoisted estimator pass: node's view
  /// of a link to peer going up/down. seq is the serial emission order;
  /// groups sorted by (node, seq) preserve each node's event order.
  struct ImtEvent {
    NodeId node = kNoNode;
    std::uint32_t seq = 0;
    NodeId peer = kNoNode;
    bool up = false;
  };
  bool mob_want_disp_ = false;             ///< g_mob_: record chunk maxima?
  std::vector<double> mob_chunk_maxd2_;    ///< g_mob_: per-chunk max disp²
  std::vector<ImtEvent> imt_events_;       ///< g_merge_ output
  std::vector<std::size_t> imt_group_begin_;  ///< group starts + end sentinel
  bool imt_prehandled_ = false;  ///< g_imt_ ran: churn skips note_contact_*
  const ContactChurn* step_churn_ = nullptr;  ///< g_merge_ -> apply stage
  PhaseProfile profile_;
  bool stamp_phases_ = false;  ///< stamp() live this step (see PhaseProfile)
  double stamp_t0_ = 0.0;      ///< wall clock at the previous stamp

  /// Keyed by the *directional* (from, to) pair, unlike the sorted
  /// NodePair convention elsewhere; serialization iterates in sorted key
  /// order (see idle_table.hpp), byte-identical to the former std::map.
  IdleTable idle_memo_;

  // Fig. 3 collection: per-pair last contact end / start.
  std::map<NodePair, double> pair_last_end_;
  std::map<NodePair, double> pair_up_since_;
  std::vector<double> imt_samples_;
  std::vector<double> contact_samples_;
};

}  // namespace dtn
