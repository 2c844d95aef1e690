// Contact tracking: turns per-step node positions into link up/down events.
//
// Two nodes are "in contact" while their distance is within the radio
// range. The tracker diffs the in-range pair set between steps and reports
// the churn; the simulation kernel reacts by establishing/tearing links.
//
// Hot-path design (DESIGN.md §9): the pair sets are flat sorted vectors
// diffed with std::set_difference into reusable buffers, so a steady-state
// update performs no heap allocation. When a per-step motion bound is
// configured (`set_motion_bound`), the tracker additionally skips the grid
// rebuild on steps where the contact set is provably reproducible without
// one. Each full grid pass runs at radius `range + slack` and splits the
// enumerated pairs in two:
//   * pairs within `±slack/2` of the range boundary become *watch pairs*
//     — few in practice — whose exact contact predicate is re-evaluated
//     against current positions every skipped step;
//   * every other pair is at least `slack/2` (and, measured exactly, at
//     least `budget`) away from the boundary, so it cannot change status
//     until pairwise distances have moved by that margin. Distances move
//     at most twice the largest single-node displacement per step; each
//     skipped step charges that *observed* displacement (not the
//     advertised bound — teleports self-invalidate) against the budget,
//     and a full pass re-certifies everything once it is spent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/geo/spatial_grid.hpp"
#include "src/geo/vec2.hpp"

namespace dtn {

namespace snapshot {
class ArchiveWriter;
class ArchiveReader;
}  // namespace snapshot

/// Unordered node pair, stored normalized (first < second).
using NodePair = std::pair<std::size_t, std::size_t>;

inline NodePair make_pair_sorted(std::size_t a, std::size_t b) {
  return a < b ? NodePair{a, b} : NodePair{b, a};
}

struct ContactChurn {
  std::vector<NodePair> went_up;    ///< pairs that entered range this step
  std::vector<NodePair> went_down;  ///< pairs that left range this step
};

class ContactTracker {
 public:
  /// `range`: radio range in meters (also the default grid cell size).
  explicit ContactTracker(double range);

  /// Configures kinetic contact skipping from a fleet-wide per-step
  /// motion bound (meters a node can move in one update):
  ///   * bound < 0 or non-finite — skipping disabled; every update runs a
  ///     full grid pass at exactly `range` (the legacy behavior);
  ///   * bound == 0 — stationary fleet; slack is `range` (maximal);
  ///   * bound > 0 — slack is min(range, 32 * bound), i.e. full passes
  ///     are at least ~16 steps apart while the geometry allows it.
  /// Changing the slack invalidates the current budget (the next update
  /// runs a full pass); calling with an unchanged bound is a no-op, so a
  /// restored tracker keeps its checkpointed budget.
  void set_motion_bound(double bound);

  /// Sizes the staged update for `lanes` execution lanes (DESIGN.md
  /// §11/§16; default 1). With more than one lane, plan_update splits the
  /// candidate-pair enumeration of a full pass and the exact recheck of
  /// the watch set into contiguous index-range shards for the caller to
  /// dispatch; every shard's output is locally sorted and the shards
  /// partition an ascending range, so concatenating them reproduces the
  /// one-shard enumeration order bit-for-bit. The churn, the current()
  /// set and the kinetic budget are therefore identical at any lane
  /// count. The tracker never dispatches work itself.
  void set_lanes(std::size_t lanes) { lanes_ = lanes; }

  /// Processes one movement step inline on the caller; returns the link
  /// churn. Pair lists are sorted, so downstream processing is
  /// deterministic. The returned reference and the `current()` view stay
  /// valid until the next update. Equivalent to plan_update + every
  /// run_shard in order + finish_update.
  const ContactChurn& update(const std::vector<Vec2>& positions);

  // --- staged update (task-graph integration, DESIGN.md §16) ---
  // The World's step graph drives the update as three consecutive
  // stages, so the parallel middle stage runs on the step's lanes
  // without a nested dispatch:
  //   plan_update (serial)  — charges the kinetic budget, rebuilds the
  //                           grid when a full pass is due, sizes shards;
  //   run_shard   (parallel)— one call per shard in [0, stage_shards());
  //                           shards touch disjoint state;
  //   finish_update (serial)— concatenates shard output in shard order
  //                           and diffs against the current pair set.
  // `max_d2` is the squared maximum single-node displacement since the
  // previous update; it is only read when wants_displacement() — pass
  // 0.0 otherwise.

  /// True when the next plan_update needs the fleet's max displacement
  /// to decide between a skip and a full pass (lets the caller fuse that
  /// reduction into its mobility phase instead of a separate sweep).
  bool wants_displacement(std::size_t n_nodes) const {
    return slack_ > 0.0 && have_prev_ && prev_.size() == n_nodes &&
           budget_ > 0.0;
  }

  void plan_update(const std::vector<Vec2>& positions, double max_d2);
  /// Shards to run after plan_update (>= 1; 1 means serial-sized work).
  std::size_t stage_shards() const { return stage_shards_; }
  void run_shard(std::size_t s, const std::vector<Vec2>& positions);
  const ContactChurn& finish_update();

  /// Positions at the previous update — the displacement reference for
  /// wants_displacement(). Valid when wants_displacement() returned true.
  const std::vector<Vec2>& prev_positions() const { return prev_; }

  /// FP guard margin used in budget comparisons.
  static constexpr double kBudgetEps = 1e-9;

  /// Pairs currently in contact (sorted ascending).
  const std::vector<NodePair>& current() const { return current_; }

  bool in_contact(std::size_t a, std::size_t b) const {
    const NodePair p = make_pair_sorted(a, b);
    return std::binary_search(current_.begin(), current_.end(), p);
  }

  double range() const { return range_; }

  /// The spatial index backing full passes (introspection for tests).
  const SpatialGrid& grid() const { return grid_; }

  /// Pre-sizes the grid and position/pair buffers for an `n`-node fleet
  /// so the first full passes do not grow them inside the step loop.
  void reserve_nodes(std::size_t n) {
    grid_.reserve_nodes(n);
    prev_.reserve(n);
    next_.reserve(n);
    current_.reserve(n);
  }

  /// Diagnostics: how many updates ran a full grid pass vs. were skipped
  /// on the kinetic bound.
  std::size_t update_count() const { return updates_; }
  std::size_t full_pass_count() const { return full_passes_; }

  /// Snapshot/restore. The in-contact pair set is semantic state (hashed
  /// into digests); the kinetic bookkeeping (slack, remaining budget,
  /// last-seen positions) is derived-but-deterministic and is carried
  /// only in buffered checkpoints so a restored run skips the same steps
  /// an uninterrupted one does. load_state refuses pairs that do not fit
  /// an `n_nodes` fleet.
  void save_state(snapshot::ArchiveWriter& out) const;
  void load_state(snapshot::ArchiveReader& in, std::size_t n_nodes);

 private:
  /// A pair near the range boundary, re-checked exactly on skip steps.
  struct WatchPair {
    std::uint32_t i = 0;
    std::uint32_t j = 0;
    bool in_contact = false;  ///< classification as of the last update
  };

  /// Per-shard scratch; reused between updates so a steady-state update
  /// allocates nothing once warm.
  struct Shard {
    std::vector<SpatialGrid::PairHit> hits;  ///< full pass: candidate pairs
    std::vector<NodePair> contacts;          ///< full pass: in-range pairs
    std::vector<WatchPair> watch;            ///< full pass: boundary band
    std::vector<NodePair> ups;               ///< recheck: entered range
    std::vector<NodePair> downs;             ///< recheck: left range
    double min_nc2 = 0.0;                    ///< full pass: margin reduce
    double max_c2 = 0.0;
  };

  /// Number of shards to split `n` work items into, or 1 for serial.
  std::size_t shard_count(std::size_t n) const;

  double range_;
  double slack_ = 0.0;    ///< extra grid radius; 0 = skipping disabled
  double budget_ = 0.0;   ///< remaining motion (m) before a pass is due
  bool have_prev_ = false;
  SpatialGrid grid_;
  std::vector<NodePair> current_;  ///< sorted
  std::vector<NodePair> next_;     ///< scratch (full pass / churn apply)
  ContactChurn churn_;             ///< reused between updates
  std::vector<Vec2> prev_;         ///< positions at the previous update
  std::vector<WatchPair> watch_;   ///< sorted by (i, j)
  std::size_t updates_ = 0;
  std::size_t full_passes_ = 0;
  std::size_t lanes_ = 1;          ///< sizes shards (set_lanes)
  std::vector<Shard> shards_;      ///< per-shard scratch, reused
  // In-flight staged update (between plan_update and finish_update).
  bool stage_skip_ = false;        ///< recheck (true) vs full pass
  std::size_t stage_shards_ = 1;
};

}  // namespace dtn
