#include "src/net/contact_tracker.hpp"

#include <cmath>
#include <iterator>
#include <limits>
#include <tuple>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn {

namespace {
/// Full passes are sized so that, at the advertised bound, roughly this
/// many updates can be skipped between passes (budget slack / 2·bound).
constexpr double kSlackSteps = 32.0;
/// Minimum work items per shard; below this the dispatch overhead
/// dominates and the update runs as one shard. Determinism never depends
/// on the shard count, so this is a pure tuning knob.
constexpr std::size_t kMinShardItems = 64;
}  // namespace

ContactTracker::ContactTracker(double range) : range_(range), grid_(range) {
  DTN_REQUIRE(range > 0.0, "ContactTracker: range must be positive");
}

void ContactTracker::set_motion_bound(double bound) {
  double slack = 0.0;
  if (std::isfinite(bound) && bound >= 0.0) {
    slack = bound == 0.0 ? range_ : std::min(range_, kSlackSteps * bound);
  }
  if (slack == slack_) return;  // unchanged: keep any (restored) budget
  slack_ = slack;
  grid_.set_cell(range_ + slack_);
  budget_ = 0.0;  // the next update must run a full pass
}

const ContactChurn& ContactTracker::update(const std::vector<Vec2>& positions) {
  double max_d2 = 0.0;
  if (wants_displacement(positions.size())) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      max_d2 = std::max(max_d2, distance2(prev_[i], positions[i]));
    }
  }
  plan_update(positions, max_d2);
  for (std::size_t s = 0; s < stage_shards_; ++s) run_shard(s, positions);
  return finish_update();
}

std::size_t ContactTracker::shard_count(std::size_t n) const {
  if (lanes_ <= 1) return 1;
  // At least kMinShardItems of work per shard, at most 2 shards per
  // lane (a little imbalance slack without flooding the queue).
  return std::min(lanes_ * 2,
                  std::max<std::size_t>(1, n / kMinShardItems));
}

void ContactTracker::plan_update(const std::vector<Vec2>& positions,
                                 double max_d2) {
  ++updates_;
  churn_.went_up.clear();
  churn_.went_down.clear();
  stage_skip_ = false;
  if (wants_displacement(positions.size())) {
    // No pairwise distance can change by more than twice the largest
    // single-node displacement. Charging the *observed* displacement (not
    // the advertised bound) keeps skipping correct under teleports.
    const double spent = 2.0 * std::sqrt(max_d2);
    if (spent + kBudgetEps <= budget_) {
      budget_ -= spent;
      stage_skip_ = true;  // only watch pairs can have changed status
    }
  }
  prev_ = positions;
  have_prev_ = true;
  std::size_t items;
  if (stage_skip_) {
    items = watch_.size();
  } else {
    ++full_passes_;
    grid_.rebuild(positions);
    next_.clear();
    watch_.clear();
    items = positions.size();
  }
  stage_shards_ = shard_count(items);
  if (shards_.size() < stage_shards_) shards_.resize(stage_shards_);
}

void ContactTracker::run_shard(std::size_t s,
                               const std::vector<Vec2>& positions) {
  const double r2 = range_ * range_;
  Shard& sh = shards_[s];
  if (stage_skip_) {
    // Each shard owns a contiguous slice of watch_ (sorted by (i, j)):
    // its status writes touch disjoint elements and its churn comes out
    // locally sorted, so concatenating shards in order reproduces the
    // serial churn exactly.
    sh.ups.clear();
    sh.downs.clear();
    const std::size_t begin = s * watch_.size() / stage_shards_;
    const std::size_t end = (s + 1) * watch_.size() / stage_shards_;
    for (std::size_t w = begin; w < end; ++w) {
      WatchPair& wp = watch_[w];
      const bool in = distance2(positions[wp.i], positions[wp.j]) <= r2;
      if (in == wp.in_contact) continue;
      wp.in_contact = in;
      (in ? sh.ups : sh.downs).emplace_back(wp.i, wp.j);
    }
    return;
  }
  // Full pass: enumerate a contiguous range of the outer node index i.
  // Each shard's pairs are locally (i, j)-sorted and shards cover
  // ascending disjoint i ranges, so concatenation reproduces the serial
  // enumeration order; min/max margin reductions are exact (order-free),
  // so the resulting kinetic budget is bit-identical at any shard count.
  //
  // Pairs within ±slack/2 of the range boundary become watch pairs (exact
  // per-step recheck); the motion budget certifies everyone else: how
  // close the nearest non-watch non-contact pair is to entering range and
  // the farthest non-watch contact to leaving it. Excluding the band
  // keeps both margins >= slack/2, so skipping engages even when some
  // pair sits right at the boundary. Pairs beyond `reach` are not
  // enumerated; `reach` bounds the non-contact margin.
  const double reach = range_ + slack_;
  const double band = slack_ * 0.5;
  const double lo2 = (range_ - band) * (range_ - band);
  const double hi2 = (range_ + band) * (range_ + band);
  sh.hits.clear();
  sh.contacts.clear();
  sh.watch.clear();
  sh.min_nc2 = reach * reach;
  sh.max_c2 = 0.0;
  const std::size_t begin = s * positions.size() / stage_shards_;
  const std::size_t end = (s + 1) * positions.size() / stage_shards_;
  // collect_pairs_within rather than the std::function visitor: the
  // capture list would not fit std::function's inline buffer, and a
  // heap-allocated callback per pass breaks the zero-steady-state-
  // allocation property the parallel-step tests pin.
  grid_.collect_pairs_within(reach, begin, end, sh.hits);
  for (const SpatialGrid::PairHit& h : sh.hits) {
    const bool in = h.d2 <= r2;
    if (in) sh.contacts.emplace_back(h.i, h.j);
    if (slack_ > 0.0 && h.d2 >= lo2 && h.d2 <= hi2) {
      sh.watch.push_back({h.i, h.j, in});
    } else if (in) {
      sh.max_c2 = std::max(sh.max_c2, h.d2);
    } else {
      sh.min_nc2 = std::min(sh.min_nc2, h.d2);
    }
  }
}

const ContactChurn& ContactTracker::finish_update() {
  if (stage_skip_) {
    for (std::size_t s = 0; s < stage_shards_; ++s) {
      churn_.went_up.insert(churn_.went_up.end(), shards_[s].ups.begin(),
                            shards_[s].ups.end());
      churn_.went_down.insert(churn_.went_down.end(), shards_[s].downs.begin(),
                              shards_[s].downs.end());
    }
    if (churn_.went_up.empty() && churn_.went_down.empty()) return churn_;
    next_.clear();
    std::set_difference(current_.begin(), current_.end(),
                        churn_.went_down.begin(), churn_.went_down.end(),
                        std::back_inserter(next_));
    const auto mid = static_cast<std::ptrdiff_t>(next_.size());
    next_.insert(next_.end(), churn_.went_up.begin(), churn_.went_up.end());
    std::inplace_merge(next_.begin(), next_.begin() + mid, next_.end());
    current_.swap(next_);
    return churn_;
  }
  const double reach = range_ + slack_;
  double min_nc2 = reach * reach;
  double max_c2 = 0.0;
  for (std::size_t s = 0; s < stage_shards_; ++s) {
    const Shard& sh = shards_[s];
    next_.insert(next_.end(), sh.contacts.begin(), sh.contacts.end());
    watch_.insert(watch_.end(), sh.watch.begin(), sh.watch.end());
    min_nc2 = std::min(min_nc2, sh.min_nc2);
    max_c2 = std::max(max_c2, sh.max_c2);
  }
  std::set_difference(next_.begin(), next_.end(), current_.begin(),
                      current_.end(), std::back_inserter(churn_.went_up));
  std::set_difference(current_.begin(), current_.end(), next_.begin(),
                      next_.end(), std::back_inserter(churn_.went_down));
  current_.swap(next_);
  budget_ =
      slack_ > 0.0
          ? std::max(0.0, std::min(std::sqrt(min_nc2) - range_,
                                   range_ - std::sqrt(max_c2)))
          : 0.0;
  return churn_;
}

void ContactTracker::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("contacts");
  out.u64(current_.size());
  for (const NodePair& p : current_) {
    out.u64(p.first);
    out.u64(p.second);
  }
  // Kinetic bookkeeping is derived-but-deterministic state: skipped in
  // digests (the legacy and event-driven paths must hash identically),
  // carried in checkpoints so a restored run skips the same steps.
  if (!out.digest_only()) {
    out.f64(slack_);
    out.f64(budget_);
    out.boolean(have_prev_);
    out.u64(prev_.size());
    for (const Vec2& p : prev_) {
      out.f64(p.x);
      out.f64(p.y);
    }
    out.u64(watch_.size());
    for (const WatchPair& wp : watch_) {
      out.u32(wp.i);
      out.u32(wp.j);
      out.boolean(wp.in_contact);
    }
  }
  out.end_section();
}

void ContactTracker::load_state(snapshot::ArchiveReader& in,
                                std::size_t n_nodes) {
  // Hostile input: every pair indexes per-node arrays on the next step,
  // so each must name two distinct nodes of this world, normalized and
  // strictly ascending — the form save_state always writes.
  in.begin_section("contacts");
  current_.clear();
  using R = snapshot::ArchiveReader;
  const std::uint64_t n = in.count(2 * R::kU64Bytes);
  current_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t a = in.u64();
    const std::uint64_t b = in.u64();
    DTN_REQUIRE(a < b && b < n_nodes,
                "contacts: snapshot pair is not normalized or names a node "
                "outside this world");
    const NodePair p(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
    DTN_REQUIRE(current_.empty() || current_.back() < p,
                "contacts: snapshot pair set not strictly ascending");
    current_.push_back(p);
  }
  if (in.version() >= 3) {
    slack_ = in.f64();
    budget_ = in.f64();
    have_prev_ = in.boolean();
    prev_.clear();
    const std::uint64_t np = in.count(2 * R::kF64Bytes);
    DTN_REQUIRE(np == 0 || np == n_nodes,
                "contacts: snapshot position count does not match the world");
    prev_.reserve(np);
    for (std::uint64_t i = 0; i < np; ++i) {
      const double x = in.f64();
      const double y = in.f64();
      prev_.push_back({x, y});
    }
    watch_.clear();
    const std::uint64_t nw = in.count(2 * R::kU32Bytes + R::kBoolBytes);
    watch_.reserve(nw);
    for (std::uint64_t i = 0; i < nw; ++i) {
      WatchPair wp;
      wp.i = in.u32();
      wp.j = in.u32();
      wp.in_contact = in.boolean();
      DTN_REQUIRE(wp.i < wp.j && wp.j < n_nodes,
                  "contacts: snapshot watch pair is not normalized or names "
                  "a node outside this world");
      DTN_REQUIRE(watch_.empty() || std::tie(watch_.back().i, watch_.back().j) <
                                        std::tie(wp.i, wp.j),
                  "contacts: snapshot watch pairs not strictly ascending");
      watch_.push_back(wp);
    }
  } else {
    // Pre-kinetic archive: no bookkeeping to resume. Spend the budget so
    // the next update runs a full pass and re-certifies everything.
    slack_ = 0.0;
    budget_ = 0.0;
    have_prev_ = false;
    prev_.clear();
    watch_.clear();
  }
  grid_.set_cell(range_ + slack_);
  in.end_section();
}

}  // namespace dtn
