// NodeHotState: structure-of-arrays block for the per-node scalars the
// step loop streams over every step.
//
// The phases that visit *every* node per step — fault-filtered contact
// derivation, occupancy sampling, the radio-idle gate in try_start — used
// to chase one Node* (and often one FaultPlan flag word) per node. Here
// those scalars live in parallel arrays indexed by NodeId, owned by the
// World and written through the owning objects:
//
//   radio_busy            — written by Node::set_radio_busy
//   buffer_used/rev       — written by Buffer on insert/remove/load
//   buffer_cap            — fixed at add_node
//   up, range_factor,     — fault-plan mirrors, written by World when a
//   bitrate_factor          fault event pops (and refreshed on restore)
//   imt                   — intermeeting-estimator mirror rows, written
//                           by IntermeetingEstimator when bound (phase 2)
//
// Node and Buffer keep private fallback members for hot == nullptr so
// they remain constructible standalone in unit tests; inside a World the
// arrays are the single source of truth.
//
// SoA phase 2 (DESIGN.md §16): the per-node SDSRP estimator scalars are
// mirrored here, one IntermeetingScalars row per node, so priority
// evaluation — the hottest per-message loop in Table-II-scale sweeps —
// reads one row instead of chasing a Node* and an IntermeetingEstimator
// per call. hot_mean_intermeeting and
// IntermeetingEstimator::mean_intermeeting both evaluate
// intermeeting_mean on the same scalars, so the mirrored path is
// bit-identical to the member-function path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dtn {

/// The scalars E(I) is computed from (DESIGN.md §4): completed-gap count
/// and mean, closed and open exposure, and the estimator configuration.
struct IntermeetingScalars {
  std::uint64_t events = 0;       ///< completed intermeeting gaps
  std::uint64_t min_samples = 4;  ///< gaps needed before leaving the prior
  double prior = 30000.0;         ///< E(I) assumed until then
  bool naive = false;             ///< naive-mean mode (else censored MLE)
  double naive_mean = 0.0;        ///< mean of the completed gaps
  double closed_exposure = 0.0;   ///< Σ completed gaps
  std::uint64_t open_count = 0;   ///< peers awaiting re-meet
  double open_since_sum = 0.0;    ///< Σ last_end over open gaps
};

/// E(I) at time `now`: the prior before warm-up, then the naive mean of
/// completed gaps or the censored MLE exposure / events, where open
/// intervals contribute the time each not-yet-re-met peer has waited.
/// The one formula both estimator paths use; the golden digest pins
/// depend on its exact operation order.
inline double intermeeting_mean(const IntermeetingScalars& s, double now) {
  if (s.events < s.min_samples) return s.prior;
  if (s.naive) return s.naive_mean > 0.0 ? s.naive_mean : s.prior;
  const double open_exposure =
      static_cast<double>(s.open_count) * now - s.open_since_sum;
  const double exposure = s.closed_exposure + std::max(0.0, open_exposure);
  const double events = static_cast<double>(s.events);
  const double mean = exposure / events;
  return mean > 0.0 ? mean : s.prior;
}

struct NodeHotState {
  std::vector<std::uint8_t> radio_busy;
  std::vector<std::int64_t> buffer_used;
  std::vector<std::int64_t> buffer_cap;
  std::vector<std::uint64_t> buffer_rev;
  std::vector<std::uint8_t> up;            ///< fault mirror; 1 when healthy
  std::vector<double> range_factor;        ///< fault mirror; 1.0 nominal
  std::vector<double> bitrate_factor;     ///< fault mirror; 1.0 nominal

  /// Intermeeting-estimator mirrors (written through by the bound
  /// estimator on every contact event, on bind and on restore).
  std::vector<IntermeetingScalars> imt;

  std::size_t size() const { return radio_busy.size(); }

  void add_node(std::int64_t capacity_bytes) {
    radio_busy.push_back(0);
    buffer_used.push_back(0);
    buffer_cap.push_back(capacity_bytes);
    buffer_rev.push_back(0);
    up.push_back(1);
    range_factor.push_back(1.0);
    bitrate_factor.push_back(1.0);
    imt.emplace_back();
  }

  void reserve(std::size_t n) {
    radio_busy.reserve(n);
    buffer_used.reserve(n);
    buffer_cap.reserve(n);
    buffer_rev.reserve(n);
    up.reserve(n);
    range_factor.reserve(n);
    bitrate_factor.reserve(n);
    imt.reserve(n);
  }
};

/// E(I) of node `id` from its mirror row.
inline double hot_mean_intermeeting(const NodeHotState& h, std::size_t id,
                                    double now) {
  return intermeeting_mean(h.imt[id], now);
}

}  // namespace dtn
