// Sweep manifest: the full, canonical description of a fleet-scale sweep
// — sweep points (scenarios), replica count, and the fixed shard size
// that partitions the point × replica run grid into contiguous,
// canonically numbered shards. The manifest is what coordinator and
// worker *processes* agree on: both sides load the same text file, so a
// shard index alone identifies the exact runs (scenario, seed, label) a
// worker must execute.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/report/sweep.hpp"

namespace dtn::orch {

struct SweepManifest {
  std::string name = "sweep";
  std::size_t replicas = 1;    ///< runs per point (seeds seed..seed+R-1)
  std::size_t shard_size = 16; ///< runs per shard (last shard may be short)
  std::vector<SweepPoint> points;

  /// Canonical run numbering: run = point_index * replicas + replica.
  std::size_t total_runs() const { return points.size() * replicas; }
  std::size_t shard_count() const;

  struct RunRef {
    std::size_t point = 0;
    std::size_t replica = 0;
  };
  RunRef run_ref(std::size_t run_index) const;

  /// The fully-specified scenario of one run (seed bumped by replica).
  Scenario scenario_for(std::size_t run_index) const;

  /// Checkpoint-file label "p<point>_" of one run, so runs of the same
  /// scenario at different sweep points keep separate resume files.
  std::string label_for(std::size_t run_index) const;

  /// Half-open run range [first, last) of a shard.
  std::pair<std::size_t, std::size_t> shard_runs(std::size_t shard) const;

  /// Text round-trip (scenario blocks embed their Settings text).
  std::string to_text() const;
  static SweepManifest from_text(const std::string& text);
  void save(const std::string& path) const;
  static SweepManifest load(const std::string& path);

  /// Validates invariants (nonempty points, positive replicas/shard size).
  void validate() const;
};

}  // namespace dtn::orch
