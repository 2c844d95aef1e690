// Checkpoint/restore of a running simulation.
//
// A checkpoint file is a framed archive (archive.hpp) holding
//   * the scenario, embedded as Settings text — a checkpoint is
//     self-describing and can be restored without the original config;
//   * the World's complete dynamic state (World::save_state);
//   * an optional caller-defined "extra" payload (e.g. observer state a
//     harness needs to resume exactly — see run_scenario's delivered-rows).
//
// Restore rebuilds the structure (nodes, router, policy, capacities) from
// the embedded scenario via build_world, then overwrites the dynamic state
// — so a restored world is bit-for-bit the saved one: running it to the
// end yields the same digest and metrics as the uninterrupted run.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "src/config/scenario.hpp"
#include "src/snapshot/archive.hpp"

namespace dtn::snapshot {

/// Hooks for harness-owned state that must survive a checkpoint together
/// with the world (observers are outside the World and not serialized by
/// World::save_state).
using ExtraWriter = std::function<void(ArchiveWriter&)>;
using ExtraReader = std::function<void(ArchiveReader&)>;

/// Serializes scenario + world (+ optional extra) into `out`.
void save_world(ArchiveWriter& out, const Scenario& sc, const World& world,
                const ExtraWriter& extra = {});

/// Reads a stream produced by save_world: rebuilds a fresh World from the
/// embedded scenario and loads the dynamic state into it.
struct RestoredWorld {
  Scenario scenario;
  std::unique_ptr<World> world;
};
RestoredWorld restore_world(ArchiveReader& in, const ExtraReader& extra = {});

/// Same stream, restored into an already-built world. `world` must be
/// structurally identical to the one the stream was saved from (same
/// scenario); returns the embedded scenario for verification by the caller.
Scenario restore_world_into(ArchiveReader& in, World& world,
                            const ExtraReader& extra = {});

/// Framed-file convenience wrappers (atomic write, validated read).
void save_checkpoint(const std::string& path, const Scenario& sc,
                     const World& world, const ExtraWriter& extra = {});
RestoredWorld restore_checkpoint(const std::string& path,
                                 const ExtraReader& extra = {});

}  // namespace dtn::snapshot
