#include "src/snapshot/checkpoint.hpp"

#include "src/util/error.hpp"

namespace dtn::snapshot {

void save_world(ArchiveWriter& out, const Scenario& sc, const World& world,
                const ExtraWriter& extra) {
  out.begin_section("checkpoint");
  out.str(sc.to_settings().to_text());
  world.save_state(out);
  out.boolean(static_cast<bool>(extra));
  if (extra) {
    out.begin_section("extra");
    extra(out);
    out.end_section();
  }
  out.end_section();
}

namespace {

// Opens the checkpoint section and reads the embedded scenario.
Scenario read_scenario(ArchiveReader& in) {
  in.begin_section("checkpoint");
  return Scenario::from_settings(Settings::parse(in.str()));
}

// Loads the dynamic state and the extra payload and closes the section.
void read_state(ArchiveReader& in, World& world, const ExtraReader& extra) {
  world.load_state(in);
  const bool has_extra = in.boolean();
  DTN_REQUIRE(has_extra == static_cast<bool>(extra),
              "checkpoint: extra payload presence does not match reader");
  if (has_extra) {
    in.begin_section("extra");
    extra(in);
    in.end_section();
  }
  in.end_section();
}

}  // namespace

RestoredWorld restore_world(ArchiveReader& in, const ExtraReader& extra) {
  RestoredWorld r;
  r.scenario = read_scenario(in);
  r.world = build_world(r.scenario);
  read_state(in, *r.world, extra);
  return r;
}

Scenario restore_world_into(ArchiveReader& in, World& world,
                            const ExtraReader& extra) {
  Scenario sc = read_scenario(in);
  DTN_REQUIRE(sc.n_nodes == world.node_count(),
              "checkpoint: scenario does not match the target world");
  read_state(in, world, extra);
  return sc;
}

void save_checkpoint(const std::string& path, const Scenario& sc,
                     const World& world, const ExtraWriter& extra) {
  ArchiveWriter w(ArchiveWriter::Mode::kBuffer);
  save_world(w, sc, world, extra);
  write_archive_file(path, w);
}

RestoredWorld restore_checkpoint(const std::string& path,
                                 const ExtraReader& extra) {
  ArchiveReader r = read_archive_file(path);
  return restore_world(r, extra);
}

}  // namespace dtn::snapshot
