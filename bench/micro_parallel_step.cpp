// Intra-step parallelism microbenchmark: Table II RWP at growing fleet
// sizes, the task-graph step (DESIGN.md §16) on one inline lane
// (Parallel.threads = 0) vs 2/4/8 lanes, for FIFO and SDSRP. Extra lanes
// are decision-identical by construction, so every (N, policy, threads)
// cell also compares its end-of-run digest against the one-lane
// baseline — `parallel_digest_matches_one_lane` in the JSON is the AND
// over every cell and is gated by CI. `hardware_threads` records the
// measurement box: throughput numbers are only meaningful relative to
// it, so on a single-hardware-thread container the speedup verdict is
// reported as "skipped" (digest checks still run and still gate).
//
// Each cell also carries a per-phase wall-time breakdown from the
// World's in-band phase profiler (WorldConfig.profile_phases): at one
// lane the graph nodes stamp mobility/contacts/events/ttl, plus
// transfers; with more lanes the phases overlap, so the profile reports
// dispatch (one task-graph run covering everything up to transfers) +
// transfers. The stamps are taken inside the measured run; the one-lane
// side takes more of them (one per graph node and per 64-node mobility
// chunk, vs two per step), so reported speedups are marginally
// conservative.
//
//   ./micro_parallel_step [warm_s] [measure_s] [out.json]
//
// Writes a JSON report (default BENCH_parallel_step.json); the committed
// copy at the repo root is produced with the default full horizons.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/fig_common.hpp"
#include "src/config/scenario.hpp"

namespace {

struct RunResult {
  double steps_per_sec = 0.0;
  double wall_s = 0.0;
  std::size_t delivered = 0;
  std::uint64_t digest = 0;
  dtn::PhaseProfile phases;  ///< measured window only (warmup subtracted)
};

dtn::PhaseProfile profile_delta(const dtn::PhaseProfile& a,
                                const dtn::PhaseProfile& b) {
  dtn::PhaseProfile d;
  d.mobility_s = b.mobility_s - a.mobility_s;
  d.contacts_s = b.contacts_s - a.contacts_s;
  d.events_s = b.events_s - a.events_s;
  d.ttl_s = b.ttl_s - a.ttl_s;
  d.transfers_s = b.transfers_s - a.transfers_s;
  d.dispatch_s = b.dispatch_s - a.dispatch_s;
  d.steps = b.steps - a.steps;
  return d;
}

RunResult run_one(std::size_t nodes, const std::string& policy,
                  std::size_t threads, double warm_s, double measure_s) {
  dtn::Scenario sc = dtn::Scenario::random_waypoint_paper();
  sc.n_nodes = nodes;
  sc.policy = policy;
  sc.world.threads = threads;
  sc.world.duration = warm_s + measure_s;
  sc.world.profile_phases = true;
  auto world = dtn::build_world(sc);
  world->run_until(warm_s);
  const dtn::PhaseProfile warm = world->phase_profile();
  const auto t0 = std::chrono::steady_clock::now();
  world->run_until(warm_s + measure_s);
  const auto t1 = std::chrono::steady_clock::now();
  RunResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  const double steps = measure_s / sc.world.step;
  r.steps_per_sec = r.wall_s > 0.0 ? steps / r.wall_s : 0.0;
  r.delivered = world->stats().delivered;
  r.digest = world->digest();
  r.phases = profile_delta(warm, world->phase_profile());
  return r;
}

std::string phases_json(const dtn::PhaseProfile& p, bool many_lanes) {
  std::string s = "{";
  if (many_lanes) {
    s += "\"dispatch_s\": " + std::to_string(p.dispatch_s) + ", ";
  } else {
    s += "\"mobility_s\": " + std::to_string(p.mobility_s) +
         ", \"contacts_s\": " + std::to_string(p.contacts_s) +
         ", \"events_s\": " + std::to_string(p.events_s) +
         ", \"ttl_s\": " + std::to_string(p.ttl_s) + ", ";
  }
  s += "\"transfers_s\": " + std::to_string(p.transfers_s) +
       ", \"stepped\": " + std::to_string(p.steps) + "}";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const double warm_s = argc > 1 ? std::strtod(argv[1], nullptr) : 300.0;
  const double measure_s = argc > 2 ? std::strtod(argv[2], nullptr) : 1500.0;
  const std::string out_path = argc > 3 ? argv[3] : "BENCH_parallel_step.json";

  const std::vector<std::size_t> fleet_sizes{126, 500, 2000};
  const std::vector<std::string> policies{"fifo", "sdsrp"};
  const std::vector<std::size_t> thread_counts{2, 4, 8};
  const unsigned hw = std::thread::hardware_concurrency();
  // One hardware thread cannot run helper lanes concurrently: wall-clock
  // speedup is physically unobservable there, so the verdict is skipped
  // (not failed). Digest equivalence is machine-independent and always
  // checked.
  const bool speedup_meaningful = hw >= 2;

  std::cout << "Table II RWP parallel step, warm " << warm_s << " s, measure "
            << measure_s << " s, hardware threads " << hw
            << (speedup_meaningful ? "" : " (speedup verdicts skipped)")
            << "\n";

  bool all_digests_match = true;
  std::string rows;
  for (const std::size_t n : fleet_sizes) {
    for (const std::string& policy : policies) {
      const RunResult one_lane = run_one(n, policy, 0, warm_s, measure_s);
      std::cout << "  N=" << n << " " << policy << ": one lane "
                << one_lane.steps_per_sec << " steps/s\n";
      for (const std::size_t threads : thread_counts) {
        const RunResult par = run_one(n, policy, threads, warm_s, measure_s);
        const bool match = par.digest == one_lane.digest;
        all_digests_match = all_digests_match && match;
        const double speedup =
            one_lane.steps_per_sec > 0.0
                ? par.steps_per_sec / one_lane.steps_per_sec
                : 0.0;
        std::cout << "    threads=" << threads << ": "
                  << par.steps_per_sec << " steps/s, speedup ";
        if (speedup_meaningful) {
          std::cout << speedup << "x";
        } else {
          std::cout << "(skipped: 1 hardware thread)";
        }
        std::cout << ", digest " << (match ? "match" : "MISMATCH") << "\n";
        if (!rows.empty()) rows += ",\n";
        rows += "    {\"nodes\": " + std::to_string(n) + ", \"policy\": \"" +
                policy + "\", \"threads\": " + std::to_string(threads) +
                ", \"one_lane_steps_per_sec\": " +
                std::to_string(one_lane.steps_per_sec) +
                ", \"parallel_steps_per_sec\": " +
                std::to_string(par.steps_per_sec) +
                ", \"speedup\": " + std::to_string(speedup) +
                ", \"speedup_verdict\": \"" +
                (speedup_meaningful ? "measured" : "skipped") +
                "\", \"delivered\": " + std::to_string(par.delivered) +
                ", \"digest_match\": " + (match ? "true" : "false") +
                ",\n     \"one_lane_phases\": " +
                phases_json(one_lane.phases, /*many_lanes=*/false) +
                ",\n     \"parallel_phases\": " +
                phases_json(par.phases, /*many_lanes=*/true) + "}";
      }
    }
  }

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"scenario\": \"rwp-paper\",\n"
      << "  \"warm_s\": " << warm_s << ",\n"
      << "  \"measure_s\": " << measure_s << ",\n"
      << "  \"speedup_verdicts\": \""
      << (speedup_meaningful ? "measured" : "skipped") << "\",\n"
      << dtn::bench::bench_env_json_fields()
      << "  \"results\": [\n"
      << rows << "\n"
      << "  ],\n"
      << "  \"parallel_digest_matches_one_lane\": "
      << (all_digests_match ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return all_digests_match ? 0 : 1;
}
