// Repository benchmark driver (see BENCHMARK.json for the workloads and
// metrics, run.py for how it is built and invoked).
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --pins FILE --work DIR [--describe TEXT]
//   perfbench_driver --workload W --seed N --print-scenario
//
// One process, at most two simulation threads. The library is driven only
// through its public calls: build_world, World::step / run_until,
// orch::run_sweep_inprocess (untraced sweeps; the traced sweep runs the
// same shards through orch::run_shard so each shard can be timed),
// snapshot::save_checkpoint and World::digest. Every timing is host time;
// simulated statistics only gate correctness or label the regime.
//
// --trace 0 repeats the workload's op (one simulation run, or one whole
// sweep for table2-sweep) until --seconds of host time are used, gates
// every op against the pinned digest, and prints the end-to-end metrics
// as medians over ops. --trace 1 runs the traced variant of the op, with
// spans around each public call, between two untraced ops, and prints the
// per-layer metrics (0 for a layer the workload does not exercise). The
// last stdout line is the result object; earlier lines starting with '#'
// carry the world/machine stamp and per-op details.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/config/scenario.hpp"
#include "src/orch/manifest.hpp"
#include "src/orch/shard_store.hpp"
#include "src/orch/worker.hpp"
#include "src/report/observers.hpp"
#include "src/report/sweep.hpp"
#include "src/snapshot/archive.hpp"
#include "src/snapshot/checkpoint.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/units.hpp"

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- inputs

constexpr const char* kTable2 = "table2-sweep";
constexpr const char* kDense = "dense-2000";

constexpr std::size_t kSweepLanes = 2;
constexpr double kSweepCkptIntervalS = 600.0;  // dtn_sweepd's default
constexpr std::size_t kSweepShardSize = 4;     // dtn_sweepd gen-table2's
/// Sweep set-up is milliseconds of file work, so each op repeats it and
/// reports the median.
constexpr std::size_t kSweepPrepares = 9;
constexpr std::size_t kDenseThreads = 2;
constexpr double kDenseWarmS = 300.0;
constexpr double kDenseMeasureS = 1500.0;
/// Simulated seconds between untraced active-contact samples (stamp only).
constexpr double kContactSampleS = 60.0;

/// Scenario seed of world `k` of run `seed`: dense-2000 runs world 0, and
/// a table2-sweep op gives each of its seven buffer sizes its own world.
std::uint64_t world_seed(std::uint64_t seed, std::size_t k) {
  return seed * 1000 + k;
}

const std::vector<std::string>& paper_policies() {
  static const std::vector<std::string> p = {"fifo", "ttl-ratio",
                                             "copies-ratio", "sdsrp"};
  return p;
}

const std::vector<double>& table2_buffers_mb() {
  static const std::vector<double> b = {2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0};
  return b;
}

/// N=2000 in the Table II area; warm-up plus a measured window.
dtn::Scenario dense_scenario(std::uint64_t seed, std::size_t threads) {
  dtn::Scenario sc = dtn::Scenario::random_waypoint_paper();
  sc.name = "rwp-dense-2000";
  sc.n_nodes = 2000;
  sc.policy = "sdsrp";
  sc.seed = seed;
  sc.world.threads = threads;
  sc.world.duration = kDenseWarmS + kDenseMeasureS;
  return sc;
}

/// Table II: seven buffer sizes x four policies, buffer-major so every
/// shard of four runs holds one buffer size under all four policies, on
/// one world per buffer size.
dtn::orch::SweepManifest table2_manifest(std::uint64_t seed) {
  dtn::orch::SweepManifest m;
  m.name = "table2-buffer-x-policy";
  m.replicas = 1;
  m.shard_size = kSweepShardSize;
  for (std::size_t b = 0; b < table2_buffers_mb().size(); ++b) {
    const double mb = table2_buffers_mb()[b];
    for (const std::string& policy : paper_policies()) {
      dtn::SweepPoint p;
      p.x = mb;
      p.scenario = dtn::Scenario::random_waypoint_paper();
      p.scenario.policy = policy;
      p.scenario.buffer_capacity = dtn::units::megabytes(mb);
      p.scenario.seed = world_seed(seed, b);
      p.scenario.world.threads = 0;
      m.points.push_back(std::move(p));
    }
  }
  return m;
}

// ------------------------------------------------------------------ pins

using PinKey = std::pair<std::string, std::uint64_t>;

/// Pin file lines: `<workload> <seed> <16 hex digits>`; '#' starts a
/// comment.
std::map<PinKey, std::uint64_t> load_pins(const std::string& path) {
  std::map<PinKey, std::uint64_t> pins;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pin file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, hex;
    std::uint64_t seed = 0;
    if (!(ls >> workload >> seed >> hex)) {
      throw std::runtime_error("malformed pin line: " + line);
    }
    pins[{workload, seed}] = std::stoull(hex, nullptr, 16);
  }
  return pins;
}

/// Correctness gate of one run's ops: the pinned digest when the seed
/// is pinned, else the first op's digest (a deterministic program gives
/// every op of one run the same digest).
class Gate {
 public:
  Gate(bool pinned, std::uint64_t pin)
      : pinned_(pinned), have_(pinned), expect_(pin) {}

  bool pinned() const { return pinned_; }

  /// Returns an empty string when `digest` passes, else the reason.
  std::string check(std::uint64_t digest) {
    if (!have_) {
      have_ = true;
      expect_ = digest;
      return {};
    }
    if (digest == expect_) return {};
    return "digest " + hex64(digest) + " != expected " + hex64(expect_) +
           (pinned_ ? " (pin)" : " (first op of this run)");
  }

 private:
  const bool pinned_;
  bool have_;
  std::uint64_t expect_;
};

// ---------------------------------------------------------------- tracer

/// In-memory spans (name, start, end, parent), written out at exit.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int begin(const char* name, int parent = -1) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, t, t});
    return static_cast<int>(spans_.size() - 1);
  }
  /// Ends span `id`; returns its duration in seconds.
  double end(int id) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
    return t - spans_[static_cast<std::size_t>(id)].start;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":" << json_str(s.name)
          << ",\"parent\":" << s.parent << ",\"start_s\":" << json_num(s.start)
          << ",\"end_s\":" << json_num(s.end) << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  struct Span {
    const char* name;
    int parent;
    double start;
    double end;
  };
  double now() const { return seconds_between(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// --------------------------------------------------------- untraced ops

struct OpResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t digest = 0;
  double contacts_mean = 0.0;  ///< stamp only (0 when not observable)
  std::string error;           ///< empty = passed the gate
};

/// Cheap invariants every finished run must satisfy.
std::string stats_error(const dtn::SimStats& s) {
  if (s.created == 0) return "no message was created";
  if (s.delivered > s.created) return "delivered > created";
  if (s.transfers_completed > s.transfers_started) {
    return "transfers completed > started";
  }
  return {};
}

/// Runs `world` to `end` in kContactSampleS chunks (contact sampling for
/// the stamp; run_until's result does not depend on the chunking).
double run_sampled(dtn::World& world, double end) {
  double sum = 0.0;
  std::size_t n = 0;
  while (world.now() + world.config().step <= end + 1e-9) {
    world.run_until(std::min(end, world.now() + kContactSampleS));
    sum += static_cast<double>(world.active_contacts().size());
    ++n;
  }
  return n != 0 ? sum / static_cast<double>(n) : 0.0;
}

/// A single-world op: build (+ warm-up) is set-up, the rest is measured.
OpResult world_op(const dtn::Scenario& sc, double warm_s) {
  OpResult r;
  const auto t0 = Clock::now();
  auto world = dtn::build_world(sc);
  if (warm_s > 0.0) world->run_until(warm_s);
  const auto t1 = Clock::now();
  const double c1 = cpu_seconds();
  r.contacts_mean = run_sampled(*world, sc.world.duration);
  const auto t2 = Clock::now();
  r.cpu_s = cpu_seconds() - c1;
  r.setup_s = seconds_between(t0, t1);
  r.wall_s = seconds_between(t1, t2);
  r.digest = world->digest();
  if (world->now() + sc.world.step <= sc.world.duration + 1e-9) {
    r.error = "short run: stopped at t=" + std::to_string(world->now());
  } else {
    r.error = stats_error(world->stats());
  }
  return r;
}

std::uint64_t file_fnv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  dtn::snapshot::Fnv1a h;
  char buf[65536];
  while (in) {
    in.read(buf, sizeof buf);
    h.update(buf, static_cast<std::size_t>(in.gcount()));
  }
  return h.digest();
}

std::string sweep_result_error(const dtn::orch::SweepManifest& m,
                               const std::vector<dtn::ReplicatedMetrics>& a) {
  if (a.size() != m.points.size()) return "aggregate count mismatch";
  for (const auto& agg : a) {
    if (agg.delivery_ratio.count() != m.replicas) return "short sweep point";
    const double d = agg.delivery_ratio.mean();
    if (!(d > 0.0 && d <= 1.0)) return "delivery ratio out of (0, 1]";
  }
  return {};
}

/// Set-up of one sweep op: an empty sweep directory and the manifest
/// written and loaded back, as dtn_sweepd's gen-table2 + run do.
dtn::orch::SweepManifest prepare_sweep(std::uint64_t seed,
                                       const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/manifest.txt";
  table2_manifest(seed).save(path);
  dtn::orch::SweepManifest m = dtn::orch::SweepManifest::load(path);
  m.validate();
  return m;
}

OpResult sweep_op(std::uint64_t seed, const std::string& dir) {
  OpResult r;
  dtn::orch::SweepManifest m;
  std::vector<double> prepares;
  for (std::size_t i = 0; i < kSweepPrepares; ++i) {
    const auto t0 = Clock::now();
    m = prepare_sweep(seed, dir);
    prepares.push_back(seconds_between(t0, Clock::now()));
  }
  r.setup_s = median(prepares);
  const auto t1 = Clock::now();
  const double c1 = cpu_seconds();
  dtn::orch::InProcessOptions opts;
  opts.lanes = kSweepLanes;
  opts.ckpt_interval_s = kSweepCkptIntervalS;
  opts.keep_files = false;
  opts.sim_threads = 0;
  const auto aggs = dtn::orch::run_sweep_inprocess(m, dir, opts);
  const auto t2 = Clock::now();
  r.cpu_s = cpu_seconds() - c1;
  r.wall_s = seconds_between(t1, t2);
  r.digest = file_fnv(dtn::orch::results_path(dir));
  r.error = sweep_result_error(m, aggs);
  fs::remove_all(dir);
  return r;
}

// ----------------------------------------------------------- traced runs

/// Per-layer observations of one traced world run.
struct TracedRun {
  double build_s = 0.0;
  std::vector<double> step_s;  ///< one sample per World::step span
  double window_wall_s = 0.0;  ///< steps after warm-up
  double window_cpu_s = 0.0;
  dtn::PhaseProfile phases;    ///< window only
  std::size_t updates = 0;     ///< tracker updates, window only
  std::size_t full_passes = 0;
  double contacts_mean = 0.0;
  dtn::SimStats stats;
  std::size_t slabs = 0;
  double known_records_mean = 0.0;
  std::vector<double> save_s;  ///< save_checkpoint spans
  std::uint64_t digest = 0;
  std::string error;
};

dtn::PhaseProfile phase_delta(const dtn::PhaseProfile& a,
                              const dtn::PhaseProfile& b) {
  dtn::PhaseProfile d;
  d.mobility_s = b.mobility_s - a.mobility_s;
  d.contacts_s = b.contacts_s - a.contacts_s;
  d.events_s = b.events_s - a.events_s;
  d.ttl_s = b.ttl_s - a.ttl_s;
  d.prewarm_s = b.prewarm_s - a.prewarm_s;
  d.transfers_s = b.transfers_s - a.transfers_s;
  d.dispatch_s = b.dispatch_s - a.dispatch_s;
  d.steps = b.steps - a.steps;
  return d;
}

double serial_phase_sum(const dtn::PhaseProfile& p) {
  return p.mobility_s + p.contacts_s + p.events_s + p.ttl_s + p.prewarm_s +
         p.transfers_s + p.dispatch_s;
}

/// Builds and runs `sc` one World::step at a time with phase profiling on.
/// With `ckpt_path` set, it runs as a sweep worker does: a delivered-
/// messages report observes the world and every kSweepCkptIntervalS
/// simulated seconds a checkpoint is saved with the report's rows. The
/// last checkpoint is gated: it must restore to the digest and row count
/// the world and report had when it was saved.
TracedRun traced_run(dtn::Scenario sc, double warm_s, Tracer& tr, int parent,
                     const std::string& ckpt_path = "") {
  TracedRun r;
  sc.world.profile_phases = true;
  dtn::DeliveredMessagesReport delivered;
  const int run_span = tr.begin("traced_run", parent);
  const int b = tr.begin("build_world", run_span);
  auto world = dtn::build_world(sc);
  r.build_s = tr.end(b);
  if (!ckpt_path.empty()) world->add_observer(&delivered);
  if (warm_s > 0.0) {
    const int w = tr.begin("World::run_until(warm-up)", run_span);
    world->run_until(warm_s);
    tr.end(w);
  }
  const dtn::PhaseProfile p0 = world->phase_profile();
  const std::size_t u0 = world->contacts().update_count();
  const std::size_t f0 = world->contacts().full_pass_count();
  const double step = sc.world.step;
  const double end = sc.world.duration;
  double next_ckpt = warm_s + kSweepCkptIntervalS;
  std::uint64_t last_saved_digest = 0;
  std::size_t last_saved_rows = 0;
  double contact_sum = 0.0;
  r.step_s.reserve(static_cast<std::size_t>((end - warm_s) / step) + 1);
  const auto t0 = Clock::now();
  const double c0 = cpu_seconds();
  while (world->now() + step <= end + 1e-9) {
    const int s = tr.begin("World::step", run_span);
    world->step();
    r.step_s.push_back(tr.end(s));
    contact_sum += static_cast<double>(world->active_contacts().size());
    if (!ckpt_path.empty() && world->now() + 1e-9 >= next_ckpt &&
        world->now() + step <= end + 1e-9) {
      next_ckpt += kSweepCkptIntervalS;
      const int c = tr.begin("snapshot::save_checkpoint", run_span);
      dtn::snapshot::save_checkpoint(
          ckpt_path, sc, *world,
          [&delivered](dtn::snapshot::ArchiveWriter& out) {
            delivered.save_state(out);
          });
      r.save_s.push_back(tr.end(c));
      last_saved_digest = world->digest();
      last_saved_rows = delivered.rows().size();
    }
  }
  r.window_wall_s = seconds_between(t0, Clock::now());
  r.window_cpu_s = cpu_seconds() - c0;
  tr.end(run_span);
  r.phases = phase_delta(p0, world->phase_profile());
  r.updates = world->contacts().update_count() - u0;
  r.full_passes = world->contacts().full_pass_count() - f0;
  r.contacts_mean =
      r.step_s.empty() ? 0.0 : contact_sum / static_cast<double>(r.step_s.size());
  r.stats = world->stats();
  r.slabs = world->arena().slab_count();
  double known = 0.0;
  for (std::size_t i = 0; i < world->node_count(); ++i) {
    known += static_cast<double>(
        world->node(static_cast<dtn::NodeId>(i)).dropped_list().known_records());
  }
  r.known_records_mean = known / static_cast<double>(world->node_count());
  const int d = tr.begin("World::digest", parent);
  r.digest = world->digest();
  tr.end(d);
  r.error = stats_error(r.stats);
  if (!ckpt_path.empty() && r.error.empty()) {
    if (r.save_s.empty()) {
      r.error = "no checkpoint was saved";
    } else {
      dtn::DeliveredMessagesReport reloaded;
      const auto restored = dtn::snapshot::restore_checkpoint(
          ckpt_path, [&reloaded](dtn::snapshot::ArchiveReader& in) {
            reloaded.load_state(in);
          });
      if (restored.world->digest() != last_saved_digest) {
        r.error = "checkpoint restored to a different digest";
      } else if (reloaded.rows().size() != last_saved_rows) {
        r.error = "checkpoint restored a different delivered-report row count";
      }
    }
    fs::remove(ckpt_path);
  }
  return r;
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunReport {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> stamp;  ///< key, JSON value

  void op(const std::string& label, const std::string& error,
          const std::string& detail) {
    ++attempted;
    if (!error.empty()) ++failed;
    std::cout << "# op " << label << " " << (error.empty() ? "ok" : "FAILED: " + error)
              << " " << detail << "\n";
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void stamp_str(const std::string& k, const std::string& v) {
    stamp.emplace_back(k, json_str(v));
  }
  void stamp_num(const std::string& k, double v) {
    stamp.emplace_back(k, json_num(v));
  }

  void print() const {
    std::cout << "# stamp {";
    for (std::size_t i = 0; i < stamp.size(); ++i) {
      std::cout << (i ? ", " : "") << json_str(stamp[i].first) << ": "
                << stamp[i].second;
    }
    std::cout << "}\n";
    std::cout << "{\"correct\": " << (failed == 0 && attempted > 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::cout << (i ? ", " : "") << json_str(metrics[i].name)
                << ": {\"value\": " << json_num(metrics[i].value)
                << ", \"unit\": " << json_str(metrics[i].unit) << "}";
    }
    std::cout << "}}\n" << std::flush;
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string pins;
  std::string work;
  std::string describe = "unknown";
  bool print_scenario = false;
};

std::string op_detail(const OpResult& r) {
  return "{\"setup_s\": " + json_num(r.setup_s) + ", \"wall_s\": " +
         json_num(r.wall_s) + ", \"cpu_s\": " + json_num(r.cpu_s) +
         ", \"digest\": \"" + hex64(r.digest) + "\"}";
}

/// World and machine stamp shared by both modes.
void stamp_world(RunReport& rep, const Args& a, bool pinned) {
  std::size_t n = 0;
  double w = 0.0, h = 0.0;
  std::string policies, lanes = "1", sim_threads = "0";
  if (a.workload == kTable2) {
    const dtn::Scenario sc = dtn::Scenario::random_waypoint_paper();
    n = sc.n_nodes;
    w = sc.rwp.area.width();
    h = sc.rwp.area.height();
    for (const auto& p : paper_policies()) policies += (policies.empty() ? "" : ",") + p;
    lanes = std::to_string(kSweepLanes);
  } else {
    const dtn::Scenario sc = dense_scenario(a.seed, kDenseThreads);
    n = sc.n_nodes;
    w = sc.rwp.area.width();
    h = sc.rwp.area.height();
    policies = "sdsrp";
    sim_threads = std::to_string(kDenseThreads);
  }
  rep.stamp_str("workload", a.workload);
  rep.stamp_num("seed", static_cast<double>(a.seed));
  rep.stamp_str("gate", pinned ? "pinned digests"
                               : "unpinned seed: ops of one run must agree");
  rep.stamp_num("nodes", static_cast<double>(n));
  rep.stamp_str("area_m", json_num(w) + "x" + json_num(h));
  rep.stamp_num("density_per_km2", static_cast<double>(n) / (w * h * 1e-6));
  rep.stamp_str("policy_mix", policies);
  rep.stamp_str("sweep_lanes", lanes);
  rep.stamp_str("sim_threads", sim_threads);
  rep.stamp_num("hardware_threads", std::thread::hardware_concurrency());
  rep.stamp_str("source", a.describe);
  rep.stamp_str("build_type", PERFBENCH_BUILD_TYPE);
  rep.stamp_str("compiler", __VERSION__);
}

// ------------------------------------------------------------ untraced

/// One op, gated; an exception fails the op.
OpResult gated_op(const Args& a, Gate& gate) {
  OpResult r;
  try {
    if (a.workload == kTable2) {
      r = sweep_op(a.seed, a.work + "/sweep");
    } else {
      r = world_op(dense_scenario(world_seed(a.seed, 0), kDenseThreads), kDenseWarmS);
    }
    if (r.error.empty()) r.error = gate.check(r.digest);
  } catch (const std::exception& e) {
    r.error = std::string("exception: ") + e.what();
  }
  return r;
}

/// Medians over the run's passing ops: the median shrugs off a stalled op.
void run_untraced(const Args& a, Gate& gate, RunReport& rep) {
  std::vector<double> setup, wall, cpu, contacts;
  const auto start = Clock::now();
  double last_op_s = 0.0;
  // Ops until the next one would overrun the budget; the first always runs.
  do {
    const auto op_start = Clock::now();
    const OpResult r = gated_op(a, gate);
    rep.op(a.workload, r.error, op_detail(r));
    if (r.error.empty()) {
      setup.push_back(r.setup_s);
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
      contacts.push_back(r.contacts_mean);
    }
    last_op_s = seconds_between(op_start, Clock::now());
  } while (seconds_between(start, Clock::now()) + last_op_s <= a.seconds);
  rep.add("wall_s", median(wall), "s");
  rep.add("cpu_s", median(cpu), "s");
  rep.add("setup_s", median(setup), "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.stamp_num("ops_passed", static_cast<double>(wall.size()));
  if (a.workload != kTable2) {
    rep.stamp_num("mean_active_contacts", mean(contacts));
  }
}

/// The sweep's worlds are not visible through run_sweep_inprocess, so the
/// stamp's contact count comes from one unmeasured 1800 s run of the same
/// mobility (contacts depend on mobility only, not on the policy).
void stamp_sweep_contacts(const Args& a, RunReport& rep) {
  dtn::Scenario sc = dtn::Scenario::random_waypoint_paper();
  sc.seed = world_seed(a.seed, 0);
  sc.policy = "fifo";
  sc.world.duration = 1800.0;
  auto world = dtn::build_world(sc);
  rep.stamp_num("mean_active_contacts", run_sampled(*world, sc.world.duration));
}

// -------------------------------------------------------------- traced

/// Every per-layer metric, zero until a workload that exercises the layer
/// sets it (the unit table is the single source of names and units).
class LayerMetrics {
 public:
  LayerMetrics() {
    for (const auto& [name, unit] : kUnits) values_[name] = 0.0;
  }
  void set(const std::string& name, double v) {
    if (values_.count(name) == 0) throw std::logic_error("unknown metric " + name);
    values_[name] = v;
  }
  /// Fills the layers every traced world run reports.
  void set_world(const TracedRun& r) {
    std::vector<double> us;
    us.reserve(r.step_s.size());
    for (double s : r.step_s) us.push_back(s * 1e6);
    set("world.step_p50_us", quantile(us, 0.50));
    set("world.step_p99_us", quantile(us, 0.99));
    set("world.step_samples", static_cast<double>(us.size()));
    set("world.transfers_s", r.phases.transfers_s);
    set("world.dispatch_s", r.phases.dispatch_s);
    set("net.active_contacts_mean", r.contacts_mean);
    set("net.full_pass_ratio",
        r.updates ? static_cast<double>(r.full_passes) / static_cast<double>(r.updates)
                  : 0.0);
    set("arena.slabs", static_cast<double>(r.slabs));
    set("sdsrp.known_records_mean", r.known_records_mean);
    set("buffer.drops", static_cast<double>(r.stats.drops));
    set("buffer.occupancy_mean", r.stats.buffer_occupancy.mean());
    set("core.transfers_started", static_cast<double>(r.stats.transfers_started));
    set("core.transfers_completed",
        static_cast<double>(r.stats.transfers_completed));
    set("core.transfers_aborted", static_cast<double>(r.stats.transfers_aborted));
  }
  /// Layers only a serial-path profile separates.
  void set_serial(const TracedRun& r) {
    set("mobility.busy_s", r.phases.mobility_s);
    set("net.contacts_s", r.phases.contacts_s);
    double step_wall = 0.0;
    for (double s : r.step_s) step_wall += s;
    set("world.phase_residual_s", step_wall - serial_phase_sum(r.phases));
  }
  void emit(RunReport& rep) const {
    for (const auto& [name, unit] : kUnits) rep.add(name, values_.at(name), unit);
  }

  static const std::vector<std::pair<std::string, std::string>> kUnits;

 private:
  std::map<std::string, double> values_;
};

const std::vector<std::pair<std::string, std::string>> LayerMetrics::kUnits = {
    {"config.build_world_s", "s"},
    {"world.step_p50_us", "us"},
    {"world.step_p99_us", "us"},
    {"world.step_samples", "count"},
    {"world.transfers_s", "s"},
    {"world.dispatch_s", "s"},
    {"world.phase_residual_s", "s"},
    {"task_graph.speedup_vs_serial", "ratio"},
    {"task_graph.cpu_per_wall", "ratio"},
    {"task_graph.serial_wall_s", "s"},
    {"net.contacts_s", "s"},
    {"net.full_pass_ratio", "ratio"},
    {"net.active_contacts_mean", "count"},
    {"mobility.busy_s", "s"},
    {"sdsrp.gossip_s", "s"},
    {"sdsrp.known_records_mean", "count"},
    {"snapshot.checkpoints", "count"},
    {"snapshot.save_ms_p50", "ms"},
    {"snapshot.bytes_mean", "bytes"},
    {"orch.shard_p50_s", "s"},
    {"orch.shard_max_s", "s"},
    {"orch.lane_busy_ratio", "ratio"},
    {"arena.slabs", "count"},
    {"buffer.drops", "count"},
    {"buffer.occupancy_mean", "ratio"},
    {"core.transfers_started", "count"},
    {"core.transfers_completed", "count"},
    {"core.transfers_aborted", "count"},
    {"trace.untraced_wall_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Wall of one untraced op. The tracing overhead compares the
/// traced op with the mean of one such op before it and one after it, so
/// the process's own warm-up and slow host drift cancel.
double untraced_reference(const Args& a, Gate& gate, RunReport& rep) {
  const OpResult r = gated_op(a, gate);
  rep.op("untraced", r.error, op_detail(r));
  return r.wall_s;
}

void trace_dense(const Args& a, Gate& gate, Tracer& tr, LayerMetrics& lm,
                 RunReport& rep) {
  const double ref_before = untraced_reference(a, gate, rep);
  const int root = tr.begin("dense-2000");
  const std::uint64_t seed = world_seed(a.seed, 0);
  const TracedRun par =
      traced_run(dense_scenario(seed, kDenseThreads), kDenseWarmS, tr, root);
  std::string err = par.error.empty() ? gate.check(par.digest) : par.error;
  rep.op("traced-threads-2", err, "{\"digest\": \"" + hex64(par.digest) + "\"}");
  const double ref = 0.5 * (ref_before + untraced_reference(a, gate, rep));
  // Serial baseline: the same world on the serial step path.
  const TracedRun ser = traced_run(dense_scenario(seed, 0), kDenseWarmS, tr, root);
  err = ser.error;
  if (err.empty() && ser.digest != par.digest) {
    err = "serial digest " + hex64(ser.digest) + " != threads-2 digest " +
          hex64(par.digest);
  }
  rep.op("traced-serial-baseline", err, "{\"digest\": \"" + hex64(ser.digest) + "\"}");
  tr.end(root);
  lm.set_world(par);
  lm.set_serial(ser);
  lm.set("config.build_world_s", median({par.build_s, ser.build_s}));
  lm.set("task_graph.speedup_vs_serial",
         par.window_wall_s > 0.0 ? ser.window_wall_s / par.window_wall_s : 0.0);
  lm.set("task_graph.cpu_per_wall",
         par.window_wall_s > 0.0 ? par.window_cpu_s / par.window_wall_s : 0.0);
  lm.set("task_graph.serial_wall_s", ser.window_wall_s);
  lm.set("trace.untraced_wall_s", ref);
  lm.set("trace.overhead_s", par.window_wall_s - ref);
  rep.stamp_num("mean_active_contacts", par.contacts_mean);
}

/// Traced sweep: the manifest's shards run through orch::run_shard on a
/// kSweepLanes-thread pool, as run_sweep_inprocess schedules them, then the
/// same canonical merge; the results file must hash to the gate.
void trace_sweep(const Args& a, Gate& gate, Tracer& tr, LayerMetrics& lm,
                 RunReport& rep) {
  const double ref_before = untraced_reference(a, gate, rep);
  const std::string dir = a.work + "/sweep";
  const int root = tr.begin("table2-sweep");
  const dtn::orch::SweepManifest m = prepare_sweep(a.seed, dir);
  std::vector<double> shard_s(m.shard_count(), 0.0);
  std::mutex mu;
  std::vector<double> ckpt_bytes;
  const int sweep_span = tr.begin("orch::sweep", root);
  auto run_one = [&](std::size_t s) {
    dtn::orch::WorkerOptions wopts;
    wopts.ckpt_interval_s = kSweepCkptIntervalS;
    wopts.sim_threads = 0;
    std::size_t last_done = 0;
    const std::size_t first = m.shard_runs(s).first;
    // Called after each run and after each mid-run checkpoint; a repeated
    // runs_done marks a checkpoint of run first + done.
    wopts.on_progress = [&](std::size_t, std::size_t done, std::size_t) {
      if (done != last_done) {
        last_done = done;
        return;
      }
      const std::size_t run = first + done;
      const std::string path =
          dtn::run_file_stem(dir, m.scenario_for(run), m.label_for(run)) + ".ckpt";
      std::error_code ec;
      const auto bytes = fs::file_size(path, ec);
      std::lock_guard<std::mutex> lock(mu);
      if (!ec) ckpt_bytes.push_back(static_cast<double>(bytes));
    };
    const int sp = tr.begin("orch::run_shard", sweep_span);
    dtn::orch::run_shard(m, dir, s, wopts);
    shard_s[s] = tr.end(sp);
  };
  std::string err;
  std::uint64_t digest = 0;
  double lanes_wall = 0.0;
  try {
    const auto lanes_t0 = Clock::now();
    {
      dtn::ThreadPool pool(kSweepLanes);
      dtn::parallel_for_index(pool, m.shard_count(), /*grain=*/1, run_one);
    }
    lanes_wall = seconds_between(lanes_t0, Clock::now());
    const int mg = tr.begin("orch::merge_shards", sweep_span);
    const auto aggs = dtn::orch::merge_shards(m, dir);
    dtn::orch::write_results_file(dtn::orch::results_path(dir), m, aggs);
    tr.end(mg);
    digest = file_fnv(dtn::orch::results_path(dir));
    err = sweep_result_error(m, aggs);
    if (err.empty()) err = gate.check(digest);
  } catch (const std::exception& e) {
    err = std::string("exception: ") + e.what();
  }
  const double sweep_wall = tr.end(sweep_span);
  fs::remove_all(dir);
  rep.op("traced-sweep", err, "{\"digest\": \"" + hex64(digest) + "\"}");
  const double ref = 0.5 * (ref_before + untraced_reference(a, gate, rep));

  // Layer probe: the first buffer size under each policy, stepped with
  // spans and saving a checkpoint every 600 s as the sweep workers do.
  std::vector<TracedRun> probe;
  std::vector<double> builds, saves;
  const int pr = tr.begin("layer-probe", root);
  for (std::size_t i = 0; i < paper_policies().size(); ++i) {
    dtn::Scenario sc = m.scenario_for(i);
    probe.push_back(traced_run(sc, 0.0, tr, pr, a.work + "/probe.ckpt"));
    const TracedRun& r = probe.back();
    rep.op("probe-" + sc.policy, r.error,
           "{\"digest\": \"" + hex64(r.digest) + "\"}");
    builds.push_back(r.build_s);
    for (double s : r.save_s) saves.push_back(s * 1e3);
  }
  tr.end(pr);
  tr.end(root);
  const TracedRun& fifo = probe.front();
  const TracedRun& sdsrp = probe.back();
  lm.set_world(sdsrp);
  lm.set_serial(sdsrp);
  // Work counts cover every probed policy.
  double drops = 0, started = 0, completed = 0, aborted = 0, slabs = 0;
  std::vector<double> occupancy;
  for (const TracedRun& r : probe) {
    drops += static_cast<double>(r.stats.drops);
    started += static_cast<double>(r.stats.transfers_started);
    completed += static_cast<double>(r.stats.transfers_completed);
    aborted += static_cast<double>(r.stats.transfers_aborted);
    slabs = std::max(slabs, static_cast<double>(r.slabs));
    occupancy.push_back(r.stats.buffer_occupancy.mean());
  }
  lm.set("buffer.drops", drops);
  lm.set("buffer.occupancy_mean", mean(occupancy));
  lm.set("core.transfers_started", started);
  lm.set("core.transfers_completed", completed);
  lm.set("core.transfers_aborted", aborted);
  lm.set("arena.slabs", slabs);
  lm.set("config.build_world_s", median(builds));
  lm.set("sdsrp.gossip_s", sdsrp.phases.contacts_s - fifo.phases.contacts_s);
  lm.set("snapshot.checkpoints", static_cast<double>(ckpt_bytes.size()));
  lm.set("snapshot.save_ms_p50", median(saves));
  lm.set("snapshot.bytes_mean", mean(ckpt_bytes));
  lm.set("orch.shard_p50_s", median(shard_s));
  lm.set("orch.shard_max_s", *std::max_element(shard_s.begin(), shard_s.end()));
  double busy = 0.0;
  for (double s : shard_s) busy += s;
  lm.set("orch.lane_busy_ratio",
         lanes_wall > 0.0 ? busy / (static_cast<double>(kSweepLanes) * lanes_wall)
                          : 0.0);
  lm.set("trace.untraced_wall_s", ref);
  lm.set("trace.overhead_s", sweep_wall - ref);
  rep.stamp_num("mean_active_contacts", sdsrp.contacts_mean);
}

void run_traced(const Args& a, Gate& gate, RunReport& rep) {
  Tracer tr(Clock::now());
  LayerMetrics lm;
  try {
    if (a.workload == kTable2) {
      trace_sweep(a, gate, tr, lm, rep);
    } else {
      trace_dense(a, gate, tr, lm, rep);
    }
  } catch (const std::exception& e) {
    rep.op("traced", std::string("exception: ") + e.what(), "{}");
  }
  lm.emit(rep);
  const std::string path =
      a.work + "/trace-" + a.workload + "-" + std::to_string(a.seed) + ".json";
  tr.write(path);
  rep.stamp_str("spans", path);
}

// ---------------------------------------------------------------- main

void print_scenarios(const Args& a) {
  std::vector<dtn::Scenario> scs;
  if (a.workload == kTable2) {
    for (const auto& p : table2_manifest(a.seed).points) scs.push_back(p.scenario);
  } else {
    scs.push_back(dense_scenario(world_seed(a.seed, 0), kDenseThreads));
  }
  for (const auto& sc : scs) std::cout << sc.to_settings().to_text() << "\n";
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--print-scenario") {
      a.print_scenario = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else if (k == "--pins") {
      a.pins = v;
    } else if (k == "--work") {
      a.work = v;
    } else if (k == "--describe") {
      a.describe = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (a.workload != kTable2 && a.workload != kDense) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  if (!a.print_scenario && (a.pins.empty() || a.work.empty())) {
    throw std::invalid_argument("--pins and --work are required");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
  if (a.print_scenario) {
    print_scenarios(a);
    return 0;
  }
  try {
    fs::create_directories(a.work);
    const auto pins = load_pins(a.pins);
    const auto it = pins.find({a.workload, a.seed});
    Gate gate(it != pins.end(), it != pins.end() ? it->second : 0);
    RunReport rep;
    stamp_world(rep, a, gate.pinned());
    if (a.trace == 0) {
      run_untraced(a, gate, rep);
      if (a.workload == kTable2) stamp_sweep_contacts(a, rep);
    } else {
      run_traced(a, gate, rep);
    }
    rep.print();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
