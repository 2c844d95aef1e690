// Micro-benchmarks (google-benchmark) for the simulator's hot kernels:
// spatial-grid contact detection, priority evaluation (closed form vs
// Taylor), buffer admission, dropped-list merge and save, and a full
// world-step at paper scale.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/buffer/fifo.hpp"
#include "src/buffer/sdsrp_policy.hpp"
#include "src/config/scenario.hpp"
#include "src/geo/spatial_grid.hpp"
#include "src/mobility/stationary.hpp"
#include "src/routing/spray_and_wait.hpp"
#include "src/sdsrp/dropped_list.hpp"
#include "src/sdsrp/priority_model.hpp"
#include "src/snapshot/archive.hpp"
#include "src/util/rng.hpp"

namespace {

void BM_SpatialGridRebuildAndPairs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dtn::Rng rng(7);
  std::vector<dtn::Vec2> pos;
  pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back({rng.uniform(0, 4500), rng.uniform(0, 3400)});
  }
  dtn::SpatialGrid grid(100.0);
  std::size_t pairs = 0;
  for (auto _ : state) {
    grid.rebuild(pos);
    grid.for_each_pair_within(
        100.0, [&pairs](std::size_t, std::size_t) { ++pairs; });
  }
  benchmark::DoNotOptimize(pairs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpatialGridRebuildAndPairs)->Arg(100)->Arg(200)->Arg(1000);

void BM_PriorityEq10(benchmark::State& state) {
  dtn::sdsrp::PriorityInputs in;
  in.n_nodes = 100;
  in.lambda = 1.0 / 5500.0;
  in.copies = 8;
  in.remaining_ttl = 9000;
  in.m_seen = 5;
  in.n_holding = 4;
  double acc = 0;
  for (auto _ : state) {
    in.remaining_ttl += 1.0;  // defeat constant folding
    acc += dtn::sdsrp::priority_eq10(in);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_PriorityEq10);

void BM_PriorityTaylor(benchmark::State& state) {
  const auto terms = static_cast<std::size_t>(state.range(0));
  double pr = 0.3, acc = 0;
  for (auto _ : state) {
    pr = pr < 0.9 ? pr + 1e-6 : 0.3;
    acc += dtn::sdsrp::priority_taylor(0.1, pr, 3.0, terms);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_PriorityTaylor)->Arg(1)->Arg(5)->Arg(20)->Arg(50);

void BM_BufferAdmissionFifo(benchmark::State& state) {
  const dtn::SprayAndWaitRouter router;
  const dtn::FifoPolicy policy;
  dtn::MessageArena arena;
  dtn::Node node(0, std::make_unique<dtn::StationaryModel>(dtn::Vec2{}),
                 2'500'000, &router, &policy, arena);
  dtn::PolicyContext ctx;
  ctx.n_nodes = 100;
  ctx.node = &node;
  dtn::MessageId next = 1;
  for (auto _ : state) {
    dtn::Message m;
    m.id = next++;
    m.source = 0;
    m.destination = 1;
    m.size = 500'000;
    m.created = ctx.now;
    m.ttl = 18000;
    m.received = ctx.now;
    ctx.now += 1.0;
    benchmark::DoNotOptimize(node.admit(std::move(m), ctx).admitted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BufferAdmissionFifo);

// Gossip generations over `records` owner nodes: generation g carries
// every node's record after its (8 + g)-th drop, stamped at time g. A list
// holding generation g - 1 adopts every record of generation g.
std::vector<dtn::sdsrp::DroppedList> gossip_generations(
    std::size_t records, std::size_t generations) {
  std::vector<dtn::sdsrp::DroppedList> nodes;
  for (std::size_t n = 1; n <= records; ++n) {
    nodes.emplace_back(n);
    for (std::uint64_t m = 0; m < 7; ++m) {
      nodes.back().record_local_drop(n * 1000 + m, 0.0);
    }
  }
  std::vector<dtn::sdsrp::DroppedList> gens;
  for (std::size_t g = 0; g < generations; ++g) {
    dtn::sdsrp::DroppedList carrier(records + 1);
    for (auto& node : nodes) {
      node.record_local_drop(node.owner() * 1000 + 7 + g,
                             static_cast<double>(g));
      carrier.merge_from(node);
    }
    gens.push_back(std::move(carrier));
  }
  return gens;
}

void BM_DroppedListMerge(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const auto gens = gossip_generations(records, 32);
  dtn::sdsrp::DroppedList target(0);
  std::size_t g = 0;
  for (auto _ : state) {
    if (g == gens.size()) {  // every generation adopted: start over
      state.PauseTiming();
      target = dtn::sdsrp::DroppedList(0);
      g = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(target.merge_from(gens[g++]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
}
BENCHMARK(BM_DroppedListMerge)->Arg(10)->Arg(100);

void BM_DroppedListSave(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const auto gens = gossip_generations(records, 32);
  const dtn::sdsrp::DroppedList& list = gens.back();
  std::size_t bytes = 0;
  for (auto _ : state) {
    dtn::snapshot::ArchiveWriter out;
    list.save_state(out);
    bytes += out.bytes_written();
    benchmark::DoNotOptimize(out.bytes().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DroppedListSave)->Arg(100);

void BM_WorldStepPaperScale(benchmark::State& state) {
  dtn::Scenario sc = dtn::Scenario::random_waypoint_paper();
  sc.policy = state.range(0) == 0 ? "fifo" : "sdsrp";
  auto world = dtn::build_world(sc);
  world->run_until(2000.0);  // warm: populated buffers, live contacts
  for (auto _ : state) {
    world->step();
  }
  state.SetLabel(sc.policy);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorldStepPaperScale)->Arg(0)->Arg(1);

}  // namespace
