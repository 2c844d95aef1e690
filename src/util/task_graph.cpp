#include "src/util/task_graph.hpp"

#include <algorithm>

#include "src/util/error.hpp"

namespace dtn {
namespace {

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Helpers spin this many pauses on the epoch before parking on the
// condition variable. Long enough to catch back-to-back step
// dispatches, short enough not to burn a core when the simulation is
// between runs.
constexpr int kSpinIters = 2048;

// Idle sweeps inside drain() before yielding the core: covers the
// window where every ready chunk is claimed but not yet complete.
constexpr int kDrainYieldEvery = 256;

}  // namespace

int TaskGraph::add(TaskKernel fn, std::size_t grain,
                   std::initializer_list<int> deps) {
  DTN_REQUIRE(grain >= 1, "TaskGraph: grain must be >= 1");
  const int id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  Node& nd = nodes_.back();
  nd.fn = std::move(fn);
  nd.grain = grain;
  for (int d : deps) {
    DTN_REQUIRE(d >= 0 && d < id, "TaskGraph: dependency must precede node");
    nodes_[static_cast<std::size_t>(d)].successors.push_back(id);
    ++nd.dep_count;
  }
  return id;
}

int TaskGraph::add_serial(TaskKernel fn, std::initializer_list<int> deps) {
  const int id = add(std::move(fn), /*grain=*/1, deps);
  nodes_[static_cast<std::size_t>(id)].items = 1;
  return id;
}

void TaskGraph::set_items(int id, std::size_t items) {
  Node& nd = nodes_[static_cast<std::size_t>(id)];
  nd.items = items;
  // Keep chunk_count coherent so a *predecessor* node may size this one
  // mid-run: the write happens before the predecessor's finish_node
  // releases the final dependency (acq_rel), so every lane that claims a
  // chunk — or the finisher that completes a zero-chunk node — observes
  // it. Only legal from code that runs strictly before this node is
  // readied (a dependency's kernel, or between runs).
  nd.chunk_count = items == 0 ? 0 : (items + nd.grain - 1) / nd.grain;
}

TaskExecutor::TaskExecutor(std::size_t lanes) {
  const std::size_t helpers = lanes > 1 ? lanes - 1 : 0;
  workers_.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  flat_id_ = flat_.add(TaskKernel{}, /*grain=*/1);
}

TaskExecutor::~TaskExecutor() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskExecutor::prepare(TaskGraph& g) {
  // Reset every per-run counter *before* the graph is published via
  // active_ (release store) so any helper that observes the graph
  // sees fully initialized state.
  nodes_remaining_.store(g.nodes_.size(), std::memory_order_relaxed);
  for (TaskGraph::Node& nd : g.nodes_) {
    nd.chunk_count = nd.items == 0 ? 0 : (nd.items + nd.grain - 1) / nd.grain;
    nd.deps_remaining.store(nd.dep_count, std::memory_order_relaxed);
    nd.next_chunk.store(0, std::memory_order_relaxed);
    nd.chunks_done.store(0, std::memory_order_relaxed);
  }
  // Zero-chunk roots complete immediately (single-threaded, before
  // publish); finish_node cascades through any zero-chunk successors.
  for (std::size_t i = 0; i < g.nodes_.size(); ++i) {
    TaskGraph::Node& nd = g.nodes_[i];
    if (nd.dep_count == 0 && nd.chunk_count == 0)
      finish_node(g, static_cast<int>(i));
  }
}

void TaskExecutor::run(TaskGraph& g) {
  if (workers_.empty()) {
    // Inline fast path: add() only accepts dependencies that precede a
    // node, so id order is a topological order, and one sweep in id
    // order runs every node after all of its dependencies — with no
    // claim cursors or dependency counters. A count set by a predecessor
    // (set_items) is read when the sweep reaches the node. Exceptions
    // propagate directly; there is no per-run state to reset.
    for (TaskGraph::Node& nd : g.nodes_) {
      const TaskKernel& fn = nd.ext != nullptr ? *nd.ext : nd.fn;
      for (std::size_t b = 0; b < nd.items; b += nd.grain) {
        fn(b, std::min(nd.items, b + nd.grain));
      }
    }
    return;
  }
  failed_.store(false, std::memory_order_relaxed);
  err_ = nullptr;  // no run in flight: safe without the error mutex
  prepare(g);
  active_.store(&g, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  {
    // Pairs with the predicate check in worker_loop: a helper between
    // "predicate false" and "wait" holds the mutex, so taking it here
    // guarantees the notify below cannot be lost.
    std::lock_guard<std::mutex> lk(mutex_);
  }
  cv_.notify_all();
  drain(g);
  active_.store(nullptr, std::memory_order_release);
  // Late wakers that never saw this graph load nullptr and go back to
  // sleep; anyone who did see it is counted in in_flight_. Waiting for
  // zero makes it safe to prepare() the next run (or destroy graphs).
  while (in_flight_.load(std::memory_order_acquire) != 0) cpu_pause();
  if (failed_.load(std::memory_order_relaxed)) std::rethrow_exception(err_);
}

void TaskExecutor::for_each(std::size_t n, std::size_t grain,
                            const TaskKernel& fn) {
  DTN_REQUIRE(grain >= 1, "TaskExecutor: grain must be >= 1");
  if (n == 0) return;
  if (workers_.empty() || n <= grain) {
    fn(0, n);  // exceptions propagate naturally
    return;
  }
  TaskGraph::Node& nd = flat_.nodes_[static_cast<std::size_t>(flat_id_)];
  nd.ext = &fn;  // borrow — the caller's kernel is never copied
  nd.items = n;
  nd.grain = grain;
  try {
    run(flat_);
  } catch (...) {
    nd.ext = nullptr;
    throw;
  }
  nd.ext = nullptr;
}

void TaskExecutor::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t e = epoch_.load(std::memory_order_acquire);
    for (int spin = 0; spin < kSpinIters && e == seen; ++spin) {
      if (stop_.load(std::memory_order_relaxed)) return;
      cpu_pause();
      e = epoch_.load(std::memory_order_acquire);
    }
    if (e == seen) {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_.wait(lk, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               epoch_.load(std::memory_order_acquire) != seen;
      });
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    seen = epoch_.load(std::memory_order_acquire);
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    TaskGraph* g = active_.load(std::memory_order_acquire);
    if (g != nullptr) drain(*g);
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
}

void TaskExecutor::drain(TaskGraph& g) {
  int idle = 0;
  while (nodes_remaining_.load(std::memory_order_acquire) != 0 &&
         !failed_.load(std::memory_order_relaxed)) {
    bool did_work = false;
    for (std::size_t i = 0; i < g.nodes_.size(); ++i) {
      TaskGraph::Node& nd = g.nodes_[i];
      if (nd.deps_remaining.load(std::memory_order_acquire) != 0) continue;
      if (nd.next_chunk.load(std::memory_order_relaxed) >= nd.chunk_count)
        continue;
      for (;;) {
        const std::size_t c =
            nd.next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= nd.chunk_count) break;
        did_work = true;
        run_chunk(g, static_cast<int>(i), c);
        if (failed_.load(std::memory_order_relaxed)) return;
      }
    }
    if (!did_work) {
      if (++idle >= kDrainYieldEvery) {
        idle = 0;
        std::this_thread::yield();
      } else {
        cpu_pause();
      }
    } else {
      idle = 0;
    }
  }
}

void TaskExecutor::run_chunk(TaskGraph& g, int id, std::size_t chunk) {
  TaskGraph::Node& nd = g.nodes_[static_cast<std::size_t>(id)];
  const std::size_t begin = chunk * nd.grain;
  const std::size_t end = std::min(nd.items, begin + nd.grain);
  const TaskKernel& fn = nd.ext != nullptr ? *nd.ext : nd.fn;
  try {
    fn(begin, end);
  } catch (...) {
    capture_exception();
    return;  // abandon the run; counters are reset by the next prepare()
  }
  // acq_rel chain: the final increment synchronizes with every prior
  // chunk's increment, so finish_node observes all chunk writes.
  const std::size_t done =
      nd.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (done == nd.chunk_count) finish_node(g, id);
}

void TaskExecutor::finish_node(TaskGraph& g, int id) {
  TaskGraph::Node& nd = g.nodes_[static_cast<std::size_t>(id)];
  for (int s : nd.successors) {
    TaskGraph::Node& sn = g.nodes_[static_cast<std::size_t>(s)];
    // acq_rel: the claimer of the successor's first chunk acquires all
    // predecessor writes through this decrement chain.
    if (sn.deps_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        sn.chunk_count == 0) {
      finish_node(g, s);  // zero-chunk node: whoever readies it, finishes it
    }
  }
  nodes_remaining_.fetch_sub(1, std::memory_order_release);
}

void TaskExecutor::capture_exception() {
  bool expected = false;
  if (failed_.compare_exchange_strong(expected, true,
                                      std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lk(err_mutex_);
    err_ = std::current_exception();
  }
}

}  // namespace dtn
