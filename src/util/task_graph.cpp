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

// Idle polls inside drain() before yielding the core: covers the
// window where every chunk of the current stage is claimed but not yet
// complete.
constexpr int kDrainYieldEvery = 256;

}  // namespace

int TaskGraph::add(TaskKernel fn, std::size_t grain) {
  DTN_REQUIRE(grain >= 1, "TaskGraph: grain must be >= 1");
  const int id = static_cast<int>(stages_.size());
  stages_.emplace_back();
  Stage& st = stages_.back();
  st.fn = std::move(fn);
  st.grain = grain;
  return id;
}

int TaskGraph::add_serial(TaskKernel fn) {
  const int id = add(std::move(fn), /*grain=*/1);
  stages_[static_cast<std::size_t>(id)].items = 1;
  return id;
}

void TaskGraph::set_items(int id, std::size_t items) {
  Stage& st = stages_[static_cast<std::size_t>(id)];
  st.items = items;
  // Keep chunk_count coherent so an *earlier* stage may size this one
  // mid-run: the write happens before that stage's last chunk completes
  // (acq_rel), and the lane completing it publishes the next stage with
  // a release store, so every lane that claims a chunk here — or the
  // lane deciding to skip this stage — observes it. Only legal from
  // code that runs strictly before this stage (an earlier stage's
  // kernel, or between runs).
  st.chunk_count = items == 0 ? 0 : (items + st.grain - 1) / st.grain;
}

TaskExecutor::TaskExecutor(std::size_t lanes) {
  const std::size_t helpers = lanes > 1 ? lanes - 1 : 0;
  workers_.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
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
  for (TaskGraph::Stage& st : g.stages_) {
    st.chunk_count = st.items == 0 ? 0 : (st.items + st.grain - 1) / st.grain;
    st.next_chunk.store(0, std::memory_order_relaxed);
    st.chunks_done.store(0, std::memory_order_relaxed);
  }
  advance(g, 0);
}

void TaskExecutor::run(TaskGraph& g) {
  if (workers_.empty()) {
    // Inline fast path: one sweep in stage order, with no claim cursors.
    // A count set by an earlier stage (set_items) is read when the sweep
    // reaches the stage. Exceptions propagate directly; there is no
    // per-run state to reset.
    for (TaskGraph::Stage& st : g.stages_) {
      for (std::size_t b = 0; b < st.items; b += st.grain) {
        st.fn(b, std::min(st.items, b + st.grain));
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
  for (;;) {
    const std::size_t id = stage_.load(std::memory_order_acquire);
    if (id >= g.stages_.size() || failed_.load(std::memory_order_relaxed))
      return;
    TaskGraph::Stage& st = g.stages_[id];
    if (st.next_chunk.load(std::memory_order_relaxed) < st.chunk_count) {
      const std::size_t c =
          st.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c < st.chunk_count) {
        idle = 0;
        run_chunk(g, id, c);
        continue;
      }
    }
    // Every chunk of this stage is claimed: wait for the lane completing
    // the last one to publish the next stage.
    if (++idle >= kDrainYieldEvery) {
      idle = 0;
      std::this_thread::yield();
    } else {
      cpu_pause();
    }
  }
}

void TaskExecutor::run_chunk(TaskGraph& g, std::size_t id,
                             std::size_t chunk) {
  TaskGraph::Stage& st = g.stages_[id];
  const std::size_t begin = chunk * st.grain;
  const std::size_t end = std::min(st.items, begin + st.grain);
  try {
    st.fn(begin, end);
  } catch (...) {
    capture_exception();
    return;  // abandon the run; counters are reset by the next prepare()
  }
  // acq_rel chain: the final increment synchronizes with every prior
  // chunk's increment, so the next stage (published by advance's release
  // store) observes all chunk writes.
  const std::size_t done =
      st.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (done == st.chunk_count) advance(g, id + 1);
}

void TaskExecutor::advance(TaskGraph& g, std::size_t id) {
  while (id < g.stages_.size() && g.stages_[id].chunk_count == 0) ++id;
  stage_.store(id, std::memory_order_release);
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
