#pragma once
/// \file task_graph.hpp
/// Persistent-worker stage-chain executor for intra-step parallelism.
///
/// Motivation (DESIGN.md §16): the original `parallel_for_index` path
/// forks and joins the thread pool at every phase boundary of every
/// simulation step, paying a packaged_task + future + std::function
/// heap allocation per chunk and a condition-variable round trip per
/// phase. At step rates of 10^4..10^6/s the barrier overhead dominates
/// and parallel runs measure *slower* than serial. This executor keeps
/// a fixed set of workers parked on one epoch counter; dispatching a
/// whole step's stage chain is a single atomic bump + notify, chunks
/// are claimed from preallocated per-stage atomic cursors (zero
/// steady-state allocations), and the lane finishing a stage's last
/// chunk advances every lane to the next stage.
///
/// Determinism contract: the executor never decides *what* work runs,
/// only *when*. Stages run strictly in the order they were added;
/// kernels must write disjoint, index-addressed outputs. All cross-stage
/// reductions and merges are performed inside single-chunk (serial)
/// stages in a canonical order, so simulation results are bit-identical
/// at any lane count.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dtn {

/// A range kernel: process items [begin, end). Serial stages receive
/// (0, 1) and may ignore the arguments.
using TaskKernel = std::function<void(std::size_t begin, std::size_t end)>;

/// A reusable chain of range-kernel stages. Build once (stage kernels
/// may capture `this` of the owning system), then re-run every step via
/// TaskExecutor::run after refreshing per-run item counts with
/// set_items. Adding stages allocates; running does not.
class TaskGraph {
 public:
  /// Appends a stage that runs after every earlier stage has finished.
  /// `grain` is the max chunk width handed to one worker at a time.
  /// Returns the stage id. Item count defaults to 0 (the stage is
  /// skipped until set_items is called).
  int add(TaskKernel fn, std::size_t grain);

  /// Convenience for a serial stage: one chunk, kernel sees (0, 1).
  int add_serial(TaskKernel fn);

  /// Sets the item count for the next run. A count of 0 skips the
  /// kernel entirely. May also be called *during* a run from the kernel
  /// of an earlier stage — the count becomes visible when that stage
  /// finishes — which lets a serial planning stage size the parallel
  /// stage it feeds.
  void set_items(int id, std::size_t items);

  std::size_t size() const { return stages_.size(); }

 private:
  friend class TaskExecutor;

  struct Stage {
    TaskKernel fn;  ///< set at build time; never re-bound
    std::size_t items = 0;
    std::size_t grain = 1;
    // Per-run state, reset by TaskExecutor::prepare before publishing.
    std::size_t chunk_count = 0;
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> chunks_done{0};
  };

  // deque: Stage holds atomics (immovable); ids stay stable as the
  // chain grows.
  std::deque<Stage> stages_;
};

/// Executes TaskGraphs on `lanes` total execution lanes *including the
/// calling thread*: lanes <= 1 spawns no threads and runs everything
/// inline on the caller (the single-worker fast path), lanes == k
/// parks k-1 persistent helpers. Dispatch is epoch-counted: helpers
/// spin briefly on the epoch atomic, then block on one condition
/// variable; a run() is one epoch bump + notify_all, with no thread
/// spawn/join and no per-stage condvar churn.
class TaskExecutor {
 public:
  explicit TaskExecutor(std::size_t lanes);
  ~TaskExecutor();

  TaskExecutor(const TaskExecutor&) = delete;
  TaskExecutor& operator=(const TaskExecutor&) = delete;

  /// Total lanes including the caller (>= 1).
  std::size_t lanes() const { return workers_.size() + 1; }

  /// Runs the chain to completion; the caller participates. The first
  /// exception thrown by any kernel is rethrown here (remaining work
  /// is abandoned; the graph is safely reusable afterwards).
  void run(TaskGraph& g);

 private:
  void worker_loop();
  void prepare(TaskGraph& g);
  void drain(TaskGraph& g);
  void run_chunk(TaskGraph& g, std::size_t id, std::size_t chunk);
  /// Publishes the first stage at or after `id` that has chunks to run
  /// (g.size() when none is left: the run is over).
  void advance(TaskGraph& g, std::size_t id);
  void capture_exception();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<TaskGraph*> active_{nullptr};
  std::atomic<int> in_flight_{0};
  std::atomic<std::size_t> stage_{0};  ///< the stage lanes claim from
  std::atomic<bool> failed_{false};
  std::atomic<bool> stop_{false};
  std::mutex err_mutex_;
  std::exception_ptr err_;
};

}  // namespace dtn
