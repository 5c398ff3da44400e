#ifndef ODBGC_UTIL_TASK_POOL_H_
#define ODBGC_UTIL_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/work_stealing_deque.h"

namespace odbgc {

/// A reusable work-stealing thread pool (DESIGN.md §15): the execution
/// engine behind the concurrent simulator's shard scheduler, the parallel
/// marking inside ReachabilityAnalyzer, and the experiment grid.
///
/// Structure: N workers, each with a private Chase–Lev deque, plus one
/// mutex-protected injector queue for submissions from outside the pool.
/// A worker acquires work in the order local-pop → injector → randomized
/// steal sweep, and parks on a condition variable only after a full sweep
/// finds nothing — so an idle pool burns no CPU, and a skewed load (one
/// giant producer, the exact shape the paper's mixed-size forests give
/// the shard scheduler) drains through stealing instead of idling cores.
///
/// Tasks are grouped: every Submit names a TaskGroup, and Wait(group)
/// returns when all of the group's tasks (including tasks they spawned
/// into the group) have finished. Wait called *on a worker thread* helps:
/// it executes available tasks — any tasks, not just the group's — while
/// it waits, which is what lets a shard task block on a parallel-marking
/// wave without idling its core or deadlocking the pool. Wait called on
/// an external thread blocks on a condition variable, deliberately NOT
/// executing tasks: the pool's worker count is the experiment's
/// parallelism knob, and a helping caller would add a hidden extra
/// executor.
///
/// Determinism: the pool provides none by itself — tasks run in an
/// arbitrary order on arbitrary workers. Every client is required to make
/// scheduling unobservable (shards are independent heaps summed by an
/// order-independent rule; marking is an idempotent fixpoint merged
/// deterministically; grid cells write to disjoint slots). DESIGN.md §15
/// spells out each argument.
class TaskPool {
 public:
  /// Worker identity passed to every task. `worker_index` is stable for
  /// the life of the pool and < worker_count() — clients key per-thread
  /// state (scratch) off it.
  struct Context {
    TaskPool* pool = nullptr;
    uint32_t worker_index = 0;
  };

  using Task = std::function<void(Context&)>;

  /// A wave of related tasks. Reusable after Wait returns. Outstanding
  /// counter only — groups hold no task memory.
  class TaskGroup {
   public:
    TaskGroup() = default;
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

   private:
    friend class TaskPool;
    std::atomic<uint64_t> pending_{0};
  };

  /// Spawns `workers` threads (at least 1).
  explicit TaskPool(uint32_t workers);

  /// Drains every submitted task, then joins the workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  uint32_t worker_count() const { return worker_count_; }

  /// Enqueues `task` under `group`. Callable from anywhere: a worker of
  /// this pool pushes to its own deque (stealable by the others); any
  /// other thread goes through the injector queue. `group` must outlive
  /// the matching Wait.
  void Submit(TaskGroup* group, Task task);

  /// Blocks until every task submitted under `group` has finished.
  /// Helping semantics per the class comment. Multiple concurrent Waits
  /// on the same group are allowed.
  void Wait(TaskGroup* group);

  /// Per-worker wall time spent executing task bodies, in seconds —
  /// busy/wall per thread is the scheduler-efficiency number
  /// bench/mt_barrier_heavy reports.
  std::vector<double> BusySeconds() const;

  /// Tasks that migrated off their submitter via a steal (diagnostics).
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

  /// Tasks executed in total (diagnostics).
  uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;

 private:
  struct TaskNode {
    Task fn;
    TaskGroup* group = nullptr;
  };

  struct WorkerState {
    explicit WorkerState(TaskPool* p, uint32_t index)
        : pool(p), worker_index(index), rng_state(0x9e3779b97f4a7c15ull ^
                                                  (uint64_t{index} + 1)) {}
    TaskPool* pool;
    uint32_t worker_index;
    WorkStealingDeque<TaskNode*> deque;
    uint64_t rng_state;  // xorshift64 for victim selection; worker-local.
    std::atomic<uint64_t> busy_ns{0};
  };

  void WorkerLoop(WorkerState* self);
  // One acquire attempt over all sources; null when nothing is available.
  TaskNode* AcquireTask(WorkerState* self);
  TaskNode* StealSweep(WorkerState* self);
  void RunTask(WorkerState* self, TaskNode* node);
  void NotifyOne();

  // Fixed before any worker thread starts; workers_ itself grows during
  // construction while early workers are already running, so they must
  // read this, never workers_.size().
  uint32_t worker_count_ = 0;
  std::vector<std::unique_ptr<WorkerState>> states_;
  std::vector<std::thread> workers_;

  // Injector queue: external submissions and overflow.
  std::mutex injector_mutex_;
  std::deque<TaskNode*> injector_;

  // Tasks queued anywhere (local deques + injector) — the sleep predicate.
  std::atomic<uint64_t> queued_{0};
  std::atomic<uint32_t> sleepers_{0};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> shutdown_{false};

  // External Wait parking.
  std::mutex completion_mutex_;
  std::condition_variable completion_cv_;

  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> executed_{0};
};

}  // namespace odbgc

#endif  // ODBGC_UTIL_TASK_POOL_H_
