// Fixed-size worker pool used for data-parallel preprocessing (embedding,
// kNN-graph construction, index builds) and for the shared lookup pool of
// concurrent search sessions (sharded scans, speculative prefetch).
#ifndef SEESAW_COMMON_THREAD_POOL_H_
#define SEESAW_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/aligned.h"
#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace seesaw {

class ThreadPool;

/// Waitable completion handle for one submitted task.
///
/// Obtained from ThreadPool::SubmitWithResult. Waiting blocks only on that
/// one task — never on unrelated pool work — and a waiter that is itself a
/// pool task helps drain the queue instead of parking, so waiting on a
/// handle from inside the pool cannot deadlock. Copies share one completion
/// state; the handle stays valid after the task finishes.
class TaskHandle {
 public:
  /// An empty handle; valid() is false and Wait()/done() must not be called.
  TaskHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// Whether the task has finished running (non-blocking, lock-free).
  bool done() const;

  /// Blocks until the task finishes. While the task is still queued behind
  /// other work, the calling thread runs queued tasks itself (caller-runs),
  /// which makes this safe to call from a task running on the same pool.
  /// Waiting on an already-finished task never touches the pool, so handles
  /// of drained tasks stay safe to Wait() on after the pool is destroyed.
  void Wait();

 private:
  friend class ThreadPool;

  struct State {
    Mutex mu;
    CondVar cv;
    /// Completion flag. Deliberately an atomic rather than a bool guarded by
    /// `mu`: done() and Wait()'s fast path stay lock-free, and the generic
    /// HelpUntil predicate can read it without holding the lock (which also
    /// keeps guarded state out of lambdas, where the thread-safety analysis
    /// cannot see the caller's lock — see common/thread_annotations.h).
    /// Ordering contract: the worker publishes the task's side effects with
    /// store(release) while holding `mu` (then notifies under it, closing
    /// the check-then-park race); any load(acquire) that observes true
    /// therefore also observes everything the task wrote.
    ///
    /// Layout: `done` owns its cache line (and `mu`/`cv` share the one
    /// before it). A HelpUntil waiter polls this flag between helped tasks
    /// while the worker that will complete the task locks/unlocks `mu` —
    /// packed together, every futex word update by the completer would
    /// invalidate the poller's line even though `done` had not changed.
    CacheAligned<std::atomic<bool>> done;
  };

  TaskHandle(std::shared_ptr<State> state, ThreadPool* pool)
      : state_(std::move(state)), pool_(pool) {}

  std::shared_ptr<State> state_;
  ThreadPool* pool_ = nullptr;
};

/// A minimal shared thread pool with cooperative nested waiting.
///
/// Tasks are void() callables. The pool is intended for coarse-grained batch
/// parallelism; there is no work stealing or task priority. Destruction
/// drains the queue and joins all workers.
///
/// Contract (the concurrent-serving rules every caller relies on):
///  - Waiting is always per-call (ParallelFor latch, TaskHandle): a caller
///    blocks only on its own work, never on whatever other sessions queued.
///    There is deliberately no pool-wide Wait().
///  - Nesting is allowed: a task running on the pool may call ParallelFor or
///    TaskHandle::Wait on the same pool. Waiters help drain the queue
///    (caller-runs) before parking, so the pool cannot deadlock on its own
///    latches. The trade-off: a helping waiter may execute an unrelated
///    task, so its wait can extend by one task's runtime.
///  - Cancellation is cooperative via CancellationToken; cancelling never
///    removes a queued task, it only asks the task body to finish early.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  /// Enqueues a task for asynchronous execution (fire and forget).
  void Submit(std::function<void()> task) SEESAW_EXCLUDES(mu_);

  /// Enqueues a task and returns a handle that waits on exactly that task.
  /// Pair with a CancellationToken captured by the task for cancellable
  /// background work (e.g. speculative prefetch).
  TaskHandle SubmitWithResult(std::function<void()> task) SEESAW_EXCLUDES(mu_);

  /// Runs one queued task on the calling thread if any is queued. Returns
  /// false when the queue was empty. This is the helping primitive behind
  /// nested waits; exposed for tests and custom wait loops.
  bool TryRunOneTask() SEESAW_EXCLUDES(mu_);

  /// Number of worker threads. (workers_ is immutable after construction,
  /// so this needs no lock.)
  size_t num_threads() const { return workers_.size(); }

  /// Splits [0, n) into roughly equal chunks and runs `fn(begin, end)` on
  /// the pool, blocking until all chunks complete. `fn` must be safe to
  /// invoke concurrently on disjoint ranges. Blocks only on this call's own
  /// chunks, and the calling thread helps run queued work while it waits —
  /// so concurrent sessions may ParallelFor on one shared pool, and a pool
  /// task may itself ParallelFor on the same pool without deadlocking.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn)
      SEESAW_EXCLUDES(mu_);

  /// A sensible default worker count for this machine.
  static size_t DefaultThreads();

 private:
  friend class TaskHandle;

  /// The shared help-then-park wait loop behind ParallelFor and
  /// TaskHandle::Wait: runs queued tasks until `done()` holds, parking on
  /// `cv` under `mu` once the queue is empty. The predicate must read only
  /// lock-free state (an atomic flag/counter): it is invoked both with and
  /// without `mu` held, and keeping guarded state out of it is what lets the
  /// thread-safety analysis check this file without escape hatches. The
  /// waited-on completion must flip the predicate and notify `cv` while
  /// holding `mu` (see TaskHandle::State::done for the ordering contract).
  void HelpUntil(Mutex& mu, CondVar& cv, const std::function<bool()>& done)
      SEESAW_EXCLUDES(mu, mu_);

  void WorkerLoop() SEESAW_EXCLUDES(mu_);

  std::vector<std::thread> workers_;  // construction-immutable
  // mu_, work_available_ and queue_ are written on every Submit and pop.
  // Starting them on a fresh cache line (which also pads the pool's size to
  // whole lines) keeps that traffic off the lines of the object the pool is
  // embedded in: SessionManager's per-request mutex sits right after it.
  alignas(kCacheLineSize) Mutex mu_;
  CondVar work_available_;
  std::queue<std::function<void()>> queue_ SEESAW_GUARDED_BY(mu_);
  bool shutting_down_ SEESAW_GUARDED_BY(mu_) = false;
};

}  // namespace seesaw

#endif  // SEESAW_COMMON_THREAD_POOL_H_
