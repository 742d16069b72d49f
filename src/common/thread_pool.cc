#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace seesaw {

bool TaskHandle::done() const {
  SEESAW_CHECK(state_ != nullptr) << "done() on an empty TaskHandle";
  return state_->done.value.load(std::memory_order_acquire);
}

void TaskHandle::Wait() {
  SEESAW_CHECK(state_ != nullptr) << "Wait() on an empty TaskHandle";
  State& state = *state_;
  // Fast path that never touches the pool or the lock: a finished task's
  // handle must stay waitable even after the pool is destroyed (pool
  // destruction drains the queue, so an unfinished task implies a live
  // pool). The acquire load pairs with the worker's release store, ordering
  // this thread after the task's side effects.
  if (state.done.value.load(std::memory_order_acquire)) return;
  pool_->HelpUntil(state.mu, state.cv, [&state] {
    return state.done.value.load(std::memory_order_acquire);
  });
}

ThreadPool::ThreadPool(size_t num_threads) {
  SEESAW_CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    SEESAW_CHECK(!shutting_down_) << "Submit after shutdown";
    queue_.push(std::move(task));
  }
  work_available_.NotifyOne();
}

TaskHandle ThreadPool::SubmitWithResult(std::function<void()> task) {
  auto state = std::make_shared<TaskHandle::State>();
  Submit([state, task = std::move(task)] {
    task();
    // Publish completion under the state lock *and* notify under it: a
    // waiter that checked `done` false cannot park before we flip it (the
    // check-then-park is atomic under state->mu inside HelpUntil), so the
    // notify cannot be lost. The release store publishes the task's writes
    // to lock-free done()/Wait() fast paths.
    MutexLock lock(state->mu);
    state->done.value.store(true, std::memory_order_release);
    state->cv.NotifyAll();
  });
  return TaskHandle(std::move(state), this);
}

void ThreadPool::HelpUntil(Mutex& mu, CondVar& cv,
                           const std::function<bool()>& done) {
  // Caller-runs: while the waited-on work is outstanding, execute queued
  // tasks (the waiter's own or anyone else's) on the calling thread. Park
  // only once the queue is empty — at that point the outstanding work is
  // executing on other threads, so waiting on the condition cannot deadlock
  // even when the caller is itself a pool worker (nested ParallelFor /
  // TaskHandle::Wait on the same pool).
  for (;;) {
    if (done()) return;
    if (!TryRunOneTask()) {
      MutexLock lock(mu);
      // Re-check under the lock, then park: the completer flips the
      // predicate and notifies while holding `mu`, so a waiter cannot slip
      // between the check and the wait.
      while (!done()) cv.Wait(mu);
      return;
    }
  }
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(mu_);
      // Shutting down: drain the queue before exiting so destruction keeps
      // its "drains the queue" contract.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t chunks = std::min(n, num_threads() * 4);
  size_t chunk_size = (n + chunks - 1) / chunks;
  // Per-call completion latch rather than any pool-wide state: many sessions
  // share one pool, and a caller must only block on its own chunks, not on
  // whatever other sessions have queued. `remaining` is atomic for the same
  // reason TaskHandle::State::done is: the HelpUntil predicate reads it
  // lock-free, and workers decrement it without taking the latch lock; only
  // the final decrement touches `mu`, to pair with the waiter's
  // check-then-park (an empty critical section is enough — the waiter either
  // sees 0 before parking or is parked and gets the notify).
  //
  // `remaining` owns its cache line for the same reason TaskHandle::State
  // pads `done`: every finishing chunk decrements it while the waiter polls
  // it between helped tasks — sharing a line with `mu` would make each
  // worker's lock traffic evict the poller's copy.
  struct Latch {
    Mutex mu;
    CondVar done;
    CacheAligned<std::atomic<size_t>> remaining;
  };
  auto latch = std::make_shared<Latch>();
  latch->remaining.value.store((n + chunk_size - 1) / chunk_size,
                               std::memory_order_relaxed);
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    size_t end = std::min(begin + chunk_size, n);
    Submit([&fn, latch, begin, end] {
      fn(begin, end);
      if (latch->remaining.value.fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        MutexLock lock(latch->mu);
        latch->done.NotifyAll();
      }
    });
  }
  HelpUntil(latch->mu, latch->done, [&latch] {
    return latch->remaining.value.load(std::memory_order_acquire) == 0;
  });
}

size_t ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : static_cast<size_t>(hw);
}

}  // namespace seesaw
