// CancellationToken: cooperative cancellation flag shared between a task's
// owner and the task. Split out of thread_pool.h so low-level layers (the
// store scans) can accept a token without pulling in the whole pool.
#ifndef SEESAW_COMMON_CANCELLATION_H_
#define SEESAW_COMMON_CANCELLATION_H_

#include <atomic>
#include <memory>

namespace seesaw {

/// Cooperative cancellation flag shared between a task's owner and the task.
///
/// Copies share one flag. Cancellation is purely advisory: nothing ever
/// kills a task; the task is expected to poll `cancelled()` at natural
/// checkpoints and exit early. Requesting cancellation is thread-safe and
/// idempotent.
///
/// Memory-order contract (release/acquire, not the seq_cst defaults and not
/// relaxed):
///  - RequestCancel is a release store: everything the cancelling thread
///    wrote *before* requesting is visible to any thread that observes the
///    cancellation. Result hand-off in the speculation machinery is already
///    ordered by TaskHandle completion (a mutex), so correctness today does
///    not lean on this — but relaxed would harden "no data may ever be
///    published through this flag" into the contract, a trap for future
///    checkpoint code (e.g. reading a deadline or a cancel reason after
///    observing the flag). The release costs nothing on the cancel path,
///    which runs once.
///  - cancelled() is an acquire load, pairing with the store. This is the
///    hot path — polled once per scanned row block — but an acquire load
///    is a plain MOV on x86-64 and a single LDAR on AArch64,
///    noise against the O(block_rows * dim) of kernel work between
///    checkpoints (measured: no difference at bench_scale granularity).
///  - seq_cst would additionally impose one global order across *different*
///    tokens. No caller reasons about two flags' relative order (each
///    speculation owns its token outright), so that stronger fence would buy
///    nothing and cost a real barrier per checkpoint on weakly-ordered ISAs.
class CancellationToken {
 public:
  CancellationToken()
      : cancelled_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Asks the task to stop at its next checkpoint. Release: publishes the
  /// caller's prior writes to any observer of the flag (see class comment).
  void RequestCancel() const {
    cancelled_->store(true, std::memory_order_release);
  }

  /// Whether cancellation has been requested. Acquire: an observer of `true`
  /// also observes everything the canceller wrote before RequestCancel (see
  /// class comment for why this is deliberately not relaxed).
  bool cancelled() const {
    return cancelled_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> cancelled_;
};

}  // namespace seesaw

#endif  // SEESAW_COMMON_CANCELLATION_H_
