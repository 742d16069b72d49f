// SessionManager: the concurrent serving layer above SeeSawService.
//
// The paper's system serves one interactive user per session; a production
// deployment serves many at once. The manager owns every live session behind
// an opaque integer id in a mutex-guarded registry, and all sessions share
// one ThreadPool for parallel store scans — so p sessions on a c-core box
// share c workers instead of spawning p*c threads.
//
//   SessionManager manager(service);
//   auto id = manager.CreateSession("wheelchair");
//   auto session = manager.Find(*id);   // shared_ptr, safe across Close
//   auto page = session->NextBatch(10);
//   ...
//   manager.Close(*id);
//
// Serving front ends (src/net) use the lifecycle surface instead of bare
// Find():
//   - CreateSession(query, user) attributes the session to a user key and
//     enforces SessionLimits::max_sessions_per_user (quota exhaustion is a
//     typed ResourceExhausted, which the wire protocol maps to
//     QUOTA_EXCEEDED).
//   - Acquire(id) returns an RAII SessionLease that counts against
//     SessionLimits::max_inflight_per_session — the per-session admission
//     gate, modeled on PrefetchBudget: a session already serving its cap of
//     requests yields a typed ResourceExhausted ("busy"), which the server
//     sheds as RETRY_LATER instead of queueing unboundedly. Acquire also
//     refreshes the idle clock.
//   - SweepIdle() evicts sessions idle past SessionLimits::idle_ttl_seconds.
//     Sessions with a live lease are never evicted (an in-flight request
//     means "not idle"), and an in-flight shared_ptr obtained before the
//     sweep stays valid either way — eviction unregisters, it never frees a
//     session out from under a request.
//
// Thread-safety: CreateSession / Find / Acquire / Touch / SweepIdle / Close
// / num_sessions may be called from any thread. Each individual session is
// still single-threaded — one user drives one session (the lease cap
// defaults to exactly 1 on the server) — but different sessions run fully
// in parallel.
#ifndef SEESAW_CORE_SESSION_MANAGER_H_
#define SEESAW_CORE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/seesaw_searcher.h"
#include "core/service.h"

namespace seesaw::core {

/// Opaque handle for a live search session.
using SessionId = uint64_t;

// SessionLimits (the lifecycle/admission policy this manager enforces) is
// defined in core/service.h so ServiceOptions can embed it — this header
// includes service.h, not the other way around.

/// Cumulative lifecycle counters (diagnostics; snapshot via
/// SessionManager::lifecycle_stats).
struct LifecycleStats {
  size_t created = 0;         ///< Sessions successfully registered.
  size_t closed = 0;          ///< Explicit Close() calls that succeeded.
  size_t evicted = 0;         ///< Sessions removed by idle-TTL sweeps.
  size_t quota_rejected = 0;  ///< CreateSession calls refused by quota.
  size_t busy_rejected = 0;   ///< Acquire calls refused by the in-flight cap.
};

/// RAII in-flight slot on one session: holds the session alive (shared_ptr)
/// and a unit of its in-flight budget; both release on destruction. Obtained
/// from SessionManager::Acquire. Movable, not copyable.
///
/// The slot counter is an atomic rather than registry-guarded state, same
/// pattern (and exemption rationale) as PrefetchBudget: it is a pure
/// admission throttle — no data is published through it, the session state
/// it gates is handed over by the shared_ptr — so relaxed ordering and a
/// lock-free release are correct.
class SessionLease {
 public:
  SessionLease() = default;
  ~SessionLease() { Reset(); }

  SessionLease(SessionLease&& other) noexcept
      : session_(std::move(other.session_)),
        inflight_(std::move(other.inflight_)) {}
  SessionLease& operator=(SessionLease&& other) noexcept {
    if (this != &other) {
      Reset();
      session_ = std::move(other.session_);
      inflight_ = std::move(other.inflight_);
    }
    return *this;
  }
  SessionLease(const SessionLease&) = delete;
  SessionLease& operator=(const SessionLease&) = delete;

  bool valid() const { return session_ != nullptr; }
  SeeSawSearcher* operator->() const { return session_.get(); }
  SeeSawSearcher& operator*() const { return *session_; }
  SeeSawSearcher* get() const { return session_.get(); }

  /// Releases the slot (and the session reference) early.
  ///
  /// Memory-order audit (PR 7 contract style): the decrement stays
  /// `relaxed` — the slot counter is a pure throttle, and the session state
  /// the lease guarded travels through the shared_ptr, not the counter —
  /// but the balance invariant is now CHECK-enforced rather than
  /// comment-enforced. RAII makes a double release unreachable through the
  /// public API (the constructor is private, moves null the source, Reset
  /// clears `inflight_` before returning), so a trip here means lease
  /// internals were broken; the failure it prevents is the PrefetchBudget
  /// one — an unsigned wrap to SIZE_MAX that would read as "forever busy"
  /// and brick the session for every future Acquire. Stress coverage:
  /// session_lifecycle_test.cc, LeaseCounterBalancedUnderChurn.
  void Reset() {
    if (inflight_) {
      const size_t prev = inflight_->fetch_sub(1, std::memory_order_relaxed);
      SEESAW_CHECK_GT(prev, 0u)
          << "SessionLease::Reset without a live in-flight slot";
    }
    inflight_.reset();
    session_.reset();
  }

 private:
  friend class SessionManager;
  SessionLease(std::shared_ptr<SeeSawSearcher> session,
               std::shared_ptr<std::atomic<size_t>> inflight)
      : session_(std::move(session)), inflight_(std::move(inflight)) {}

  std::shared_ptr<SeeSawSearcher> session_;
  std::shared_ptr<std::atomic<size_t>> inflight_;
};

/// Mutex-guarded registry of live sessions sharing one worker pool.
class SessionManager {
 public:
  /// Think-time speculations in flight across *all* sessions of one
  /// manager, so idle sessions cannot starve foreground lookups on the
  /// shared pool. A slot covers a session's whole speculative pipeline —
  /// including the speculative aligner *fit*, which burns a worker's CPU
  /// outright (a pure scan mostly contends for memory bandwidth) — so the
  /// cap bounds background compute, not just background scans.
  static constexpr size_t kMaxSpeculationsInFlight = 2;

  /// `service` must outlive the manager. `num_threads` sizes the shared
  /// lookup pool (0 = hardware default). Sessions speculate when the
  /// service's `search.prefetch` is on. `limits` is the lifecycle/admission
  /// policy (defaults: no quota, no TTL, no in-flight cap).
  explicit SessionManager(const SeeSawService& service, size_t num_threads = 0,
                          const SessionLimits& limits = {});

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a session from a category-name text query. `user` is the quota
  /// key ("" = anonymous; anonymous sessions are quota-checked as one user).
  StatusOr<SessionId> CreateSession(const std::string& text_query,
                                    const std::string& user = "")
      SEESAW_EXCLUDES(mu_);

  /// Opens a session from a unit-norm query vector.
  StatusOr<SessionId> CreateSession(linalg::VectorF query_vector,
                                    const std::string& user = "")
      SEESAW_EXCLUDES(mu_);

  /// The session for `id`, or nullptr when the id is unknown or closed. The
  /// returned shared_ptr keeps the session alive even if another thread
  /// closes or evicts it mid-use. Does not count against the in-flight cap
  /// and does not refresh the idle clock — serving paths use Acquire().
  std::shared_ptr<SeeSawSearcher> Find(SessionId id) const
      SEESAW_EXCLUDES(mu_);

  /// Claims an in-flight slot on the session: NotFound for unknown ids,
  /// ResourceExhausted ("busy") when the session is already at
  /// limits.max_inflight_per_session. Refreshes the idle clock.
  StatusOr<SessionLease> Acquire(SessionId id) SEESAW_EXCLUDES(mu_);

  /// Validates client-supplied feedback before it reaches a session:
  /// InvalidArgument when image_idx is not an image of the service's
  /// dataset or a box has a non-finite coordinate. Sessions index patch
  /// tables by image_idx unchecked, so serving front ends call this first.
  Status CheckFeedback(const ImageFeedback& feedback) const;

  /// Refreshes the idle clock without claiming a slot. False when the id is
  /// unknown.
  bool Touch(SessionId id) SEESAW_EXCLUDES(mu_);

  /// Evicts every session whose idle time exceeds limits.idle_ttl_seconds
  /// and that has no lease in flight. Returns the number evicted. No-op
  /// (returns 0) when the TTL is 0.
  size_t SweepIdle() SEESAW_EXCLUDES(mu_);

  /// Closes (unregisters) a session. NotFound for unknown or already-closed
  /// ids. In-flight shared_ptrs stay valid; the state is freed when the last
  /// one drops.
  Status Close(SessionId id) SEESAW_EXCLUDES(mu_);

  size_t num_sessions() const SEESAW_EXCLUDES(mu_);

  /// Live sessions registered under `user` (quota diagnostics).
  size_t SessionsForUser(const std::string& user) const SEESAW_EXCLUDES(mu_);

  /// Cumulative lifecycle counters (created/closed/evicted/rejected).
  LifecycleStats lifecycle_stats() const SEESAW_EXCLUDES(mu_);

  /// The lifecycle/admission limits this manager enforces.
  const SessionLimits& limits() const { return limits_; }

  /// The lookup pool shared by every session of this manager.
  ThreadPool& pool() { return pool_; }

  /// Speculations (fit and/or scan stages) currently in flight across all
  /// sessions (diagnostics).
  size_t prefetches_in_flight() const { return budget_.in_flight(); }

  /// Overrides the idle clock (monotonic nanoseconds) so TTL tests are
  /// deterministic instead of sleep-based. Pass nullptr to restore the
  /// steady clock.
  void set_clock_for_testing(std::function<int64_t()> now_ns)
      SEESAW_EXCLUDES(mu_);

 private:
  friend class SeeSawService;

  /// One registry slot: the session, its quota key, its idle clock, and its
  /// in-flight lease counter (shared with outstanding leases, see
  /// SessionLease for the atomic-exemption rationale).
  struct Entry {
    std::shared_ptr<SeeSawSearcher> session;
    std::string user;
    int64_t last_touch_ns = 0;
    std::shared_ptr<std::atomic<size_t>> inflight;
  };

  StatusOr<SessionId> Register(std::unique_ptr<SeeSawSearcher> session,
                               const std::string& user) SEESAW_EXCLUDES(mu_);

  int64_t NowNs() const SEESAW_REQUIRES(mu_);
  /// Drops one live-session count for `user` (on close/evict).
  void ReleaseUserSlot(const std::string& user) SEESAW_REQUIRES(mu_);

  /// Called by the owning service's move operations so the back-pointer
  /// tracks the service's address.
  void RebindService(const SeeSawService* service) { service_ = service; }

  const SeeSawService* service_;
  SessionLimits limits_;
  // Declared before the pool: the pool's destructor drains queued
  // speculations, which release budget slots, so the budget must die last.
  PrefetchBudget budget_;
  ThreadPool pool_;
  mutable Mutex mu_;
  SessionId next_id_ SEESAW_GUARDED_BY(mu_) = 1;
  std::unordered_map<SessionId, Entry> sessions_ SEESAW_GUARDED_BY(mu_);
  /// Live-session count per user key (quota accounting).
  std::unordered_map<std::string, size_t> user_sessions_
      SEESAW_GUARDED_BY(mu_);
  LifecycleStats stats_ SEESAW_GUARDED_BY(mu_);
  /// Test-only clock override; empty = steady_clock.
  std::function<int64_t()> clock_override_ SEESAW_GUARDED_BY(mu_);
};

}  // namespace seesaw::core

#endif  // SEESAW_CORE_SESSION_MANAGER_H_
