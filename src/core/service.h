// SeeSawService: the "server layer" of the paper's component diagram (§2) —
// a single entry point that owns the preprocessed dataset and hands out
// search sessions, the API an application (like the paper's web UI) builds
// on.
//
//   auto service = SeeSawService::Create(dataset, options);
//   auto session = service->StartSession("wheelchair");
//   auto page = (*session)->NextBatch(10);
//   (*session)->AddFeedback({image, /*relevant=*/true, boxes});
//   (*session)->Refit();
#ifndef SEESAW_CORE_SERVICE_H_
#define SEESAW_CORE_SERVICE_H_

#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/embedded_dataset.h"
#include "core/seesaw_searcher.h"

namespace seesaw::core {

class SessionManager;

/// Session lifecycle and admission limits for one SessionManager. Zero
/// always means "unlimited / disabled", so the default is the pre-serving
/// behaviour (no quotas, no eviction, no in-flight cap). Lives here (not in
/// session_manager.h) so ServiceOptions can embed it; the semantics are
/// documented on the SessionManager methods that enforce each limit.
struct SessionLimits {
  /// Live sessions one user key may hold at once (CreateSession beyond the
  /// quota is a typed ResourceExhausted). 0 = unlimited.
  size_t max_sessions_per_user = 0;
  /// Sessions idle (no Acquire/Touch) longer than this are evicted by the
  /// next SweepIdle(). 0 = never evict.
  double idle_ttl_seconds = 0.0;
  /// Concurrent SessionLeases per session; Acquire beyond the cap is a
  /// typed ResourceExhausted ("busy"). 0 = unlimited. Serving front ends
  /// set 1, which also enforces the searcher's single-threaded contract.
  size_t max_inflight_per_session = 0;
};

/// Service configuration: preprocessing plus per-session search options.
/// With `search.prefetch` on, managed sessions speculate during think time,
/// at most SessionManager::kMaxSpeculationsInFlight at once across all of
/// them.
struct ServiceOptions {
  PreprocessOptions preprocess;
  SeeSawOptions search;
  /// Optional path to a preprocessing cache: when the file exists it is
  /// loaded instead of re-embedding; when it does not, preprocessing runs
  /// and the cache is written.
  std::string cache_path;
  /// Worker threads of the shared session pool (0 = hardware default).
  size_t session_threads = 0;
  /// Lifecycle/admission policy for sessions(): per-user quotas, idle-TTL
  /// eviction, per-session in-flight caps. Defaults are all "unlimited".
  SessionLimits session_limits;
};

/// Owns the embedded dataset and creates per-query search sessions.
/// Concurrent serving goes through sessions(): managed sessions live behind
/// integer ids and share one lookup ThreadPool. StartSession remains for
/// single-user embedding into other drivers (benchmarks, examples); each
/// individual session is single-threaded either way.
class SeeSawService {
 public:
  // Out of line: SessionManager is only forward-declared here. Moves are not
  // thread-safe — they relocate the registry mutex itself — and must be
  // externally serialized against sessions() (in practice they happen during
  // single-threaded setup, before any session exists).
  SeeSawService(SeeSawService&&) noexcept;
  SeeSawService& operator=(SeeSawService&&) noexcept
      SEESAW_NO_THREAD_SAFETY_ANALYSIS;
  ~SeeSawService();

  /// Runs (or loads) preprocessing. `dataset` must outlive the service.
  static StatusOr<SeeSawService> Create(const data::Dataset& dataset,
                                        const ServiceOptions& options);

  /// Starts a session from a category-name text query (NotFound for unknown
  /// names).
  StatusOr<std::unique_ptr<SeeSawSearcher>> StartSession(
      const std::string& text_query) const;

  /// Starts a session from an arbitrary query vector (must be unit-normed,
  /// matching the embedding dimension).
  StatusOr<std::unique_ptr<SeeSawSearcher>> StartSession(
      linalg::VectorF query_vector) const;

  /// The session registry for concurrent serving (created on first use and
  /// sized by ServiceOptions::session_threads). Safe to call from multiple
  /// threads; the manager follows the service if it is moved.
  SessionManager& sessions() SEESAW_EXCLUDES(*sessions_mu_);

  const EmbeddedDataset& embedded() const { return *embedded_; }

 private:
  SeeSawService(const data::Dataset* dataset, ServiceOptions options);

  const data::Dataset* dataset_;
  ServiceOptions options_;
  std::unique_ptr<EmbeddedDataset> embedded_;
  // Behind unique_ptrs so the service stays movable: the mutex guards the
  // lazy creation below, and the manager is re-pointed at the service's new
  // address by the move operations (which are externally serialized — see
  // above — hence the escape hatch on the move assignment).
  std::unique_ptr<Mutex> sessions_mu_;
  std::unique_ptr<SessionManager> sessions_ SEESAW_GUARDED_BY(*sessions_mu_);
};

}  // namespace seesaw::core

#endif  // SEESAW_CORE_SERVICE_H_
