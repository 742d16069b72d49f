// Shared machinery for vector-query searchers: seen-image bookkeeping,
// max-pooled image ranking over the patch store, mapping of box feedback to
// patch labels (§4.3), and think-time speculative prefetch of the next
// batch — including speculation *through* a query-moving refit, whose fit
// the real refit adopts.
#ifndef SEESAW_CORE_SEARCHER_BASE_H_
#define SEESAW_CORE_SEARCHER_BASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/aligner.h"
#include "core/embedded_dataset.h"
#include "core/searcher.h"
#include "store/seen_set.h"

namespace seesaw::core {

/// One labeled patch derived from image feedback.
struct PatchLabel {
  uint32_t vec_id = 0;
  bool positive = false;
};

/// Shared in-flight speculation counter for the sessions of one manager.
/// Thread-safe; sessions without a budget speculate without a cap.
///
/// Accounting is a single atomic, exempt from GUARDED_BY (see
/// common/thread_annotations.h): the counter is a pure admission throttle,
/// no data is ever published through it — slot holders synchronize their
/// results via TaskHandle completion — so every access is
/// memory_order_relaxed, and a momentarily stale in_flight() is fine (the
/// CAS in TryAcquire still makes each admission decision against a value
/// that was true at some instant, which is all a cap needs).
class PrefetchBudget {
 public:
  /// `max_in_flight` = 0 means unlimited.
  explicit PrefetchBudget(size_t max_in_flight) : max_(max_in_flight) {}

  /// Claims a slot; false when the budget is exhausted.
  bool TryAcquire() {
    size_t cur = in_flight_.value.load(std::memory_order_relaxed);
    for (;;) {
      if (max_ != 0 && cur >= max_) return false;
      if (in_flight_.value.compare_exchange_weak(
              cur, cur + 1, std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  /// Returns a slot. Every Release must pair with exactly one successful
  /// TryAcquire (SpecTask::ReleaseBudgetOnce is the callers' single-release
  /// gate). An unmatched Release would wrap the unsigned counter to
  /// SIZE_MAX and silently disable speculation manager-wide (in_flight >=
  /// max forever, every future TryAcquire refused) — a negative balance is
  /// a programming error worth an abort, not a quiet throttle.
  void Release() {
    size_t prev = in_flight_.value.fetch_sub(1, std::memory_order_relaxed);
    SEESAW_CHECK_GT(prev, 0u)
        << "PrefetchBudget::Release without a matching TryAcquire";
  }

  size_t in_flight() const {
    return in_flight_.value.load(std::memory_order_relaxed);
  }

 private:
  const size_t max_;  // immutable after construction; read without a lock
  /// Padded to its own line: one budget is shared by every session of a
  /// manager, so under load many pool workers CAS/decrement it while the
  /// const `max_` beside it is read on each admission — unpadded, the
  /// budget's write traffic would also evict readers of whatever the
  /// enclosing object packs around it (memory-audit contract, PR 9).
  CacheAligned<std::atomic<size_t>> in_flight_;
};

/// Per-searcher speculation counters (bench_prefetch_latency reports these).
struct PrefetchStats {
  size_t scheduled = 0;    ///< Speculations scheduled (either shape).
  size_t hits = 0;         ///< NextBatch calls served from a speculation.
  size_t misses = 0;       ///< Speculations invalid at consume time.
  size_t invalidated = 0;  ///< Speculations cancelled eagerly (feedback/refit).
  size_t throttled = 0;    ///< Speculations skipped: shared budget exhausted.
  // Through-the-refit accounting (zero for same-query speculations):
  size_t refit_fits = 0;       ///< Speculative aligner fits launched.
  size_t refit_adopted = 0;    ///< Refits that adopted the speculative fit
                               ///< instead of fitting again.
  size_t hits_post_refit = 0;  ///< Subset of `hits` whose scan ran with a
                               ///< speculatively fitted query.
};

/// Base class holding the embedded dataset and the seen sets.
///
/// Seen state is kept at both granularities the system needs: per image for
/// the interaction loop, and per patch vector so the store scan tests a
/// reusable bitset instead of rebuilding an exclusion closure every batch.
///
/// Think-time speculation: with prefetch enabled and a thread pool, the next
/// batch's lookup overlaps the user's inspection time. Speculate() predicts
/// that the user labels exactly the batch just returned. For a searcher
/// whose query never moves (zero-shot) the scan launches at once with the
/// current query. For one that refits, the speculation waits until the batch
/// is fully labeled, clones the aligner state, and runs fit → scan on the
/// pool; Refit() then adopts that fit instead of running its own (aligner
/// determinism contract, core/aligner.h), so each round fits once.
///
/// Threading: the searcher itself stays single-threaded (one user drives one
/// session). Speculative tasks never touch the searcher — they work on
/// snapshot copies of the query, the seen sets and (for refit speculation)
/// the aligner state, and only meet the searcher again through TaskHandles,
/// so feedback can mutate the live state while a speculation is in flight.
///
/// Speculation state machine (one speculation at a time):
///
///   Speculate, no fit factory ───────────────▶ [kRunning: scan(query)]
///   Speculate, fit factory ──▶ [kAwaitLabels]
///                                  │ last predicted image labeled: Arm()
///                                  ▼
///                    [kRunning: fit(clone) → scan(fitted query)]
///                                  │ Refit() at the clone's fit generation
///                                  ▼
///                    [adopted: Refit took the fit; the next NextBatch
///                     consumes the scan]
///
/// Exits from every state: feedback outside the predicted batch, a Refit()
/// at any other fit generation (or after a failed fit), a changed lookup
/// (n / query / seen set) at consume time — each cancels the speculation
/// (the token stops the scan at its next in-scan checkpoint) and the caller
/// recomputes synchronously, so results are bitwise identical to the
/// non-speculative path in all cases.
class SearcherBase : public Searcher {
 public:
  explicit SearcherBase(const EmbeddedDataset& embedded);

  /// Cancels and drains any in-flight speculation.
  ~SearcherBase() override;

  const EmbeddedDataset& embedded() const { return *embedded_; }
  size_t num_seen() const { return seen_images_.count(); }
  bool IsSeen(uint32_t image_idx) const { return seen_images_.Test(image_idx); }

  /// Worker pool for parallel store scans and speculative prefetch; null
  /// (the default) keeps lookups on the calling thread and disables
  /// speculation. Managed sessions share their SessionManager's pool. The
  /// pool must outlive the searcher.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// Think-time speculation switch (off by default; needs a thread pool).
  /// Subclasses opt in by calling Speculate / TakePrefetched from NextBatch
  /// and TakeArmedFit from Refit.
  void set_prefetch(bool enabled) { prefetch_ = enabled; }

  /// Optional cross-session in-flight cap (owned by the SessionManager; must
  /// outlive every queued speculation, which the manager guarantees by
  /// joining its pool first). A slot covers a whole speculation, fit stage
  /// included; without a budget a searcher speculates uncapped.
  void set_prefetch_budget(PrefetchBudget* budget) { budget_ = budget; }

  const PrefetchStats& prefetch_stats() const { return prefetch_stats_; }

 protected:
  /// Invoked on the searcher's thread at arm time — the moment the predicted
  /// batch becomes fully labeled — to clone the session's fit state
  /// (QueryAligner::Snapshot). The clone is fitted on a pool thread.
  using FitFactory = std::function<AlignerSnapshot()>;

  /// Marks an image (and all of its patch vectors) as shown/labeled.
  /// Invalidates an in-flight speculation when the image deviates from the
  /// predicted batch; arms a waiting speculation when it completes it.
  void MarkSeen(uint32_t image_idx);

  /// Top-n unseen images by max patch score under `query` (best first).
  /// Retries the store with a growing k until n distinct unseen images are
  /// found or the store is exhausted.
  std::vector<ScoredImage> TopImages(linalg::VecSpan query, size_t n) const;

  /// Speculates the *next* batch's TopImages: same n, seen sets snapshotted
  /// as if every image of `batch` had been labeled. Supersedes any earlier
  /// speculation. With an empty `fit_factory` the query is predicted not to
  /// move and the scan of `query` launches now. Otherwise `query` is unused:
  /// the speculation idles until every image of `batch` has been labeled,
  /// then `fit_factory` clones the fit state and fit → scan launches. The
  /// shared budget is charged at launch, when CPU is about to burn. No-op
  /// when prefetch is off, the pool is null, or the batch is empty (store
  /// exhausted).
  void Speculate(linalg::VecSpan query, const std::vector<ScoredImage>& batch,
                 size_t n, FitFactory fit_factory = nullptr);

  /// Refit()'s half of a speculation. When the armed speculation cloned the
  /// fit state at `fit_generation` and its fit succeeded, waits for the fit
  /// stage only (the scan keeps running) and hands over the outcome for
  /// QueryAligner::Adopt; the speculation stays consumable. Otherwise
  /// cancels any speculation and returns nullopt: the caller fits itself.
  std::optional<FitOutcome> TakeArmedFit(uint64_t fit_generation);

  /// Consumes the speculation if it exactly matches the requested lookup
  /// (generation, query bits, n, and the live seen set all unchanged from
  /// the prediction); otherwise cancels it and returns nullopt, and the
  /// caller computes synchronously. A valid consume waits for the task
  /// (helping the pool drain) and returns its result, which is bitwise
  /// identical to what TopImages would return now.
  std::optional<std::vector<ScoredImage>> TakePrefetched(linalg::VecSpan query,
                                                         size_t n);

  /// Cancels and forgets any in-flight speculation.
  void InvalidatePrefetch();

  /// Converts image feedback to patch labels: for a relevant image, patches
  /// overlapping any feedback box are positive and the rest negative; for an
  /// irrelevant image every patch is negative. (The coarse tile of a
  /// relevant image always overlaps, hence is always positive — exactly the
  /// paper's rule.)
  std::vector<PatchLabel> LabelPatches(const ImageFeedback& feedback) const;

 private:
  /// Lifecycle of the single speculation slot (see the class comment).
  enum class SpecStage {
    kAwaitLabels,  ///< Refit speculation waiting for the batch's labels;
                   ///< nothing submitted, no budget held.
    kRunning,      ///< Scan (after the fit, if any) submitted to the pool.
  };

  /// Everything a speculative task reads or writes, shared between the
  /// searcher and the pool tasks so the tasks never dereference the searcher
  /// (which may be mutated or destroyed while they run).
  ///
  /// Threading contract (no mutex, by design — so no GUARDED_BY): each
  /// non-atomic field has exactly one writer phase, and every cross-thread
  /// read is ordered after that writer by a TaskHandle wait (whose
  /// completion is published under the handle's mutex with release/acquire
  /// semantics — see TaskHandle::State::done). Concretely:
  ///  - query/n/seen_patches/fit_state: written on the searcher's thread
  ///    before the task is submitted (Submit's queue mutex orders the
  ///    hand-off). With a fit stage, `query` is instead written by the fit
  ///    task, which also drops fit_state; both are read only after
  ///    fit_handle.Wait().
  ///  - fitted: written by the fit task; read, and moved out, on the
  ///    searcher's thread after fit_handle.Wait(). The scan task never
  ///    touches it (it reads `query`), so adoption cannot race the scan.
  ///  - result: written by the scan task, read after handle.Wait().
  ///  - cancel / budget_released: atomics; safe from any thread at any time.
  /// The thread-safety analysis cannot check handle-ordered hand-offs (it
  /// only knows capabilities), which is exactly why this struct keeps the
  /// explicit per-field contract above and the TSan leg keeps running.
  struct SpecTask {
    linalg::VectorF query;        // lookup query: copied at Speculate, or
                                  // written by the fit task (empty when the
                                  // fit failed: the scan is skipped)
    store::SeenSet seen_patches;  // snapshot incl. the predicted batch
    size_t n = 0;
    CancellationToken cancel;
    std::vector<ScoredImage> result;  // written by the scan task, read after
                                      // Wait
    std::optional<AlignerSnapshot> fit_state;  // cloned at arm (fit only)
    std::optional<FitOutcome> fitted;  // the fit task's successful outcome

    /// Returns the budget slot exactly once: at task completion, or eagerly
    /// at cancellation so a cancelled-but-still-queued task doesn't hold a
    /// slot and throttle other sessions' live speculations. (The cancelled
    /// task may thus briefly overlap a fresh one — it stops at its next
    /// checkpoint.)
    void ReleaseBudgetOnce() {
      if (budget != nullptr && !budget_released.exchange(true)) {
        budget->Release();
      }
    }
    PrefetchBudget* budget = nullptr;
    std::atomic<bool> budget_released{false};
  };

  /// The searcher-side view of the single speculation slot. Every field is
  /// read and written on the searcher's thread only (one user drives one
  /// session — the class contract); pool tasks see none of this, only the
  /// shared SpecTask above. Stage transitions (kAwaitLabels → kRunning →
  /// adopted) therefore need no lock: they are ordinary single-threaded
  /// writes, and the cross-thread edges all run through `task` and the two
  /// handles.
  struct Speculation {
    std::shared_ptr<SpecTask> task;
    store::SeenSet seen_images;  // predicted image-level seen set
    uint64_t expected_generation = 0;
    SpecStage stage = SpecStage::kAwaitLabels;
    /// Whether task->query is published and safe to read/compare on the
    /// searcher's thread: true from the start without a fit stage, true
    /// once TakeArmedFit adopted the fit (its fit handle was waited, which
    /// orders the fit task's write).
    bool query_known = false;
    /// Predicted-batch images not yet labeled (kAwaitLabels arming counter).
    size_t images_remaining = 0;
    FitFactory fit_factory;  // empty = no fit stage
    uint64_t fit_generation = 0;  // of the cloned fit state (set at Arm)
    TaskHandle fit_handle;  // the fit stage, when there is one
    TaskHandle handle;      // the scan (after the fit, if any)
  };

  /// The pure lookup: like TopImages but over explicit inputs only, so it
  /// can run on a pool thread against snapshots. Checks `cancel` (when
  /// non-null) between store rounds and returns early when requested.
  static std::vector<ScoredImage> ComputeTopImages(
      const EmbeddedDataset& embedded, ThreadPool* pool, linalg::VecSpan query,
      size_t n, const store::SeenSet& seen_patches,
      const CancellationToken* cancel);

  /// kAwaitLabels → kRunning: charges the budget, clones the fit state via
  /// the factory (on the calling = searcher's thread) when there is one, and
  /// submits the fit (if any) and the scan to the pool.
  void Arm();

  /// Cancels the speculation's tasks (if any), returns its budget slot and
  /// parks its handles for the destructor to drain.
  void RetireSpeculation(Speculation&& spec);

  const EmbeddedDataset* embedded_;
  store::SeenSet seen_images_;   // over image indices
  store::SeenSet seen_patches_;  // over patch vector ids, fed to the store
  ThreadPool* pool_ = nullptr;

  bool prefetch_ = false;
  PrefetchBudget* budget_ = nullptr;
  PrefetchStats prefetch_stats_;
  /// Bumped by every newly seen image (MarkSeen); a speculation predicts the
  /// generation at its consume point. Query moves need no bump: a query
  /// speculation either adopts the fit (same query) or is cancelled, and
  /// TakePrefetched compares the query bits anyway.
  uint64_t generation_ = 0;
  std::optional<Speculation> spec_;
  /// Handles of cancelled speculations that may still be running a scan
  /// round. Kept so the destructor can drain them: a task must never
  /// outlive its searcher, or it could submit nested pool work while the
  /// pool is shutting down. Pruned of finished handles on each Speculate.
  std::vector<TaskHandle> stale_speculations_;
};

}  // namespace seesaw::core

#endif  // SEESAW_CORE_SEARCHER_BASE_H_
