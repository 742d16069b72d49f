#include "store/exact_store.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/aligned.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "linalg/simd.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace seesaw::store {

namespace {

/// Rows scored per ScoreBlock call in the batched scan. Small enough that a
/// block (kRowBlock x dim floats) plus the queries stay cache-resident.
constexpr size_t kRowBlock = 32;

/// True if any of scores[0..num) might be admitted against thresholds[0..num)
/// — i.e. NOT (score < threshold) for some lane. The negated-compare keeps
/// NaN scores on the "might admit" side, so the caller's scalar admit path
/// (and with it the scan's exact result semantics, ties and NaN included)
/// stays the single source of truth; this is purely a fast reject for the
/// overwhelmingly common all-below-threshold row.
inline bool AnyCandidate(const float* scores, const float* thresholds,
                         size_t num) {
  size_t q = 0;
#if defined(__SSE2__)
  for (; q + 4 <= num; q += 4) {
    const __m128 s = _mm_loadu_ps(scores + q);
    const __m128 t = _mm_loadu_ps(thresholds + q);
    if (_mm_movemask_ps(_mm_cmpnlt_ps(s, t)) != 0) return true;
  }
#endif
  for (; q < num; ++q) {
    if (!(scores[q] < thresholds[q])) return true;
  }
  return false;
}

}  // namespace

StatusOr<ExactStore> ExactStore::Create(linalg::MatrixF vectors) {
  return Create(std::move(vectors), ExactStoreOptions{});
}

StatusOr<ExactStore> ExactStore::Create(linalg::MatrixF vectors,
                                        const ExactStoreOptions& options) {
  if (vectors.rows() == 0 || vectors.cols() == 0) {
    return Status::InvalidArgument("ExactStore: empty vector table");
  }
  ExactStore store(std::move(vectors), options);
  if (options.precision == ScanPrecision::kInt8) {
    store.quantized_ = linalg::QuantizeRows(store.vectors_);
  }
  return store;
}

std::vector<std::vector<SearchResult>> ExactStore::TopKBatch(
    std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
    ThreadPool* pool, const ScanControl& control) const {
  const size_t num_queries = queries.size();
  if (num_queries == 0) return {};
  for (linalg::VecSpan q : queries) SEESAW_CHECK_EQ(q.size(), vectors_.cols());
  // k == 0 would make the empty heaps "full" below and their Worst()
  // undefined; the answer is trivially empty anyway.
  if (k == 0) return std::vector<std::vector<SearchResult>>(num_queries);

  const size_t n = vectors_.rows();
  const size_t dim = vectors_.cols();
  const bool int8 = options_.precision == ScanPrecision::kInt8;

  // Int8 scans quantize the query batch once, into one contiguous block
  // matching the Int8KernelTable::score_block layout (each query quantized
  // in place into its slot — no bounce buffer). The scratch is plain
  // per-call memory: the ParallelFor below joins before this call returns,
  // so a nested caller-runs scan on this thread gets its own locals.
  std::vector<int8_t> qdata;
  std::vector<float> qscales;
  const linalg::Int8KernelTable* int8_kernels = nullptr;
  if (int8) {
    int8_kernels = &linalg::ActiveInt8Kernels();
    qdata.resize(num_queries * dim);
    qscales.resize(num_queries);
    for (size_t q = 0; q < num_queries; ++q) {
      qscales[q] =
          linalg::QuantizeVectorInto(queries[q], qdata.data() + q * dim);
    }
  }

  size_t num_shards = 1;
  if (pool != nullptr && pool->num_threads() > 1) {
    // A couple of shards per worker evens out stragglers; never fewer rows
    // per shard than one score block.
    num_shards = std::min(pool->num_threads() * 2,
                          std::max<size_t>(1, n / kRowBlock));
  }
  const size_t rows_per_shard = (n + num_shards - 1) / num_shards;

  // heaps[shard][query]: each shard scans a disjoint row range, so shards
  // never touch each other's heaps. Each slot is padded to its own cache
  // line: the inner vector's header (pointer/size) is rewritten on every
  // Push, and unpadded slots of adjacent shards — 24 bytes apart in one
  // contiguous vector — would false-share under the per-shard fan-out.
  struct ShardHeapSlot {
    CacheAligned<std::vector<TopKHeap>> padded;
  };
  std::vector<ShardHeapSlot> heaps(num_shards);
  for (auto& slot : heaps) {
    slot.padded.value.assign(num_queries, TopKHeap(k));
  }
  auto scan_shard = [&](size_t shard) {
    const size_t begin = shard * rows_per_shard;
    const size_t end = std::min(begin + rows_per_shard, n);
    std::vector<TopKHeap>& shard_heaps = heaps[shard].padded.value;
    // Shard-task scratch: one score block, plus per-query admission
    // thresholds mirrored out of the heaps into flat arrays, so the
    // overwhelmingly common reject is one compare instead of a heap-front
    // pointer chase inside the innermost loop.
    std::vector<float> scores(kRowBlock * num_queries);
    std::vector<float> worst_score(num_queries,
                                   -std::numeric_limits<float>::infinity());
    std::vector<uint32_t> worst_id(num_queries, 0u);
    auto admit = [&](size_t q, uint32_t id, float score) {
      TopKHeap& heap = shard_heaps[q];
      if (heap.Full()) {
        if (score < worst_score[q] ||
            (score == worst_score[q] && id > worst_id[q])) {
          return;
        }
      }
      heap.Push(id, score);
      if (heap.Full()) {
        worst_score[q] = heap.Worst().score;
        worst_id[q] = heap.Worst().id;
      }
    };
    // Scores rows [r, run_end) against every query and feeds the heaps.
    auto score_run = [&](size_t r, size_t run_end) {
      if (int8) {
        int8_kernels->score_block(quantized_.Row(r),
                                  quantized_.scales.data() + r, run_end - r,
                                  dim, qdata.data(), qscales.data(),
                                  num_queries, scores.data());
      } else {
        vectors_.ScoreBlock(
            r, run_end, queries,
            linalg::MutVecSpan(scores.data(), (run_end - r) * num_queries));
      }
      for (size_t row = r; row < run_end; ++row) {
        const float* row_scores = scores.data() + (row - r) * num_queries;
        // Fast reject: until every heap is full the thresholds are -inf and
        // the filter always passes through to admit().
        if (!AnyCandidate(row_scores, worst_score.data(), num_queries)) {
          continue;
        }
        for (size_t q = 0; q < num_queries; ++q) {
          admit(q, static_cast<uint32_t>(row), row_scores[q]);
        }
      }
    };
    // Seen rows are skipped before scoring: blocks are maximal unseen runs,
    // capped at kRowBlock rows. Each block is a cancellation checkpoint: a
    // cancelled scan abandons the rest of this shard's rows (partial heaps;
    // the caller discards them).
    size_t r = begin;
    while (r < end) {
      if (seen.Test(static_cast<uint32_t>(r))) {
        ++r;
        continue;
      }
      if (control.ShouldStop()) return;
      size_t run_end = r + 1;
      while (run_end < end && run_end - r < kRowBlock &&
             !seen.Test(static_cast<uint32_t>(run_end))) {
        ++run_end;
      }
      score_run(r, run_end);
      r = run_end;
    }
  };

  if (num_shards == 1) {
    scan_shard(0);
  } else {
    pool->ParallelFor(num_shards, [&](size_t begin, size_t end) {
      for (size_t shard = begin; shard < end; ++shard) scan_shard(shard);
    });
  }

  // Merge per-shard heaps: the global top-k under BetterResult is unique, so
  // the result matches the single-shard (and single-query) scan exactly.
  std::vector<std::vector<SearchResult>> out(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    if (num_shards == 1) {
      out[q] = heaps[0].padded.value[q].TakeSorted();
      continue;
    }
    std::vector<SearchResult> merged;
    for (size_t shard = 0; shard < num_shards; ++shard) {
      const auto& items = heaps[shard].padded.value[q].items();
      merged.insert(merged.end(), items.begin(), items.end());
    }
    size_t keep = std::min(k, merged.size());
    std::partial_sort(merged.begin(), merged.begin() + keep, merged.end(),
                      BetterResult);
    merged.resize(keep);
    out[q] = std::move(merged);
  }
  return out;
}

}  // namespace seesaw::store
