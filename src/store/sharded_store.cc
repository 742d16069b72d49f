#include "store/sharded_store.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"

namespace seesaw::store {

std::pair<size_t, size_t> ShardedStore::PartitionRange(size_t n,
                                                       size_t num_shards,
                                                       size_t s) {
  SEESAW_CHECK_GT(num_shards, size_t{0});
  SEESAW_CHECK_LT(s, num_shards);
  const size_t base = n / num_shards;
  const size_t extra = n % num_shards;
  const size_t first = s * base + std::min(s, extra);
  const size_t count = base + (s < extra ? 1 : 0);
  return {first, count};
}

StatusOr<ShardedStore> ShardedStore::CreateFromChildren(
    std::vector<std::unique_ptr<VectorStore>> children) {
  if (children.empty()) {
    return Status::InvalidArgument("ShardedStore: no children");
  }
  std::vector<uint32_t> begin(children.size() + 1, 0);
  uint64_t rows = 0;
  for (size_t s = 0; s < children.size(); ++s) {
    if (children[s] == nullptr || children[s]->size() == 0) {
      return Status::InvalidArgument("ShardedStore: empty child store");
    }
    if (children[s]->dim() != children[0]->dim()) {
      return Status::InvalidArgument(
          "ShardedStore: children disagree on dimensionality");
    }
    // Remote children report sizes their peers chose: a sum past the
    // uint32_t id space would wrap the partition starts.
    rows += children[s]->size();
    if (rows > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument(
          "ShardedStore: children hold more rows than uint32_t ids address");
    }
    begin[s + 1] = static_cast<uint32_t>(rows);
  }
  const size_t d = children[0]->dim();
  return ShardedStore(std::move(children), std::move(begin), d);
}

std::pair<size_t, uint32_t> ShardedStore::Locate(uint32_t global_id) const {
  SEESAW_CHECK_LT(global_id, begin_.back());
  // First partition start past the id, minus one, owns it.
  size_t s = static_cast<size_t>(
      std::upper_bound(begin_.begin(), begin_.end(), global_id) -
      begin_.begin() - 1);
  return {s, global_id - begin_[s]};
}

linalg::VecSpan ShardedStore::GetVector(uint32_t id) const {
  auto [s, local] = Locate(id);
  return shards_[s]->GetVector(local);
}

std::vector<std::vector<SearchResult>> ShardedStore::TopKBatch(
    std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
    ThreadPool* pool, const ScanControl& control) const {
  const size_t num_queries = queries.size();
  if (num_queries == 0) return {};
  for (linalg::VecSpan q : queries) SEESAW_CHECK_EQ(q.size(), dim_);
  if (k == 0) return std::vector<std::vector<SearchResult>>(num_queries);

  const size_t num_shards = shards_.size();
  // per_shard[s][q]: local hits remapped to global ids. A shard skipped by
  // cancellation leaves its slot empty (size() != num_queries). Merge state
  // is per-call and lock-free by partitioning: worker s writes only slot s
  // of a pre-sized vector, and the merge below reads the slots only after
  // ParallelFor's latch, whose completion is mutex-published. The store
  // object itself stays const throughout (scans share it freely).
  std::vector<std::vector<std::vector<SearchResult>>> per_shard(num_shards);
  auto scan_shard = [&](size_t s) {
    // Checkpoint before the dispatch so shards not yet started are skipped
    // outright once the token trips; the child checkpoints per block/list.
    if (control.ShouldStop()) return;
    SeenSet local = seen.Slice(begin_[s], begin_[s + 1]);
    per_shard[s] = shards_[s]->TopKBatch(queries, k, local, pool, control);
    const uint32_t offset = begin_[s];
    for (auto& hits : per_shard[s]) {
      for (SearchResult& hit : hits) hit.id += offset;
    }
  };
  if (pool == nullptr || pool->num_threads() <= 1 || num_shards <= 1) {
    for (size_t s = 0; s < num_shards; ++s) scan_shard(s);
  } else {
    pool->ParallelFor(num_shards, [&](size_t b, size_t e) {
      for (size_t s = b; s < e; ++s) scan_shard(s);
    });
  }

  // The global top-k under BetterResult is unique (ids are unique), so
  // re-selecting from the union of exact per-shard top-ks reproduces the
  // single-store result exactly.
  std::vector<std::vector<SearchResult>> out(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<SearchResult> merged;
    for (size_t s = 0; s < num_shards; ++s) {
      if (per_shard[s].size() != num_queries) continue;  // cancelled shard
      const auto& hits = per_shard[s][q];
      merged.insert(merged.end(), hits.begin(), hits.end());
    }
    const size_t keep = std::min(k, merged.size());
    std::partial_sort(merged.begin(), merged.begin() + keep, merged.end(),
                      BetterResult);
    merged.resize(keep);
    out[q] = std::move(merged);
  }
  return out;
}

}  // namespace seesaw::store
