// ShardedStore: the remote fan-out. One logical table is served by N
// RemoteStore children (net/remote_store.h), each a shard server holding
// its PartitionRange slice; every scan is scattered to them and merged. An
// in-process table is one ExactStore, whose TopKBatch already splits rows
// across pool workers.
//
// Correctness contract: results are bitwise identical to a single ExactStore
// over the whole table, for every shard count, because
//   1. each child holds its rows verbatim, so it scores them with exactly
//      the bits the single store would;
//   2. each child returns its exact local top-k under the canonical
//      (score desc, id asc) order, and the global top-k is a subset of the
//      union of local top-ks;
//   3. the merge re-sorts the union under the same total order, and global
//      ids are unique, so the selection is the same set in the same order.
//
// Exclusions: the session keeps ONE global SeenSet; each lookup slices the
// per-shard view out of it (SeenSet::Slice, a word-shift copy).
//
// Cancellation: the ScanControl token is propagated to every child, and the
// store checkpoints before dispatching each shard, so a cancelled lookup
// skips the shards not yet started.
#ifndef SEESAW_STORE_SHARDED_STORE_H_
#define SEESAW_STORE_SHARDED_STORE_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "store/vector_store.h"

namespace seesaw::store {

/// Row-range-partitioned store over N child VectorStores.
class ShardedStore : public VectorStore {
 public:
  /// The row range [first, first+count) shard `s` of `num_shards` owns over
  /// an `n`-row table: base = n/num_shards rows each, the first
  /// n%num_shards shards one extra. Shard servers slice their table rows
  /// with it, so every deployment partitions identically; the bitwise
  /// remote-vs-local parity contract starts here.
  static std::pair<size_t, size_t> PartitionRange(size_t n, size_t num_shards,
                                                  size_t s);

  /// Assembles a sharded store from already-built children (RemoteStores
  /// connected to shard servers). Children are taken in shard order: child
  /// c serves global rows [sum(sizes 0..c-1), +size(c)), so callers must
  /// list them in the same order PartitionRange numbers shards. All
  /// children must share a dimensionality and be non-empty, and their
  /// sizes must sum to a table whose global ids fit in uint32_t
  /// (InvalidArgument otherwise: the sizes come from peers).
  static StatusOr<ShardedStore> CreateFromChildren(
      std::vector<std::unique_ptr<VectorStore>> children);

  size_t size() const override { return begin_.back(); }
  size_t dim() const override { return dim_; }

  /// Fans the shards out on `pool` (nested ParallelFor is safe), slicing
  /// the global seen set per shard and merging per-shard results under the
  /// canonical order: exactly equal to a single ExactStore's scan.
  /// `control` is propagated to every child and checkpointed per shard.
  std::vector<std::vector<SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
      ThreadPool* pool, const ScanControl& control) const override;
  using VectorStore::TopKBatch;

  linalg::VecSpan GetVector(uint32_t id) const override;

  /// Global id -> (shard index, shard-local id).
  std::pair<size_t, uint32_t> Locate(uint32_t global_id) const;

 private:
  ShardedStore(std::vector<std::unique_ptr<VectorStore>> shards,
               std::vector<uint32_t> begin, size_t dim)
      : shards_(std::move(shards)), begin_(std::move(begin)), dim_(dim) {}

  std::vector<std::unique_ptr<VectorStore>> shards_;
  std::vector<uint32_t> begin_;  // size shards_.size()+1, begin_[0] == 0
  size_t dim_ = 0;
};

}  // namespace seesaw::store

#endif  // SEESAW_STORE_SHARDED_STORE_H_
