// ShardedStore's merge contract over test_util::ExactShards children:
// randomized parity against a single ExactStore (bitwise identical ids and
// scores for every shard count), id/seen-set mapping, concurrent-sessions
// stress on a shared pool, and deterministic in-scan cancellation — a
// blocked scan observes a CancellationToken cancel inside one TopKBatch
// call, for ExactStore, AnnoyIndex, and ShardedStore.
#include "store/sharded_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <semaphore>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "store/annoy_index.h"
#include "store/exact_store.h"
#include "tests/test_util.h"

namespace seesaw::store {
namespace {

using linalg::MatrixF;
using linalg::VecSpan;
using linalg::VectorF;
using test_util::AsSpans;
using test_util::ExactShards;
using test_util::ExpectIdenticalResults;
using test_util::RandomQueries;
using test_util::RandomSeenSet;
using test_util::RandomTable;

constexpr size_t kShardCounts[] = {1, 2, 3, 7, 16};

/// A table whose rows repeat a handful of distinct vectors, forcing exact
/// score ties across shard boundaries (the tie-break-by-id stress case).
MatrixF DuplicateRowTable(size_t n, size_t d, size_t distinct, uint64_t seed) {
  MatrixF base = RandomTable(distinct, d, seed);
  MatrixF table(n, d);
  for (size_t i = 0; i < n; ++i) {
    auto src = base.Row(i % distinct);
    std::copy(src.begin(), src.end(), table.MutableRow(i).begin());
  }
  return table;
}

/// Asserts ShardedStore == ExactStore bitwise for single queries and for
/// batches (serial and pooled) at several k, under the given seen set.
void ExpectMatchesExact(const ExactStore& exact, const ShardedStore& sharded,
                        const std::vector<VectorF>& queries,
                        const SeenSet& seen, ThreadPool* pool) {
  ASSERT_EQ(exact.size(), sharded.size());
  std::vector<VecSpan> spans = AsSpans(queries);
  const size_t n = exact.size();
  for (size_t k : {size_t{1}, size_t{13}, n + 7}) {
    // Batch of one.
    for (const VecSpan& q : spans) {
      ExpectIdenticalResults(sharded.TopK(q, k, seen), exact.TopK(q, k, seen));
    }
    // Batched, serial and pooled.
    auto want = exact.TopKBatch(std::span<const VecSpan>(spans), k, seen,
                                /*pool=*/nullptr);
    auto serial = sharded.TopKBatch(std::span<const VecSpan>(spans), k, seen,
                                    /*pool=*/nullptr);
    auto pooled =
        sharded.TopKBatch(std::span<const VecSpan>(spans), k, seen, pool);
    ASSERT_EQ(serial.size(), want.size());
    ASSERT_EQ(pooled.size(), want.size());
    for (size_t q = 0; q < want.size(); ++q) {
      ExpectIdenticalResults(serial[q], want[q]);
      ExpectIdenticalResults(pooled[q], want[q]);
    }
  }
}

TEST(ShardedStoreTest, ValidatesInput) {
  EXPECT_FALSE(ShardedStore::CreateFromChildren({}).ok());
  // Children must agree on dimensionality.
  auto children = ExactShards(RandomTable(10, 4, 1), 2);
  children.push_back(std::move(ExactShards(RandomTable(10, 5, 1), 1)[0]));
  EXPECT_FALSE(ShardedStore::CreateFromChildren(std::move(children)).ok());
}

TEST(ShardedStoreTest, PartitionCoversEveryRowOnce) {
  // Odd row count vs shard counts that don't divide it: partitions must be
  // contiguous, non-empty, near-equal, and cover [0, n) exactly.
  const size_t n = 37;
  MatrixF table = RandomTable(n, 5, 2);
  for (size_t shards : kShardCounts) {
    size_t covered = 0;
    for (size_t s = 0; s < shards; ++s) {
      auto [first, rows] = ShardedStore::PartitionRange(n, shards, s);
      EXPECT_EQ(first, covered);
      EXPECT_GE(rows, n / shards);
      EXPECT_LE(rows, n / shards + 1);
      covered += rows;
    }
    EXPECT_EQ(covered, n);
    auto store = ShardedStore::CreateFromChildren(ExactShards(table, shards));
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store->size(), n);
    // Global-id mapping: GetVector(g) must be the original row g bitwise,
    // and Locate must invert the partition.
    for (uint32_t g = 0; g < n; ++g) {
      auto [s, local] = store->Locate(g);
      auto [first, rows] = ShardedStore::PartitionRange(n, shards, s);
      EXPECT_EQ(first + local, g);
      EXPECT_LT(local, rows);
      auto got = store->GetVector(g);
      auto want = table.Row(g);
      ASSERT_EQ(got.size(), want.size());
      for (size_t j = 0; j < got.size(); ++j) EXPECT_EQ(got[j], want[j]);
    }
  }
}

TEST(ShardedStoreTest, RandomizedParitySweep) {
  // The acceptance property: bitwise-identical TopK/TopKBatch vs a single
  // ExactStore for every shard count, across odd dims/row counts and seen
  // fractions 0 / 0.5 / 0.99.
  struct Case {
    size_t n, d;
    uint64_t seed;
  };
  const Case cases[] = {{157, 7, 3}, {523, 9, 4}, {96, 24, 5}};
  ThreadPool pool(4);
  for (const Case& c : cases) {
    MatrixF table = RandomTable(c.n, c.d, c.seed);
    auto exact = ExactStore::Create(table);
    ASSERT_TRUE(exact.ok());
    // Quantized rows ride the same sweep: a sharded int8 store must be
    // bitwise equal to a single int8 ExactStore (within-family parity; the
    // int32 accumulation is exact, so partitioning cannot perturb scores).
    ExactStoreOptions int8_options;
    int8_options.precision = ScanPrecision::kInt8;
    auto exact8 = ExactStore::Create(table, int8_options);
    ASSERT_TRUE(exact8.ok());
    auto queries = RandomQueries(4, c.d, c.seed + 100);
    for (size_t shards : kShardCounts) {
      auto sharded =
          ShardedStore::CreateFromChildren(ExactShards(table, shards));
      ASSERT_TRUE(sharded.ok());
      for (double fraction : {0.0, 0.5, 0.99}) {
        SeenSet seen = RandomSeenSet(c.n, fraction, c.seed + 7);
        ExpectMatchesExact(*exact, *sharded, queries, seen, &pool);
      }
      // An empty (capacity-0) global seen set must slice cleanly too.
      ExpectMatchesExact(*exact, *sharded, queries, EmptySeenSet(), &pool);

      auto sharded8 = ShardedStore::CreateFromChildren(
          ExactShards(table, shards, ScanPrecision::kInt8));
      ASSERT_TRUE(sharded8.ok());
      for (double fraction : {0.0, 0.5, 0.99}) {
        SeenSet seen = RandomSeenSet(c.n, fraction, c.seed + 7);
        ExpectMatchesExact(*exact8, *sharded8, queries, seen, &pool);
      }
    }
  }
}

TEST(ShardedStoreTest, DuplicateScoresTieBreakAcrossShardBoundaries) {
  // Rows repeat 3 distinct vectors, so every shard holds bitwise-equal
  // scores; the global (score desc, id asc) order must survive the merge.
  const size_t n = 131;
  MatrixF table = DuplicateRowTable(n, 6, 3, 11);
  auto exact = ExactStore::Create(table);
  ASSERT_TRUE(exact.ok());
  auto queries = RandomQueries(3, 6, 12);
  ThreadPool pool(4);
  for (size_t shards : kShardCounts) {
    auto sharded = ShardedStore::CreateFromChildren(ExactShards(table, shards));
    ASSERT_TRUE(sharded.ok());
    for (double fraction : {0.0, 0.5}) {
      SeenSet seen = RandomSeenSet(n, fraction, 13);
      ExpectMatchesExact(*exact, *sharded, queries, seen, &pool);
    }
  }
}

TEST(ShardedStoreTest, KZeroAndEmptyBatchAreTrivial) {
  auto sharded =
      ShardedStore::CreateFromChildren(ExactShards(RandomTable(20, 4, 31), 3));
  ASSERT_TRUE(sharded.ok());
  EXPECT_TRUE(sharded->TopKBatch({}, 5).empty());
  auto queries = RandomQueries(2, 4, 32);
  std::vector<VecSpan> spans = AsSpans(queries);
  auto batched = sharded->TopKBatch(std::span<const VecSpan>(spans), 0);
  ASSERT_EQ(batched.size(), 2u);
  for (const auto& hits : batched) EXPECT_TRUE(hits.empty());
}

TEST(ShardedStoreTest, ConcurrentSessionsStress) {
  // Many "sessions" with distinct seen sets issue batched lookups against
  // one ShardedStore on one shared pool; every result must stay bitwise
  // equal to the single-ExactStore answer. Runs under the TSan CI leg via
  // the `concurrency` label.
  const size_t n = 400, d = 8;
  MatrixF table = RandomTable(n, d, 41);
  auto exact = ExactStore::Create(table);
  auto sharded = ShardedStore::CreateFromChildren(ExactShards(table, 7));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sharded.ok());
  ThreadPool shared_pool(4);

  const int kSessions = 8, kRounds = 5;
  std::vector<std::vector<VectorF>> queries;
  std::vector<SeenSet> seen;
  std::vector<std::vector<std::vector<SearchResult>>> want;
  for (int t = 0; t < kSessions; ++t) {
    queries.push_back(RandomQueries(3, d, 50 + t));
    seen.push_back(RandomSeenSet(n, 0.3, 80 + t));
    std::vector<VecSpan> spans = AsSpans(queries.back());
    want.push_back(exact->TopKBatch(std::span<const VecSpan>(spans), 12,
                                    seen.back(), /*pool=*/nullptr));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> sessions;
  for (int t = 0; t < kSessions; ++t) {
    sessions.emplace_back([&, t] {
      std::vector<VecSpan> spans = AsSpans(queries[t]);
      for (int round = 0; round < kRounds; ++round) {
        auto got = sharded->TopKBatch(std::span<const VecSpan>(spans), 12,
                                      seen[t], &shared_pool);
        if (got.size() != want[t].size()) {
          ++failures;
          continue;
        }
        for (size_t q = 0; q < got.size(); ++q) {
          if (got[q].size() != want[t][q].size()) ++failures;
          for (size_t i = 0; i < got[q].size(); ++i) {
            if (got[q][i].id != want[t][q][i].id ||
                got[q][i].score != want[t][q][i].score) {
              ++failures;
            }
          }
        }
      }
    });
  }
  for (auto& s : sessions) s.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ShardedStoreTest, ConcurrentCancellationLeavesOthersIntact) {
  // Half the sessions get cancelled mid-flight while the rest must keep
  // returning exact results — cancellation is per-call state, never shared.
  const size_t n = 600, d = 8;
  MatrixF table = RandomTable(n, d, 61);
  auto exact = ExactStore::Create(table);
  auto sharded = ShardedStore::CreateFromChildren(ExactShards(table, 7));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sharded.ok());
  ThreadPool shared_pool(4);

  auto queries = RandomQueries(2, d, 62);
  std::vector<VecSpan> spans = AsSpans(queries);
  auto want = exact->TopKBatch(std::span<const VecSpan>(spans), 10,
                               EmptySeenSet(), /*pool=*/nullptr);

  std::atomic<int> failures{0};
  std::vector<std::thread> sessions;
  for (int t = 0; t < 8; ++t) {
    const bool cancels = (t % 2) == 0;
    sessions.emplace_back([&, cancels] {
      for (int round = 0; round < 5; ++round) {
        CancellationToken token;
        ScanControl control;
        control.cancel = &token;
        if (cancels) token.RequestCancel();  // trips at the first checkpoint
        auto got =
            sharded->TopKBatch(std::span<const VecSpan>(spans), 10,
                               EmptySeenSet(), &shared_pool, control);
        if (cancels) continue;  // partial results, discarded by contract
        if (got.size() != want.size()) {
          ++failures;
          continue;
        }
        for (size_t q = 0; q < got.size(); ++q) {
          if (got[q].size() != want[q].size()) ++failures;
          for (size_t i = 0; i < got[q].size(); ++i) {
            if (got[q][i].id != want[q][i].id ||
                got[q][i].score != want[q][i].score) {
              ++failures;
            }
          }
        }
      }
    });
  }
  for (auto& s : sessions) s.join();
  EXPECT_EQ(failures.load(), 0);
}

// ----------------------------------------------- in-scan cancellation --

/// Runs `fn` (a TopKBatch call) on a worker thread while the main thread
/// drives the deterministic block-then-cancel schedule through the
/// checkpoint hook: the scan parks at checkpoint `park_at` (0 = its first),
/// the test cancels mid-call, the scan resumes and must stop at that very
/// checkpoint. Returns the number of checkpoints the scan hit.
template <typename Fn>
int RunBlockThenCancel(const CancellationToken& token, ScanControl& control,
                       Fn fn, int park_at = 0) {
  std::atomic<int> checkpoints{0};
  std::binary_semaphore reached{0};
  std::binary_semaphore resume{0};
  control.checkpoint = [&] {
    if (checkpoints.fetch_add(1) == park_at) {
      reached.release();
      resume.acquire();
    }
  };
  std::thread scan(fn);
  reached.acquire();            // the scan is parked inside TopKBatch
  token.RequestCancel();        // cancel mid-call
  resume.release();
  scan.join();
  return checkpoints.load();
}

TEST(InScanCancellationTest, ExactStoreStopsMidTopKBatch) {
  // 2048 rows = 64 row blocks; serial scan (no pool) hits one checkpoint
  // per block. Without cancellation all 64 fire; with a cancel delivered
  // while the scan is parked at its first checkpoint, the scan must return
  // from *that* checkpoint — one hit, zero further blocks.
  auto store = ExactStore::Create(RandomTable(2048, 8, 71));
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(2, 8, 72);
  std::vector<VecSpan> spans = AsSpans(queries);

  // Baseline: count checkpoints of an uncancelled scan.
  int total_blocks = 0;
  {
    ScanControl control;
    control.checkpoint = [&] { ++total_blocks; };
    auto out = store->TopKBatch(std::span<const VecSpan>(spans), 10,
                                EmptySeenSet(), /*pool=*/nullptr, control);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].size(), 10u);
  }
  EXPECT_EQ(total_blocks, 64);

  CancellationToken token;
  ScanControl control;
  control.cancel = &token;
  std::vector<std::vector<SearchResult>> out;
  int hit = RunBlockThenCancel(token, control, [&] {
    out = store->TopKBatch(std::span<const VecSpan>(spans), 10, EmptySeenSet(),
                           /*pool=*/nullptr, control);
  });
  EXPECT_EQ(hit, 1) << "the scan must stop at the checkpoint that observed "
                       "the cancel, not finish the table";
  ASSERT_EQ(out.size(), 2u);          // partial result: right shape,
  EXPECT_TRUE(out[0].empty());        // nothing scanned before the cancel
}

TEST(InScanCancellationTest, ShardedStoreStopsMidTopKBatchAndSkipsShards) {
  // Serial sharded scan: the first child parks at its first block
  // checkpoint; after the cancel it returns and the parent's per-shard
  // checkpoints skip the remaining shards outright. 2048 rows / 8 shards =
  // 8 blocks per child, 72 checkpoints total uncancelled (64 block + 8
  // shard dispatches); cancelled: 1 block hit + 7 shard-skip hits.
  MatrixF table = RandomTable(2048, 8, 73);
  auto store = ShardedStore::CreateFromChildren(ExactShards(table, 8));
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(2, 8, 74);
  std::vector<VecSpan> spans = AsSpans(queries);

  int total = 0;
  {
    ScanControl control;
    control.checkpoint = [&] { ++total; };
    auto out = store->TopKBatch(std::span<const VecSpan>(spans), 10,
                                EmptySeenSet(), /*pool=*/nullptr, control);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].size(), 10u);
  }
  EXPECT_EQ(total, 72);

  CancellationToken token;
  ScanControl control;
  control.cancel = &token;
  std::vector<std::vector<SearchResult>> out;
  int hit = RunBlockThenCancel(token, control, [&] {
    out = store->TopKBatch(std::span<const VecSpan>(spans), 10, EmptySeenSet(),
                           /*pool=*/nullptr, control);
  });
  // 1 parked shard-dispatch checkpoint + 7 shard-skip checkpoints; no row
  // block is ever scored.
  EXPECT_EQ(hit, 8);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].empty());
}

TEST(InScanCancellationTest, AnnoyIndexStopsAtEitherQueryCheckpoint) {
  // Serial scan (no pool): each query hits two checkpoints, one before its
  // forest traversal and one before its candidate scoring, so 2 queries
  // hit 4. A cancel observed at either checkpoint of query 0 stops it there
  // with no hits, and query 1 then stops at its own first checkpoint.
  auto store = AnnoyIndex::Build({}, RandomTable(512, 8, 75));
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(2, 8, 76);
  std::vector<VecSpan> spans = AsSpans(queries);

  std::vector<std::vector<SearchResult>> want;
  int total = 0;
  {
    ScanControl control;
    control.checkpoint = [&] { ++total; };
    want = store->TopKBatch(std::span<const VecSpan>(spans), 10,
                            EmptySeenSet(), /*pool=*/nullptr, control);
    ASSERT_EQ(want.size(), 2u);
    EXPECT_EQ(want[0].size(), 10u);
  }
  EXPECT_EQ(total, 4);

  for (int park_at : {0, 1}) {
    CancellationToken token;
    ScanControl control;
    control.cancel = &token;
    std::vector<std::vector<SearchResult>> out;
    int hit = RunBlockThenCancel(
        token, control,
        [&] {
          out = store->TopKBatch(std::span<const VecSpan>(spans), 10,
                                 EmptySeenSet(), /*pool=*/nullptr, control);
        },
        park_at);
    EXPECT_EQ(hit, park_at + 2) << "parked at checkpoint " << park_at;
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].empty()) << "parked at checkpoint " << park_at;
    EXPECT_TRUE(out[1].empty()) << "parked at checkpoint " << park_at;
  }

  // The cancelled scans leave the index reusable: an uncancelled scan
  // returns the same hits, bit for bit.
  auto again = store->TopKBatch(std::span<const VecSpan>(spans), 10);
  ASSERT_EQ(again.size(), want.size());
  for (size_t q = 0; q < want.size(); ++q) {
    ExpectIdenticalResults(again[q], want[q]);
  }
}

// The single-query TopK is a batch of one: it hands its ScanControl to the
// same scan, so it checkpoints and stops exactly like the batches above.

TEST(InScanCancellationTest, SingleQueryTopKForwardsControl) {
  // 2048 rows = 64 row-block checkpoints.
  auto store = ExactStore::Create(RandomTable(2048, 8, 81));
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(1, 8, 82);

  int total_blocks = 0;
  {
    ScanControl control;
    control.checkpoint = [&] { ++total_blocks; };
    auto out = store->TopK(queries[0], 10, EmptySeenSet(), control);
    EXPECT_EQ(out.size(), 10u);
    // The checkpoints must not change the result: bitwise equal to the
    // control-free scan.
    ExpectIdenticalResults(out, store->TopK(queries[0], 10));
  }
  EXPECT_EQ(total_blocks, 64);

  CancellationToken token;
  ScanControl control;
  control.cancel = &token;
  std::vector<SearchResult> out;
  int hit = RunBlockThenCancel(token, control, [&] {
    out = store->TopK(queries[0], 10, EmptySeenSet(), control);
  });
  EXPECT_EQ(hit, 1) << "the scan must stop at the checkpoint that "
                       "observed the cancel, not finish the table";
  EXPECT_TRUE(out.empty());  // nothing scanned before the cancel
}

}  // namespace
}  // namespace seesaw::store
