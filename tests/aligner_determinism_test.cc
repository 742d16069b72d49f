// Aligner determinism: the same feedback sequence must yield
// bitwise-identical Align() output — across repeated runs, across a fresh
// clone (Snapshot + Fit), and under concurrent unrelated pool load. This is
// the invariant refit-speculation adoption rests on: a speculative fit over
// a cloned snapshot is the fit the real Refit() would run, bit for bit,
// exactly when the state did not change in between. See the determinism
// audits in core/aligner.h and optim/lbfgs.h.
#include "core/aligner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "store/exact_store.h"
#include "store/seen_set.h"
#include "tests/test_util.h"

namespace seesaw::core {
namespace {

using linalg::MatrixF;
using linalg::VectorF;
using test_util::RandomQueries;
using test_util::RandomTable;

constexpr size_t kDim = 24;

VectorF UnitQuery(uint64_t seed) { return RandomQueries(1, kDim, seed)[0]; }

/// A deterministic feedback sequence over random patch vectors: alternating
/// labels with a positive bias, fixed insertion order.
struct FeedbackStep {
  size_t row;
  bool positive;
};

std::vector<FeedbackStep> MakeSequence(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<FeedbackStep> steps;
  for (size_t i = 0; i < n; ++i) {
    steps.push_back({i, rng.Uniform() < 0.4});
  }
  return steps;
}

void ExpectBitwiseEqual(const VectorF& a, const VectorF& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j], b[j]) << what << " dim " << j;  // bitwise (float ==)
  }
}

TEST(AlignerDeterminismTest, RepeatedRunsAreBitwiseIdentical) {
  // Two independent aligners fed the identical sequence must produce
  // bitwise-identical queries at every refit round — including with warm
  // starts accumulating across rounds.
  MatrixF table = RandomTable(40, kDim, 5);
  VectorF q0 = UnitQuery(6);
  AlignerOptions options;
  QueryAligner a(options, q0, nullptr);
  QueryAligner b(options, q0, nullptr);
  auto steps = MakeSequence(24, 7);
  for (size_t round = 0; round < 4; ++round) {
    for (size_t i = round * 6; i < (round + 1) * 6; ++i) {
      a.AddFeedback(table.Row(steps[i].row), steps[i].positive);
      b.AddFeedback(table.Row(steps[i].row), steps[i].positive);
    }
    auto qa = a.Align();
    auto qb = b.Align();
    ASSERT_TRUE(qa.ok());
    ASSERT_TRUE(qb.ok());
    ExpectBitwiseEqual(*qa, *qb, "independent aligners");
    // The solver did identical work, not just reached identical bits.
    EXPECT_EQ(a.last_result().iterations, b.last_result().iterations);
    EXPECT_EQ(a.last_result().function_evals, b.last_result().function_evals);
  }
}

TEST(AlignerDeterminismTest, SnapshotFitMatchesLiveAlign) {
  // The speculative path: Fit over a fresh clone must equal the live
  // Align() bitwise at every round — and, being const, must not perturb the
  // live aligner's subsequent rounds. An aligner that only ever adopts
  // snapshot fits (what an adopting Refit() does) must stay bitwise on the
  // same trajectory, warm start included.
  MatrixF table = RandomTable(40, kDim, 15);
  VectorF q0 = UnitQuery(16);
  AlignerOptions options;
  QueryAligner live(options, q0, nullptr);
  QueryAligner control(options, q0, nullptr);   // never snapshotted
  QueryAligner adopting(options, q0, nullptr);  // never runs Align()
  auto steps = MakeSequence(30, 17);
  for (size_t round = 0; round < 5; ++round) {
    for (size_t i = round * 6; i < (round + 1) * 6; ++i) {
      live.AddFeedback(table.Row(steps[i].row), steps[i].positive);
      control.AddFeedback(table.Row(steps[i].row), steps[i].positive);
      adopting.AddFeedback(table.Row(steps[i].row), steps[i].positive);
    }
    AlignerSnapshot snapshot = live.Snapshot();
    EXPECT_EQ(snapshot.fit_generation, live.fit_generation());
    auto predicted = QueryAligner::Fit(snapshot);
    // Run the speculative fit twice to cover fit-vs-fit reproducibility too.
    auto predicted_again = QueryAligner::Fit(snapshot);
    auto adopted_fit = QueryAligner::Fit(adopting.Snapshot());
    auto real = live.Align();
    auto undisturbed = control.Align();
    ASSERT_TRUE(predicted.ok());
    ASSERT_TRUE(predicted_again.ok());
    ASSERT_TRUE(adopted_fit.ok());
    ASSERT_TRUE(real.ok());
    ASSERT_TRUE(undisturbed.ok());
    VectorF adopted = adopting.Adopt(*std::move(adopted_fit));
    ExpectBitwiseEqual(predicted->query, *real, "snapshot vs live");
    ExpectBitwiseEqual(predicted->query, predicted_again->query,
                       "snapshot repeat");
    ExpectBitwiseEqual(*real, *undisturbed, "live vs undisturbed control");
    ExpectBitwiseEqual(adopted, *real, "adopted vs live");
    EXPECT_EQ(adopting.last_result().iterations, live.last_result().iterations);
  }
}

TEST(AlignerDeterminismTest, FitUnderConcurrentPoolLoadIsStable) {
  // The refit speculation runs Fit on a pool worker while other
  // sessions hammer the same pool with store scans. Neither the unrelated
  // load nor running several speculative fits at once may change a single
  // bit of the result.
  MatrixF table = RandomTable(64, kDim, 25);
  VectorF q0 = UnitQuery(26);
  QueryAligner live(AlignerOptions{}, q0, nullptr);
  auto steps = MakeSequence(20, 27);
  for (const FeedbackStep& s : steps) {
    live.AddFeedback(table.Row(s.row), s.positive);
  }
  auto snapshot = std::make_shared<AlignerSnapshot>(live.Snapshot());
  auto reference = QueryAligner::Fit(*snapshot);
  ASSERT_TRUE(reference.ok());

  // Unrelated load: batched scans over a store on the same pool.
  auto store = store::ExactStore::Create(RandomTable(2000, kDim, 28));
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(4, kDim, 29);
  std::vector<linalg::VecSpan> spans = test_util::AsSpans(queries);
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::thread load([&] {
    while (!stop.load()) {
      store->TopKBatch(std::span<const linalg::VecSpan>(spans), 25,
                       store::EmptySeenSet(), &pool);
    }
  });

  const int kFits = 8;
  std::vector<VectorF> results(kFits);
  std::vector<TaskHandle> handles;
  for (int i = 0; i < kFits; ++i) {
    handles.push_back(pool.SubmitWithResult([snapshot, &results, i] {
      auto r = QueryAligner::Fit(*snapshot);
      if (r.ok()) results[i] = std::move(r->query);
    }));
  }
  for (TaskHandle& h : handles) h.Wait();
  stop.store(true);
  load.join();
  for (int i = 0; i < kFits; ++i) {
    ExpectBitwiseEqual(results[i], reference->query, "fit under pool load");
  }
  // And the live aligner, untouched by any of it, still agrees.
  auto real = live.Align();
  ASSERT_TRUE(real.ok());
  ExpectBitwiseEqual(*real, reference->query, "live align after load");
}

TEST(AlignerDeterminismTest, FitGenerationTracksEveryStateChange) {
  // The generation counter versions the fit inputs Align() reads; every
  // mutation class bumps it (refit speculation adopts an arm-time clone's
  // fit only at the generation the clone was taken at).
  MatrixF table = RandomTable(4, kDim, 35);
  QueryAligner aligner(AlignerOptions{}, UnitQuery(36), nullptr);
  uint64_t g0 = aligner.fit_generation();
  aligner.AddFeedback(table.Row(0), true);
  EXPECT_GT(aligner.fit_generation(), g0);
  uint64_t g1 = aligner.fit_generation();
  aligner.AddSoftFeedback(table.Row(1), 0.5f);
  EXPECT_GT(aligner.fit_generation(), g1);
  uint64_t g2 = aligner.fit_generation();
  AlignerOptions changed;
  changed.lbfgs.max_iterations = 7;
  aligner.set_options(changed);
  EXPECT_GT(aligner.fit_generation(), g2);
  EXPECT_EQ(aligner.options().lbfgs.max_iterations, 7);
  uint64_t g3 = aligner.fit_generation();
  aligner.Reset();
  EXPECT_GT(aligner.fit_generation(), g3);
  EXPECT_EQ(aligner.num_examples(), 0u);
  // With no feedback Align() is a read: it must not bump the generation.
  uint64_t g4 = aligner.fit_generation();
  ASSERT_TRUE(aligner.Align().ok());
  EXPECT_EQ(aligner.fit_generation(), g4);
  // ... unless the solver ran: the warm start it installs is a fit input.
  aligner.AddFeedback(table.Row(0), true);
  uint64_t g5 = aligner.fit_generation();
  ASSERT_TRUE(aligner.Align().ok());
  EXPECT_GT(aligner.fit_generation(), g5);
}

TEST(AlignerDeterminismTest, NoFeedbackAndDegenerateCasesStayDeterministic) {
  // Align() with no feedback returns q0 verbatim on both paths.
  VectorF q0 = UnitQuery(46);
  QueryAligner aligner(AlignerOptions{}, q0, nullptr);
  auto a = aligner.Align();
  auto b = QueryAligner::Fit(aligner.Snapshot());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectBitwiseEqual(*a, q0, "no-feedback align");
  ExpectBitwiseEqual(b->query, q0, "no-feedback snapshot fit");
  EXPECT_FALSE(b->ran_solver);
}

}  // namespace
}  // namespace seesaw::core
