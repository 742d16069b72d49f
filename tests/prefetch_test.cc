// Think-time speculative prefetch: bitwise parity with the synchronous
// path (hit, miss, and invalidated speculations), hit accounting, the
// cross-session budget, and the managed serving layer end to end. The
// refit-speculation state machine (speculating *through* a query-moving
// refit) has its own suite: tests/refit_speculation_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/embedded_dataset.h"
#include "core/seesaw_searcher.h"
#include "core/session_manager.h"
#include "data/profiles.h"
#include "eval/task_runner.h"
#include "tests/test_util.h"

namespace seesaw::core {
namespace {

using test_util::ExpectSameImageBatch;
using test_util::MakeEmbeddedFixture;
using test_util::RoundScript;
using test_util::ScriptedUser;

SeeSawOptions WithPrefetch(SeeSawOptions options, bool enabled) {
  options.prefetch = enabled;  // unmanaged: no budget, tested separately
  return options;
}

struct Variant {
  const char* name;
  SeeSawOptions options;
};

std::vector<Variant> Variants() {
  SeeSawOptions zero;
  zero.update_query = false;
  SeeSawOptions few;
  few.aligner.loss.use_text_term = false;
  few.aligner.loss.use_db_term = false;
  return {{"seesaw", {}}, {"zero-shot", zero}, {"few-shot", few}};
}

TEST(PrefetchTest, ParityAcrossVariantsAndBackends) {
  for (StoreBackend backend : {StoreBackend::kExact, StoreBackend::kAnnoy}) {
    auto f = MakeEmbeddedFixture(backend);
    ThreadPool pool(3);
    ScriptedUser user(*f.dataset, /*concept_id=*/0);
    for (const Variant& variant : Variants()) {
      auto q0 = f.embedded->TextQuery(0);
      SeeSawSearcher baseline(*f.embedded, q0,
                              WithPrefetch(variant.options, false));
      SeeSawSearcher speculating(*f.embedded, q0,
                                 WithPrefetch(variant.options, true));
      baseline.set_thread_pool(&pool);
      speculating.set_thread_pool(&pool);
      for (int round = 0; round < 5; ++round) {
        auto expected = user.DriveRound(baseline, 8);
        auto got = user.DriveRound(speculating, 8);
        ExpectSameImageBatch(got, expected, round);
      }
      EXPECT_GT(speculating.prefetch_stats().scheduled, 0u) << variant.name;
      EXPECT_EQ(baseline.prefetch_stats().scheduled, 0u) << variant.name;
    }
  }
}

TEST(PrefetchTest, ZeroShotConsumesSpeculations) {
  // Zero-shot never moves the query, so labeling exactly the returned batch
  // keeps every speculation valid: all rounds after the first must hit.
  auto f = MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(3);
  SeeSawOptions zero;
  zero.update_query = false;
  SeeSawSearcher searcher(*f.embedded, f.embedded->TextQuery(0),
                          WithPrefetch(zero, true));
  searcher.set_thread_pool(&pool);
  ScriptedUser user(*f.dataset, 0);
  const int rounds = 5;
  for (int round = 0; round < rounds; ++round) {
    user.DriveRound(searcher, 8);
  }
  EXPECT_EQ(searcher.prefetch_stats().hits, static_cast<size_t>(rounds - 1));
  EXPECT_EQ(searcher.prefetch_stats().misses, 0u);
  // Zero-shot speculations never involve a predicted fit.
  EXPECT_EQ(searcher.prefetch_stats().refit_fits, 0u);
  EXPECT_EQ(searcher.prefetch_stats().hits_post_refit, 0u);
}

TEST(PrefetchTest, QueryMovingRefitConsumesPredictedSpeculation) {
  // The full method refits to a new query each round. With refit
  // speculation the aligner runs during labeling, Refit() adopts that fit,
  // and the scan already runs with the refit query, so full-batch rounds
  // consume — bitwise parity is covered by ParityAcrossVariantsAndBackends
  // and the refit_speculation suite.
  auto f = MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(3);
  SeeSawSearcher searcher(*f.embedded, f.embedded->TextQuery(0),
                          WithPrefetch(SeeSawOptions{}, true));
  searcher.set_thread_pool(&pool);
  ScriptedUser user(*f.dataset, 0);
  const int rounds = 4;
  for (int round = 0; round < rounds; ++round) {
    user.DriveRound(searcher, 8);
  }
  const PrefetchStats& stats = searcher.prefetch_stats();
  EXPECT_GT(stats.refit_fits, 0u);
  EXPECT_EQ(stats.refit_adopted, stats.refit_fits);  // each round fits once
  EXPECT_GT(stats.hits_post_refit, 0u);
  EXPECT_EQ(stats.hits, stats.hits_post_refit);  // no same-query consumes
}

TEST(PrefetchTest, DeviatingFeedbackInvalidatesSpeculation) {
  // Feedback on an image outside the returned batch deviates from the
  // prediction; the next batch must still equal the synchronous result.
  auto f = MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(3);
  SeeSawOptions zero;
  zero.update_query = false;
  auto q0 = f.embedded->TextQuery(1);
  SeeSawSearcher baseline(*f.embedded, q0, WithPrefetch(zero, false));
  SeeSawSearcher speculating(*f.embedded, q0, WithPrefetch(zero, true));
  baseline.set_thread_pool(&pool);
  speculating.set_thread_pool(&pool);

  ScriptedUser user(*f.dataset, 1);
  RoundScript surprise;
  surprise.label_unshown_image = true;
  user.DriveRound(baseline, 6, surprise);
  user.DriveRound(speculating, 6, surprise);
  auto expected = baseline.NextBatch(6);
  auto got = speculating.NextBatch(6);
  ExpectSameImageBatch(got, expected, /*round=*/1);
  EXPECT_GT(speculating.prefetch_stats().invalidated +
                speculating.prefetch_stats().misses,
            0u);
  EXPECT_EQ(speculating.prefetch_stats().hits, 0u);
}

TEST(PrefetchTest, RepeatedNextBatchWithoutFeedbackMatchesSyncSemantics) {
  // NextBatch without intervening feedback returns the same images (nothing
  // was marked seen); the speculation predicted a labeled batch and must be
  // discarded, not consumed.
  auto f = MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(2);
  SeeSawOptions zero;
  zero.update_query = false;
  SeeSawSearcher searcher(*f.embedded, f.embedded->TextQuery(0),
                          WithPrefetch(zero, true));
  searcher.set_thread_pool(&pool);
  auto first = searcher.NextBatch(5);
  auto second = searcher.NextBatch(5);
  ExpectSameImageBatch(second, first, /*round=*/0);
  EXPECT_EQ(searcher.prefetch_stats().hits, 0u);
  EXPECT_GT(searcher.prefetch_stats().misses, 0u);
}

TEST(PrefetchTest, DestructionDrainsInvalidatedSpeculations) {
  // Regression: an invalidated speculation's task may still be mid-scan on
  // the pool; destroying the searcher and then the pool must drain it. A
  // leaked task used to submit nested pool work during pool shutdown and
  // trip the Submit-after-shutdown check.
  auto f = MakeEmbeddedFixture(StoreBackend::kExact);
  SeeSawOptions zero;
  zero.update_query = false;
  ScriptedUser user(*f.dataset, 0);
  for (int i = 0; i < 20; ++i) {
    ThreadPool pool(2);
    auto searcher = std::make_unique<SeeSawSearcher>(
        *f.embedded, f.embedded->TextQuery(0), WithPrefetch(zero, true));
    searcher->set_thread_pool(&pool);
    auto batch = searcher->NextBatch(6);  // schedules a speculation
    ASSERT_FALSE(batch.empty());
    // Label one unshown image: invalidates while the task may be running.
    uint32_t outside = 0;
    while (searcher->IsSeen(outside)) ++outside;
    bool in_batch = true;
    while (in_batch) {
      in_batch = false;
      for (const auto& hit : batch) {
        if (hit.image_idx == outside) {
          ++outside;
          in_batch = true;
        }
      }
    }
    searcher->AddFeedback(user.GroundTruthFeedback(outside));
    searcher.reset();  // must drain the stale task
  }                    // pool shutdown must see no new submissions
}

TEST(PrefetchTest, BudgetCapsAcquisitions) {
  PrefetchBudget budget(2);
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());
  budget.Release();
  EXPECT_TRUE(budget.TryAcquire());
  budget.Release();
  budget.Release();
  EXPECT_EQ(budget.in_flight(), 0u);

  PrefetchBudget unlimited(0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.TryAcquire());
}

TEST(PrefetchTest, ManagedSessionsWithPrefetchMatchBaseline) {
  // End to end through the serving layer: a service configured with
  // prefetch on (and a tight cross-session budget) must reproduce the
  // prefetch-off results exactly, under concurrent drivers and think time.
  auto profile = data::CocoLikeProfile(0.05);
  profile.embedding_dim = 32;
  auto ds = data::Dataset::Generate(profile);
  ASSERT_TRUE(ds.ok());

  auto make_service = [&](bool prefetch_on) {
    ServiceOptions options;
    options.preprocess.multiscale.enabled = false;
    options.preprocess.build_md = false;
    options.session_threads = 3;
    options.search.update_query = false;  // zero-shot: speculation-friendly
    options.search.prefetch = prefetch_on;
    auto svc = SeeSawService::Create(*ds, options);
    EXPECT_TRUE(svc.ok());
    return std::make_unique<SeeSawService>(std::move(*svc));
  };

  auto concepts = ds->EvaluableConcepts(3);
  ASSERT_FALSE(concepts.empty());
  if (concepts.size() > 4) concepts.resize(4);
  eval::TaskOptions task;
  task.target_positives = 3;
  task.max_images = 24;
  task.batch_size = 6;
  task.think_seconds_per_image = 0.002;

  auto off = make_service(false);
  auto on = make_service(true);
  auto run_off = eval::RunManagedBenchmark(*off, *ds, concepts, task);
  auto run_on = eval::RunManagedBenchmark(*on, *ds, concepts, task);
  ASSERT_EQ(run_off.results.size(), run_on.results.size());
  for (size_t i = 0; i < run_off.results.size(); ++i) {
    EXPECT_EQ(run_off.results[i].relevance, run_on.results[i].relevance);
    EXPECT_EQ(run_off.results[i].found, run_on.results[i].found);
    EXPECT_EQ(run_off.results[i].inspected, run_on.results[i].inspected);
    EXPECT_DOUBLE_EQ(run_off.results[i].ap, run_on.results[i].ap);
  }
  EXPECT_EQ(on->sessions().prefetches_in_flight(), 0u);
}

}  // namespace
}  // namespace seesaw::core
