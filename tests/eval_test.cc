#include <gtest/gtest.h>

#include <cmath>

#include "core/seesaw_searcher.h"
#include "data/profiles.h"
#include "eval/metrics.h"
#include "eval/task_runner.h"

namespace seesaw::eval {
namespace {

// ---------------------------------------------------------------- TaskAp --

TEST(TaskApTest, PerfectRunIsOne) {
  // First ten inspected images all positive.
  std::vector<char> rel(10, 1);
  EXPECT_DOUBLE_EQ(TaskAp(rel, 100, 10), 1.0);
}

TEST(TaskApTest, NothingFoundIsZero) {
  std::vector<char> rel(60, 0);
  EXPECT_DOUBLE_EQ(TaskAp(rel, 100, 10), 0.0);
}

TEST(TaskApTest, NoRelevantInDatabaseIsZero) {
  EXPECT_DOUBLE_EQ(TaskAp({1, 1}, 0, 10), 0.0);
}

TEST(TaskApTest, KnownHandComputedValue) {
  // Sequence: + - + ; R = min(10, 2) = 2.
  // P at first + = 1/1; P at second + = 2/3. AP = (1 + 2/3)/2 = 5/6.
  std::vector<char> rel = {1, 0, 1};
  EXPECT_NEAR(TaskAp(rel, 2, 10), 5.0 / 6.0, 1e-12);
}

TEST(TaskApTest, UnfoundPositivesContributeZero) {
  // One positive found immediately, but R = 4 -> AP = (1/1)/4.
  std::vector<char> rel = {1, 0, 0};
  EXPECT_NEAR(TaskAp(rel, 4, 10), 0.25, 1e-12);
}

TEST(TaskApTest, RCappedAtTarget) {
  // 100 relevant in db but target 10: perfect prefix of 10 gives AP 1.
  std::vector<char> rel(10, 1);
  EXPECT_DOUBLE_EQ(TaskAp(rel, 100, 10), 1.0);
}

TEST(TaskApTest, OnlyFirstTargetPositivesCount) {
  // 12 positives inspected; the 11th and 12th are ignored.
  std::vector<char> rel(12, 1);
  EXPECT_DOUBLE_EQ(TaskAp(rel, 100, 10), 1.0);
}

TEST(TaskApTest, EarlierPositivesScoreHigher) {
  std::vector<char> early = {1, 1, 0, 0, 0, 0};
  std::vector<char> late = {0, 0, 0, 0, 1, 1};
  EXPECT_GT(TaskAp(early, 2, 10), TaskAp(late, 2, 10));
}

// ---------------------------------------------------------- FullRankingAp --

TEST(FullRankingApTest, PerfectRankingIsOne) {
  std::vector<float> scores = {0.9f, 0.8f, 0.1f, 0.05f};
  std::vector<char> labels = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(FullRankingAp(scores, labels), 1.0);
}

TEST(FullRankingApTest, WorstRankingKnownValue) {
  std::vector<float> scores = {0.9f, 0.8f, 0.1f, 0.05f};
  std::vector<char> labels = {0, 0, 1, 1};
  // positives at ranks 3 and 4: AP = (1/3 + 2/4)/2.
  EXPECT_NEAR(FullRankingAp(scores, labels), (1.0 / 3 + 0.5) / 2, 1e-12);
}

TEST(FullRankingApTest, NoPositivesIsZero) {
  EXPECT_DOUBLE_EQ(FullRankingAp({1.0f, 0.5f}, {0, 0}), 0.0);
}

TEST(FullRankingApTest, PermutingNonRelevantTailInvariant) {
  std::vector<float> scores = {0.9f, 0.5f, 0.4f, 0.3f};
  std::vector<char> labels = {1, 0, 0, 0};
  double base = FullRankingAp(scores, labels);
  std::vector<float> permuted = {0.9f, 0.3f, 0.4f, 0.5f};
  EXPECT_DOUBLE_EQ(FullRankingAp(permuted, labels), base);
}

// ------------------------------------------------------------- statistics --

TEST(StatsTest, MeanMedianQuantile) {
  std::vector<double> v = {1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(Mean(v), 22.0);
  EXPECT_DOUBLE_EQ(Median(v), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StatsTest, CdfIsMonotone) {
  auto cdf = Cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].first, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].second, 1.0 / 3);
  EXPECT_DOUBLE_EQ(cdf[2].second, 1.0);
}

TEST(StatsTest, FractionBelow) {
  EXPECT_DOUBLE_EQ(FractionBelow({0.1, 0.5, 0.9}, 0.5), 1.0 / 3);
  EXPECT_DOUBLE_EQ(FractionBelow({}, 0.5), 0.0);
}

TEST(StatsTest, BootstrapCiCoversTheMean) {
  Rng rng(1);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.Gaussian(10.0, 2.0));
  auto ci = BootstrapCiMean(v);
  EXPECT_LT(ci.lo, 10.1);
  EXPECT_GT(ci.hi, 9.9);
  EXPECT_LT(ci.hi - ci.lo, 1.0);
  auto ci_med = BootstrapCiMedian(v);
  EXPECT_LT(ci_med.lo, ci_med.hi);
}

// ------------------------------------------------------------ TaskRunner --

struct Fixture {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<core::EmbeddedDataset> embedded;
};

Fixture MakeFixture() {
  auto profile = data::CocoLikeProfile(0.05);
  profile.embedding_dim = 32;
  auto ds = data::Dataset::Generate(profile);
  EXPECT_TRUE(ds.ok());
  Fixture f;
  f.dataset = std::make_unique<data::Dataset>(std::move(*ds));
  core::PreprocessOptions options;
  options.multiscale.enabled = false;
  options.build_md = false;
  auto ed = core::EmbeddedDataset::Build(*f.dataset, options);
  EXPECT_TRUE(ed.ok());
  f.embedded = std::make_unique<core::EmbeddedDataset>(std::move(*ed));
  return f;
}

TEST(TaskRunnerTest, StopsAtTargetOrBudget) {
  auto f = MakeFixture();
  core::SeeSawOptions zs;
  zs.update_query = false;
  core::SeeSawSearcher searcher(*f.embedded, f.embedded->TextQuery(0), zs);
  TaskOptions options;
  options.target_positives = 3;
  options.max_images = 20;
  auto result = RunSearchTask(searcher, *f.dataset, 0, options);
  EXPECT_LE(result.inspected, 20u);
  EXPECT_LE(result.found, 3u);
  EXPECT_EQ(result.relevance.size(), result.inspected);
  if (result.found == 3) {
    // Stopped exactly when the target was met.
    EXPECT_EQ(result.relevance.back(), 1);
  }
}

/// Serves a fixed image list in order, then empty batches.
class ListSearcher : public core::Searcher {
 public:
  explicit ListSearcher(std::vector<uint32_t> images)
      : images_(std::move(images)) {}
  std::string name() const override { return "list"; }
  std::vector<core::ScoredImage> NextBatch(size_t n) override {
    std::vector<core::ScoredImage> batch;
    for (; next_ < images_.size() && batch.size() < n; ++next_) {
      batch.push_back({images_[next_], 0.0f});
    }
    return batch;
  }
  void AddFeedback(const core::ImageFeedback&) override {}
  Status Refit() override { return Status::OK(); }

 private:
  std::vector<uint32_t> images_;
  size_t next_ = 0;
};

TEST(TaskRunnerTest, CountsEveryNextBatchCallIncludingTheEmptyOne) {
  auto f = MakeFixture();
  std::vector<uint32_t> negatives;
  for (uint32_t i = 0; i < f.dataset->num_images() && negatives.size() < 5;
       ++i) {
    if (!f.dataset->IsPositive(i, 0)) negatives.push_back(i);
  }
  ASSERT_EQ(negatives.size(), 5u);
  TaskOptions options;
  options.batch_size = 2;

  // Batches of 2, 2, 1, then an empty one: the store runs out before the
  // target, so the last call makes no round but is still a call.
  ListSearcher exhausted(negatives);
  auto result = RunSearchTask(exhausted, *f.dataset, 0, options);
  EXPECT_EQ(result.inspected, 5u);
  EXPECT_EQ(result.rounds, 3u);
  EXPECT_EQ(result.nextbatch_calls, 4u);

  // The budget ends the task after two full batches: no empty call.
  options.max_images = 4;
  ListSearcher budgeted(negatives);
  result = RunSearchTask(budgeted, *f.dataset, 0, options);
  EXPECT_EQ(result.rounds, 2u);
  EXPECT_EQ(result.nextbatch_calls, 2u);
}

TEST(TaskRunnerTest, ApMatchesRelevanceSequence) {
  auto f = MakeFixture();
  core::SeeSawSearcher searcher(*f.embedded, f.embedded->TextQuery(0), {});
  TaskOptions options;
  auto result = RunSearchTask(searcher, *f.dataset, 0, options);
  EXPECT_NEAR(result.ap,
              TaskAp(result.relevance, f.dataset->positives(0).size(), 10),
              1e-12);
}

TEST(TaskRunnerTest, TracksTiming) {
  auto f = MakeFixture();
  core::SeeSawSearcher searcher(*f.embedded, f.embedded->TextQuery(1), {});
  auto result = RunSearchTask(searcher, *f.dataset, 1, {});
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.rounds, 0u);
  EXPECT_GT(result.seconds_per_round, 0.0);
}

TEST(TaskRunnerTest, RunBenchmarkCoversAllConcepts) {
  auto f = MakeFixture();
  auto concepts = f.dataset->EvaluableConcepts(3);
  concepts.resize(std::min<size_t>(concepts.size(), 5));
  auto factory = [&f](size_t concept_id) {
    core::SeeSawOptions zs;
    zs.update_query = false;
    return std::make_unique<core::SeeSawSearcher>(
        *f.embedded, f.embedded->TextQuery(concept_id), zs);
  };
  auto run = RunBenchmark(factory, *f.dataset, concepts, {});
  EXPECT_EQ(run.results.size(), concepts.size());
  EXPECT_EQ(run.Aps().size(), concepts.size());
  double mean = run.MeanAp();
  EXPECT_GE(mean, 0.0);
  EXPECT_LE(mean, 1.0);
}

TEST(TaskRunnerTest, EasyConceptScoresWell) {
  // Concept 0 is the most frequent with a likely low deficit: zero-shot
  // should find plenty within budget on COCO-like data.
  auto f = MakeFixture();
  core::SeeSawOptions zs;
  zs.update_query = false;
  // Find the evaluable concept with the most positives (easiest).
  auto concepts = f.dataset->EvaluableConcepts(3);
  size_t best = concepts[0];
  for (size_t c : concepts) {
    if (f.dataset->positives(c).size() > f.dataset->positives(best).size()) {
      best = c;
    }
  }
  core::SeeSawSearcher searcher(*f.embedded, f.embedded->TextQuery(best), zs);
  auto result = RunSearchTask(searcher, *f.dataset, best, {});
  EXPECT_GT(result.found, 0u);
}

}  // namespace
}  // namespace seesaw::eval
