// Cross-module scenarios not covered by the per-module suites: multiscale
// propagation, the non-exact (Annoy) backend inside a full session, and
// service-level composition.
#include <gtest/gtest.h>

#include <set>

#include "core/baselines/propagation.h"
#include "core/graph_context.h"
#include "core/seesaw_searcher.h"
#include "core/service.h"
#include "data/profiles.h"
#include "eval/task_runner.h"

namespace seesaw {
namespace {

data::DatasetProfile SmallBdd() {
  auto p = data::BddLikeProfile(0.05);
  p.embedding_dim = 32;
  return p;
}

TEST(CoverageTest, PropagationWorksOverMultiscalePatches) {
  // Table 6 times the propagation variant on multiscale stores; verify the
  // generalized patch-level propagation path end to end.
  auto ds = data::Dataset::Generate(SmallBdd());
  ASSERT_TRUE(ds.ok());
  core::PreprocessOptions options;
  options.multiscale.enabled = true;
  options.build_md = false;
  auto ed = core::EmbeddedDataset::Build(*ds, options);
  ASSERT_TRUE(ed.ok());
  ASSERT_GT(ed->num_vectors(), ed->num_images());  // really multiscale

  core::GraphContextOptions gopts;
  gopts.k = 8;
  gopts.exact_threshold = 1 << 20;  // force exact on this small set
  auto graph = core::GraphContext::Build(*ed, gopts);
  ASSERT_TRUE(graph.ok());

  size_t concept_id = 0;
  core::PropagationSearcher prop(*ed, *graph, ed->TextQuery(concept_id));
  eval::TaskOptions task;
  task.target_positives = 5;
  task.max_images = 30;
  auto result = eval::RunSearchTask(prop, *ds, concept_id, task);
  EXPECT_LE(result.inspected, 30u);
  EXPECT_EQ(result.relevance.size(), result.inspected);
  EXPECT_NEAR(linalg::Norm(prop.current_query()), 1.0f, 1e-4f);
}

TEST(CoverageTest, FullSessionOnAnnoyBackend) {
  auto ds = data::Dataset::Generate(SmallBdd());
  ASSERT_TRUE(ds.ok());
  core::PreprocessOptions options;
  options.backend = core::StoreBackend::kAnnoy;
  options.annoy.num_trees = 16;
  options.md.k = 5;
  auto ed = core::EmbeddedDataset::Build(*ds, options);
  ASSERT_TRUE(ed.ok());
  core::SeeSawSearcher searcher(*ed, ed->TextQuery(0), {});
  std::set<uint32_t> seen;
  for (int round = 0; round < 5; ++round) {
    auto batch = searcher.NextBatch(8);
    for (const auto& hit : batch) {
      EXPECT_TRUE(seen.insert(hit.image_idx).second);
      core::ImageFeedback fb;
      fb.image_idx = hit.image_idx;
      fb.relevant = ds->IsPositive(hit.image_idx, 0);
      if (fb.relevant) fb.boxes = ds->ConceptBoxes(hit.image_idx, 0);
      searcher.AddFeedback(fb);
    }
    ASSERT_TRUE(searcher.Refit().ok());
  }
}

TEST(CoverageTest, ServiceRunsBenchmarkTaskEndToEnd) {
  // The service facade must compose with the eval harness like a raw
  // searcher does.
  auto ds = data::Dataset::Generate(SmallBdd());
  ASSERT_TRUE(ds.ok());
  core::ServiceOptions options;
  options.preprocess.md.k = 5;
  auto service = core::SeeSawService::Create(*ds, options);
  ASSERT_TRUE(service.ok());

  auto car = ds->space().FindConcept("car");
  ASSERT_TRUE(car.ok());
  auto session = service->StartSession("car");
  ASSERT_TRUE(session.ok());
  eval::TaskOptions task;
  task.target_positives = 5;
  auto result = eval::RunSearchTask(**session, *ds, *car, task);
  EXPECT_GT(result.found, 0u);
}

TEST(CoverageTest, GraphContextOverMultiscaleVectors) {
  auto ds = data::Dataset::Generate(SmallBdd());
  ASSERT_TRUE(ds.ok());
  core::PreprocessOptions options;
  options.build_md = false;
  auto ed = core::EmbeddedDataset::Build(*ds, options);
  ASSERT_TRUE(ed.ok());
  core::GraphContextOptions gopts;
  gopts.k = 6;
  gopts.exact_threshold = 128;  // force NN-descent on the patch table
  auto graph = core::GraphContext::Build(*ed, gopts);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), ed->num_vectors());
  EXPECT_GT(graph->adjacency().nnz(), 0u);
}

TEST(CoverageTest, TaskRunnerHandlesConceptWithFewPositives) {
  // R = min(target, positives): a concept with 3 positives can reach AP 1
  // by finding all 3 early.
  auto profile = SmallBdd();
  profile.min_positives_per_concept = 3;
  auto ds = data::Dataset::Generate(profile);
  ASSERT_TRUE(ds.ok());
  // Find the concept with the fewest positives.
  size_t rare = 0;
  for (size_t c = 1; c < ds->space().num_concepts(); ++c) {
    if (ds->positives(c).size() < ds->positives(rare).size()) rare = c;
  }
  core::PreprocessOptions options;
  options.build_md = false;
  options.multiscale.enabled = false;
  auto ed = core::EmbeddedDataset::Build(*ds, options);
  ASSERT_TRUE(ed.ok());
  core::SeeSawSearcher searcher(*ed, ed->TextQuery(rare), {});
  eval::TaskOptions task;
  task.max_images = static_cast<size_t>(ds->num_images());
  auto result = eval::RunSearchTask(searcher, *ds, rare, task);
  // All positives found eventually -> found == min(10, positives).
  EXPECT_EQ(result.found,
            std::min<size_t>(10, ds->positives(rare).size()));
  EXPECT_GT(result.ap, 0.0);
}

TEST(CoverageTest, MultiscaleSessionPrefersPatchEvidence) {
  // A box covering only a small object should create at least one positive
  // fine-tile example whose embedding is closer to the concept than the
  // coarse tile's — the mechanism §4.3 relies on.
  auto ds = data::Dataset::Generate(SmallBdd());
  ASSERT_TRUE(ds.ok());
  core::PreprocessOptions options;
  options.build_md = false;
  auto ed = core::EmbeddedDataset::Build(*ds, options);
  ASSERT_TRUE(ed.ok());

  // Across images holding exactly one *small* instance of a concept, the
  // best overlapping fine tile usually carries a stronger concept signal
  // than the coarse tile (it can't hold for every case — e.g. a centered
  // object visible in every tile — so assert on the majority).
  size_t fine_wins = 0, cases = 0;
  for (size_t c = 0; c < ds->space().num_concepts() && cases < 40; ++c) {
    for (uint32_t img : ds->positives(c)) {
      auto boxes = ds->ConceptBoxes(img, c);
      const auto& rec = ds->image(img);
      if (boxes.size() != 1 ||
          boxes[0].Area() > 0.05f * rec.Bounds().Area()) {
        continue;
      }
      auto [begin, end] = ed->ImagePatchRange(img);
      if (end - begin < 4) continue;
      auto centroid = ds->space().concept_at(c).ModeCentroid();
      float coarse_cos =
          linalg::Cosine(ed->vectors().Row(begin), centroid);
      float best_fine = -2;
      for (uint32_t v = begin + 1; v < end; ++v) {
        if (!ed->patch(v).box.Overlaps(boxes[0])) continue;
        best_fine = std::max(
            best_fine, linalg::Cosine(ed->vectors().Row(v), centroid));
      }
      if (best_fine > -2) {
        ++cases;
        fine_wins += (best_fine > coarse_cos);
      }
      if (cases >= 40) break;
    }
  }
  ASSERT_GT(cases, 10u) << "not enough small-object cases";
  EXPECT_GT(static_cast<double>(fine_wins) / cases, 0.6)
      << fine_wins << "/" << cases;
}

}  // namespace
}  // namespace seesaw
