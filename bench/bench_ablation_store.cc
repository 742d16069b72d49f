// Ablation (§2.2's claim): the vector store "needs to be accurate, but does
// not need to be exact". Runs the identical SeeSaw benchmark task over the
// exact scan at both scan precisions (fp32, and the int8 scan the
// interactive-round benchmark also runs) and over Annoy (RP-tree forest,
// the paper's store), and reports mean AP plus median per-round system
// latency for each.
//
// Paper reference: "We saw only a minor drop in accuracy metrics in our
// benchmarks using Annoy vs an exact but slow scan."
#include "bench/bench_util.h"

namespace seesaw::bench {
namespace {

void Run(const BenchArgs& args) {
  eval::TaskOptions task;
  task.batch_size = args.batch;

  auto profile = data::LvisLikeProfile(args.scale);
  profile.embedding_dim = args.dim;
  auto ds = data::Dataset::Generate(profile);
  SEESAW_CHECK(ds.ok());
  auto concepts = ds->EvaluableConcepts(3);

  std::printf("== Store ablation: same task, three MIPS stores ==\n");
  std::printf("%-10s %8s %8s %12s\n", "backend", "mAP", "hard", "s/round");

  std::vector<size_t> hard;  // fixed from the exact run (first iteration)
  struct Store {
    const char* name;
    core::StoreBackend backend;
    store::ScanPrecision precision;
  };
  for (const Store& s :
       {Store{"exact", core::StoreBackend::kExact,
              store::ScanPrecision::kFloat32},
        Store{"exact-i8", core::StoreBackend::kExact,
              store::ScanPrecision::kInt8},
        Store{"annoy", core::StoreBackend::kAnnoy,
              store::ScanPrecision::kFloat32}}) {
    core::PreprocessOptions options;
    options.multiscale.enabled = true;
    options.build_md = true;
    options.md.sample_size = 4000;
    options.backend = s.backend;
    options.exact.precision = s.precision;
    options.annoy.num_trees = 24;
    auto embedded = core::EmbeddedDataset::Build(*ds, options);
    SEESAW_CHECK(embedded.ok());

    if (hard.empty()) {
      core::SeeSawOptions zs;
      zs.update_query = false;
      auto zs_run = RunBenchmark(
          [&](size_t concept_id) {
            return std::make_unique<core::SeeSawSearcher>(
                *embedded, embedded->TextQuery(concept_id), zs);
          },
          *ds, concepts, task);
      hard = HardSubset(zs_run);
    }

    auto run = RunBenchmark(
        [&](size_t concept_id) {
          return std::make_unique<core::SeeSawSearcher>(
              *embedded, embedded->TextQuery(concept_id),
              args.Apply(core::SeeSawOptions{}));
        },
        *ds, concepts, task);
    std::vector<double> rounds;
    for (const auto& r : run.results) rounds.push_back(r.seconds_per_round);
    std::printf("%-10s %8.3f %8.3f %12.5f\n", s.name, run.MeanAp(),
                MeanApOver(run, hard), eval::Median(rounds));
  }
  std::printf("\npaper: Annoy vs exact scan shows only a minor accuracy"
              " drop (§2.2)\n");
}

}  // namespace
}  // namespace seesaw::bench

int main(int argc, char** argv) {
  seesaw::bench::Run(seesaw::bench::BenchArgs::Parse(argc, argv));
  return 0;
}
