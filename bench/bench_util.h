// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every bench binary accepts:
//   --scale=<double>   dataset scale factor (default 1.0; tests use less)
//   --dim=<int>        embedding dimension (default 128; paper uses 512)
//   --batch=<int>      feedback batch size (default 10)
// and prints one table/figure of the paper, plus a "paper:" reference line
// for eyeball comparison. All runs are deterministic.
#ifndef SEESAW_BENCH_BENCH_UTIL_H_
#define SEESAW_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/baselines/ens.h"
#include "core/baselines/propagation.h"
#include "core/baselines/rocchio.h"
#include "core/embedded_dataset.h"
#include "core/graph_context.h"
#include "core/seesaw_searcher.h"
#include "data/profiles.h"
#include "eval/metrics.h"
#include "eval/task_runner.h"

namespace seesaw::bench {

/// Latency distribution over repeated timed runs. Means hide tail latency —
/// the paper's interactivity argument is about the *worst* rounds a user
/// sits through — so the latency benches report p50/p95/p99 alongside the
/// historical mean.
struct LatencyStats {
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

/// Nearest-rank percentiles over the recorded samples. With few iterations
/// p95/p99 degenerate to the max — the honest tail estimate a small sample
/// supports (the committed baselines run enough iters to separate them).
inline LatencyStats SummarizeLatencies(std::vector<double> samples_ms) {
  LatencyStats s;
  if (samples_ms.empty()) return s;
  std::sort(samples_ms.begin(), samples_ms.end());
  double total = 0;
  for (double v : samples_ms) total += v;
  s.mean_ms = total / static_cast<double>(samples_ms.size());
  auto rank = [&](double p) {
    size_t idx = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples_ms.size())));
    if (idx > 0) --idx;
    return samples_ms[std::min(idx, samples_ms.size() - 1)];
  };
  s.p50_ms = rank(50);
  s.p95_ms = rank(95);
  s.p99_ms = rank(99);
  return s;
}

/// Command-line options shared by all bench binaries.
struct BenchArgs {
  double scale = 1.0;
  size_t dim = 128;
  size_t batch = 10;
  // Loss hyper-parameter overrides (<0 keeps the library default).
  double lambda = -1.0;
  double lambda_text = -1.0;
  double lambda_db = -1.0;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--scale=", 8) == 0) args.scale = std::atof(a + 8);
      if (std::strncmp(a, "--dim=", 6) == 0) {
        args.dim = static_cast<size_t>(std::atoi(a + 6));
      }
      if (std::strncmp(a, "--batch=", 8) == 0) {
        args.batch = static_cast<size_t>(std::atoi(a + 8));
      }
      if (std::strncmp(a, "--lambda=", 9) == 0) args.lambda = std::atof(a + 9);
      if (std::strncmp(a, "--ltext=", 8) == 0) {
        args.lambda_text = std::atof(a + 8);
      }
      if (std::strncmp(a, "--ldb=", 6) == 0) args.lambda_db = std::atof(a + 6);
    }
    return args;
  }

  /// Applies the overrides to a searcher configuration.
  core::SeeSawOptions Apply(core::SeeSawOptions o) const {
    if (lambda >= 0) o.aligner.loss.lambda = lambda;
    if (lambda_text >= 0) o.aligner.loss.lambda_text = lambda_text;
    if (lambda_db >= 0) o.aligner.loss.lambda_db = lambda_db;
    return o;
  }
};

/// One dataset prepared for benchmarking (generated + embedded).
struct PreparedDataset {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<core::EmbeddedDataset> embedded;
  std::vector<size_t> concepts;  // evaluable query set
};

inline PreparedDataset Prepare(data::DatasetProfile profile,
                               const BenchArgs& args, bool multiscale,
                               bool build_md) {
  profile.embedding_dim = args.dim;
  auto ds = data::Dataset::Generate(profile);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", profile.name.c_str(),
                 ds.status().ToString().c_str());
    std::exit(1);
  }
  PreparedDataset out;
  out.dataset = std::make_unique<data::Dataset>(std::move(*ds));

  core::PreprocessOptions options;
  options.multiscale.enabled = multiscale;
  options.build_md = build_md;
  options.md.k = 10;       // paper §5.2
  options.md.sigma = 0.0;  // adaptive width (see DESIGN.md)
  // Preprocessing shortcut from §4.2 keeps bench runtimes sane; the paper
  // notes a few thousand samples give a very similar M_D.
  options.md.sample_size = 4000;
  auto ed = core::EmbeddedDataset::Build(*out.dataset, options);
  if (!ed.ok()) {
    std::fprintf(stderr, "embed %s: %s\n", profile.name.c_str(),
                 ed.status().ToString().c_str());
    std::exit(1);
  }
  out.embedded = std::make_unique<core::EmbeddedDataset>(std::move(*ed));
  out.concepts = out.dataset->EvaluableConcepts(3);
  return out;
}

/// Factory for the SeeSaw family (zero-shot / few-shot / query-align / full).
inline eval::SearcherFactory SeeSawFactory(const PreparedDataset& d,
                                           core::SeeSawOptions options) {
  const auto* embedded = d.embedded.get();
  return [embedded, options](size_t concept_id) {
    return std::make_unique<core::SeeSawSearcher>(
        *embedded, embedded->TextQuery(concept_id), options);
  };
}

inline core::SeeSawOptions ZeroShotOptions() {
  core::SeeSawOptions o;
  o.update_query = false;
  return o;
}

inline core::SeeSawOptions FewShotOptions() {
  core::SeeSawOptions o;
  o.aligner.loss.use_text_term = false;
  o.aligner.loss.use_db_term = false;
  // Eq. 1 of the paper is *standard* logistic regression on the feedback —
  // no class re-weighting. (SeeSaw's own loss keeps balance_classes on; see
  // LossOptions.)
  o.aligner.loss.balance_classes = false;
  return o;
}

inline core::SeeSawOptions QueryAlignOptions() {
  core::SeeSawOptions o;
  o.aligner.loss.use_db_term = false;
  return o;
}

inline core::SeeSawOptions FullSeeSawOptions() {
  return core::SeeSawOptions{};
}

/// Indices of `zero_shot` results with AP < .5 — the paper's hard subset.
inline std::vector<size_t> HardSubset(const eval::BenchmarkRun& zero_shot) {
  std::vector<size_t> hard;
  for (size_t i = 0; i < zero_shot.results.size(); ++i) {
    if (zero_shot.results[i].ap < 0.5) hard.push_back(i);
  }
  return hard;
}

/// Mean AP over a subset of result indices.
inline double MeanApOver(const eval::BenchmarkRun& run,
                         const std::vector<size_t>& indices) {
  if (indices.empty()) return 0.0;
  double total = 0;
  for (size_t i : indices) total += run.results[i].ap;
  return total / static_cast<double>(indices.size());
}

/// Prints a row of a dataset-by-method table.
inline void PrintRow(const std::string& label,
                     const std::vector<double>& values) {
  std::printf("%-18s", label.c_str());
  double sum = 0;
  for (double v : values) {
    std::printf("  %6.2f", v);
    sum += v;
  }
  if (!values.empty()) {
    std::printf("  | %6.2f", sum / static_cast<double>(values.size()));
  }
  std::printf("\n");
}

inline void PrintHeader(const std::string& first,
                        const std::vector<std::string>& datasets) {
  std::printf("%-18s", first.c_str());
  for (const auto& name : datasets) std::printf("  %6s", name.c_str());
  std::printf("  | %6s\n", "avg");
}

}  // namespace seesaw::bench

#endif  // SEESAW_BENCH_BENCH_UTIL_H_
