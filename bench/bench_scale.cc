// Million-row scan scale sweep: fp32 vs int8 quantized ScoreBlock.
//
// The paper runs interactive search over datasets up to BDD/ObjectNet scale;
// the open question for this reproduction was whether the exact scan stays
// interactive at millions of rows. This bench answers it with committed
// numbers (BENCH_scale.json via scripts/run_scale_suite.sh): batched TopK
// latency percentiles over {fp32, int8} x store sizes.
//
//   ./bench_scale [--sizes=1M,4M] [--dim=128] [--k=100] [--batch=8]
//                 [--warmup=1] [--iters=5] [--threads=0] [--centers=64]
//                 [--min-recall=0.99] [--tmpdir=/tmp] [--json]
//
// Size tokens accept K/M suffixes (1M = 1000000). For each size the table
// is *streamed*: clustered CLIP-like rows are generated in fixed-size
// chunks and written once to a temp file (common/binary_io), then loaded
// into exactly one in-memory copy — generation never materializes a second
// table-sized buffer, which is what makes the 16M (8 GB) point fit
// comfortably.
//
// Every int8 configuration is gated, not just timed:
//   - recall@k vs the fp32 exact scan over the same queries must be >=
//     --min-recall (the cross-family contract, enforced here at full scale);
//   - a forced-scalar int8 ScoreBlock over a sampled row block must be
//     bitwise equal to the active SIMD int8 kernel (the within-family
//     contract, enforced on the exact table the bench scans).
// A violated gate aborts the bench, so a committed BENCH_scale.json is
// itself evidence both contracts held at scale.
//
// Output rows (one JSON object per line under --json, table otherwise):
//   kind=scan:   per (n, precision) batched-scan latency stats —
//                mean/p50/p95/p99 ms, rows/s, GB/s, qps, recall_at_k and
//                speedup_vs_fp32_p50 on int8 rows.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/binary_io.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "linalg/quantize.h"
#include "linalg/simd.h"
#include "linalg/vector_ops.h"
#include "store/exact_store.h"

namespace seesaw::bench {
namespace {

struct ScaleArgs {
  std::vector<size_t> sizes = {1000000};
  size_t dim = 128;
  size_t k = 100;
  size_t batch = 8;
  int warmup = 1;
  int iters = 5;
  size_t threads = 0;
  size_t centers = 0;  // 0 = auto: 64 rows per cluster, min 64 centers
  double min_recall = 0.99;
  std::string tmpdir = "/tmp";
  bool json = false;

  /// "1M,250K,5000" -> {1000000, 250000, 5000}: K/M suffixes scale by
  /// 10^3/10^6, plain integers pass through.
  static std::vector<size_t> ParseSizeList(const char* p) {
    std::vector<size_t> out;
    while (*p != '\0') {
      char* end = nullptr;
      size_t value = std::strtoul(p, &end, 10);
      if (*end == 'M' || *end == 'm') value *= 1000000;
      if (*end == 'K' || *end == 'k') value *= 1000;
      if (end != p) out.push_back(value);
      p = std::strchr(end, ',');
      if (p == nullptr) break;
      ++p;
    }
    return out;
  }

  static ScaleArgs Parse(int argc, char** argv) {
    ScaleArgs args;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--sizes=", 8) == 0) {
        args.sizes = ParseSizeList(a + 8);
        if (args.sizes.empty()) {
          std::fprintf(stderr,
                       "bench_scale: --sizes needs tokens like 1M,4M,16M\n");
          std::exit(2);
        }
      }
      if (std::strncmp(a, "--dim=", 6) == 0) args.dim = std::atoi(a + 6);
      if (std::strncmp(a, "--k=", 4) == 0) args.k = std::atoi(a + 4);
      if (std::strncmp(a, "--batch=", 8) == 0) args.batch = std::atoi(a + 8);
      if (std::strncmp(a, "--warmup=", 9) == 0) args.warmup = std::atoi(a + 9);
      if (std::strncmp(a, "--iters=", 8) == 0) args.iters = std::atoi(a + 8);
      if (std::strncmp(a, "--threads=", 10) == 0) {
        args.threads = std::atoi(a + 10);
      }
      if (std::strncmp(a, "--centers=", 10) == 0) {
        args.centers = std::strtoul(a + 10, nullptr, 10);
      }
      if (std::strncmp(a, "--min-recall=", 13) == 0) {
        args.min_recall = std::atof(a + 13);
      }
      if (std::strncmp(a, "--tmpdir=", 9) == 0) args.tmpdir = a + 9;
      if (std::strcmp(a, "--json") == 0) args.json = true;
    }
    return args;
  }
};

/// Per-element noise sigma that yields an expected noise *norm* of `norm`
/// regardless of dimension. CLIP-like clusters keep a fixed angular spread;
/// naive per-element sigma would make high-dim "clusters" pure noise.
inline float NoiseSigma(double norm, size_t dim) {
  return static_cast<float>(norm / std::sqrt(static_cast<double>(dim)));
}

/// Streams a clustered CLIP-like unit-vector table to `path` in fixed-size
/// chunks: rows are unit centers plus norm-1.0 Gaussian noise, normalized
/// (within-cluster cosine ~0.5, same-concept CLIP territory), generated
/// without ever holding more than one chunk in memory.
void GenerateTableFile(const std::string& path, size_t n, size_t dim,
                       size_t centers, uint64_t seed) {
  Rng rng(seed);
  const float sigma = NoiseSigma(1.0, dim);
  std::vector<linalg::VectorF> mu(centers);
  for (auto& c : mu) {
    c.resize(dim);
    for (float& x : c) x = static_cast<float>(rng.Gaussian());
    linalg::NormalizeInPlace(linalg::MutVecSpan(c.data(), c.size()));
  }
  auto writer = BinaryWriter::Open(path);
  SEESAW_CHECK(writer.ok()) << writer.status().ToString();
  constexpr size_t kChunkRows = 8192;
  std::vector<float> chunk(kChunkRows * dim);
  for (size_t row = 0; row < n;) {
    const size_t rows = std::min(kChunkRows, n - row);
    for (size_t r = 0; r < rows; ++r) {
      float* out = chunk.data() + r * dim;
      const linalg::VectorF& center = mu[(row + r) % centers];
      for (size_t j = 0; j < dim; ++j) {
        out[j] = center[j] + sigma * static_cast<float>(rng.Gaussian());
      }
      linalg::NormalizeInPlace(linalg::MutVecSpan(out, dim));
    }
    SEESAW_CHECK(writer->WriteFloats(chunk.data(), rows * dim).ok());
    row += rows;
  }
  SEESAW_CHECK(writer->Close().ok());
}

/// Loads the streamed file into the single in-memory table copy.
linalg::MatrixF LoadTableFile(const std::string& path, size_t n, size_t dim) {
  auto reader = BinaryReader::Open(path);
  SEESAW_CHECK(reader.ok()) << reader.status().ToString();
  linalg::MatrixF table(n, dim);
  constexpr size_t kChunkRows = 8192;
  for (size_t row = 0; row < n;) {
    const size_t rows = std::min(kChunkRows, n - row);
    SEESAW_CHECK(
        reader->ReadFloats(table.MutableRow(row).data(), rows * dim).ok());
    row += rows;
  }
  return table;
}

/// Within-family gate: forced-scalar int8 ScoreBlock must be bitwise equal
/// to the active SIMD int8 kernel over a sampled block of the *actual*
/// quantized table this bench scans.
void CheckInt8KernelParity(const linalg::QuantizedTable& q,
                           const std::vector<int8_t>& qdata,
                           const std::vector<float>& qscales,
                           size_t num_queries) {
  const size_t rows = std::min<size_t>(q.rows, 4096);
  const linalg::Int8KernelTable& scalar = linalg::ScalarInt8Kernels();
  const linalg::Int8KernelTable& active = linalg::ActiveInt8Kernels();
  std::vector<float> want(rows * num_queries), got(rows * num_queries);
  scalar.score_block(q.Row(0), q.scales.data(), rows, q.cols, qdata.data(),
                     qscales.data(), num_queries, want.data());
  active.score_block(q.Row(0), q.scales.data(), rows, q.cols, qdata.data(),
                     qscales.data(), num_queries, got.data());
  for (size_t i = 0; i < want.size(); ++i) {
    SEESAW_CHECK(std::memcmp(&want[i], &got[i], sizeof(float)) == 0)
        << "int8 kernel '" << active.name
        << "' diverged bitwise from the scalar reference at cell " << i;
  }
}

struct Measurement {
  LatencyStats stats;
  double rows_per_sec = 0;
  double gb_per_sec = 0;
  double qps = 0;
};

Measurement MeasureScan(const store::VectorStore& store,
                        const std::vector<linalg::VecSpan>& spans, size_t n,
                        size_t bytes_per_row, const ScaleArgs& args,
                        const store::SeenSet& seen, ThreadPool* pool) {
  auto queries_span = std::span<const linalg::VecSpan>(spans);
  volatile size_t sink = 0;
  std::vector<double> samples;
  for (int it = -args.warmup; it < args.iters; ++it) {
    Stopwatch sw;
    auto hits = store.TopKBatch(queries_span, args.k, seen, pool);
    SEESAW_CHECK_EQ(hits.size(), spans.size());
    sink = sink + hits.front().size();
    if (it >= 0) samples.push_back(sw.ElapsedSeconds() * 1e3);
  }
  Measurement m;
  m.stats = SummarizeLatencies(std::move(samples));
  if (m.stats.mean_ms > 0) {
    const double seconds = m.stats.mean_ms / 1e3;
    m.rows_per_sec = static_cast<double>(n) / seconds;
    m.gb_per_sec =
        static_cast<double>(n) * static_cast<double>(bytes_per_row) / seconds /
        1e9;
    m.qps = static_cast<double>(spans.size()) / seconds;
  }
  return m;
}

int Run(int argc, char** argv) {
  ScaleArgs args = ScaleArgs::Parse(argc, argv);
  ThreadPool pool(args.threads == 0 ? ThreadPool::DefaultThreads()
                                    : args.threads);

  if (!args.json) {
    std::printf("scan scale sweep: dim=%zu k=%zu batch=%zu threads=%zu "
                "iters=%d kernel=%s\n",
                args.dim, args.k, args.batch, pool.num_threads(), args.iters,
                linalg::ActiveKernels().name);
    std::printf("%-9s %-8s %10s %10s %10s %10s %12s %9s %8s\n", "n",
                "prec", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "rows/s",
                "GB/s", "recall");
  }

  for (size_t n : args.sizes) {
    SEESAW_CHECK_GT(n, size_t{0});
    const std::string path =
        args.tmpdir + "/seesaw_scale_" + std::to_string(n) + "_" +
        std::to_string(args.dim) + ".bin";
    // Auto center count keeps *cluster size* constant as n grows (datasets
    // grow by adding concepts, not by densifying existing ones) and larger
    // than k: with ~128 same-cluster rows per query, the rank-k boundary
    // falls *inside* a cluster, where score gaps are set by the noise scale
    // — not in the cross-cluster tail, whose gaps shrink as n grows and
    // would make the recall gate n-dependent.
    const size_t centers =
        args.centers > 0 ? args.centers : std::max<size_t>(64, n / 128);
    GenerateTableFile(path, n, args.dim, centers, /*seed=*/91);
    linalg::MatrixF table = LoadTableFile(path, n, args.dim);
    std::remove(path.c_str());

    // CLIP-like queries: norm-0.3 perturbations of stored rows (cosine
    // ~0.96 to the source), fixed across both precisions so
    // latencies and recall are comparable.
    Rng qrng(92);
    const float qsigma = NoiseSigma(0.3, args.dim);
    std::vector<linalg::VectorF> queries;
    for (size_t qi = 0; qi < args.batch; ++qi) {
      auto row = table.Row((qi * 1315423911u) % n);
      linalg::VectorF v(row.begin(), row.end());
      for (float& x : v) x += qsigma * static_cast<float>(qrng.Gaussian());
      linalg::NormalizeInPlace(linalg::MutVecSpan(v.data(), v.size()));
      queries.push_back(std::move(v));
    }
    std::vector<linalg::VecSpan> spans(queries.begin(), queries.end());
    const store::SeenSet no_seen;

    // fp32 reference store: also the recall truth for the int8 gate.
    auto fp32 = store::ExactStore::Create(table);
    SEESAW_CHECK(fp32.ok());
    std::vector<std::vector<store::SearchResult>> truth;
    for (const auto& q : spans) truth.push_back(fp32->TopK(q, args.k));

    // int8 store (used for the recall gate, kernel parity gate, and the
    // int8 rows).
    store::ExactStoreOptions int8_options;
    int8_options.precision = store::ScanPrecision::kInt8;
    auto int8 = store::ExactStore::Create(table, int8_options);
    SEESAW_CHECK(int8.ok());

    double recall = 0;
    for (size_t qi = 0; qi < spans.size(); ++qi) {
      recall +=
          store::RecallAgainst(int8->TopK(spans[qi], args.k), truth[qi]);
    }
    recall /= static_cast<double>(spans.size());
    SEESAW_CHECK_GE(recall, args.min_recall)
        << "int8 recall@" << args.k << " fell below the gate at n=" << n;

    {
      // Quantize the query batch the same way the scan does and run the
      // within-family bitwise gate on this table.
      std::vector<int8_t> qdata(args.batch * args.dim);
      std::vector<float> qscales(args.batch);
      for (size_t qi = 0; qi < args.batch; ++qi) {
        qscales[qi] = linalg::QuantizeVectorInto(spans[qi],
                                                 qdata.data() + qi * args.dim);
      }
      CheckInt8KernelParity(int8->quantized(), qdata, qscales, args.batch);
    }

    // --- scan rows: one per precision. ---
    double fp32_p50 = 0;
    for (int prec = 0; prec < 2; ++prec) {
      const bool is_int8 = prec == 1;
      const size_t bytes_per_row = is_int8 ? args.dim : args.dim * 4;
      const store::VectorStore& scan_store =
          is_int8 ? static_cast<const store::VectorStore&>(*int8) : *fp32;
      Measurement m = MeasureScan(scan_store, spans, n, bytes_per_row, args,
                                  no_seen, &pool);
      double speedup = 0;
      if (!is_int8) fp32_p50 = m.stats.p50_ms;
      if (is_int8 && m.stats.p50_ms > 0) speedup = fp32_p50 / m.stats.p50_ms;
      if (args.json) {
        std::printf(
            "{\"kind\":\"scan\",\"n\":%zu,\"dim\":%zu,\"k\":%zu,"
            "\"batch\":%zu,\"precision\":\"%s\",\"mean_ms\":%.3f,"
            "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,"
            "\"rows_per_sec\":%.0f,\"gb_per_sec\":%.3f,\"qps\":%.2f,"
            "\"recall_at_k\":%.5f,\"speedup_vs_fp32_p50\":%.3f}\n",
            n, args.dim, args.k, args.batch, is_int8 ? "int8" : "float32",
            m.stats.mean_ms, m.stats.p50_ms, m.stats.p95_ms, m.stats.p99_ms,
            m.rows_per_sec, m.gb_per_sec, m.qps, is_int8 ? recall : 1.0,
            speedup);
      } else {
        std::printf("%-9zu %-8s %10.2f %10.2f %10.2f %10.2f %12.0f %9.2f "
                    "%8.4f\n",
                    n, is_int8 ? "int8" : "float32", m.stats.mean_ms,
                    m.stats.p50_ms, m.stats.p95_ms, m.stats.p99_ms,
                    m.rows_per_sec, m.gb_per_sec, is_int8 ? recall : 1.0);
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace seesaw::bench

int main(int argc, char** argv) { return seesaw::bench::Run(argc, argv); }
