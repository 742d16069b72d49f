// Statistics and tracing helpers for round_bench. They live apart from
// round_bench.cc so stats_test.cc exercises exactly the code the benchmark
// reports with.
//
//  * Percentiles are nearest-rank. A tail percentile (above the median) is
//    reportable only when at least kMinBeyond samples lie beyond its rank;
//    the benchmark fails the run instead of printing what would be the max.
//  * Long phases are cut into windows by completion time; a windowed metric
//    is the median of its per-window values.
//  * Spans form a tree per benchmark thread (parent ids are local to one
//    TraceBuffer). A span's self time is its duration minus the part of its
//    interval covered by the union of its children, so nested and
//    overlapping children are counted once.
//  * PairedDifferences subtracts one pass's per-call times from another's,
//    call by call, for passes that made the same calls in the same order
//    per session (the wire pass and its in-process replay).
#ifndef ROUNDBENCH_STATS_H_
#define ROUNDBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace roundbench {

/// Samples that must lie beyond a tail percentile's rank for it to be
/// reported.
constexpr size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `pct` (1..100) among `n` samples:
/// ceil(pct * n / 100), at least 1. Integer arithmetic, so p95 of 200
/// samples is rank 190 exactly.
size_t NearestRank(size_t n, int pct);

/// Percentile `pct` of `samples` by nearest rank. Returns false, leaving
/// *out untouched, when there are no samples, or when `pct` > 50 and fewer
/// than kMinBeyond samples lie beyond the rank.
bool Percentile(std::vector<double> samples, int pct, double* out);

/// Smallest sample count for which Percentile(.., pct, ..) succeeds.
size_t MinSamplesFor(int pct);

/// Windowed statistics: a phase's samples, ordered by completion time, are
/// cut into WindowCount(n) consecutive windows of equal count, and a metric
/// is the median over the windows of its per-window value. A burst of
/// interference then moves a minority of windows, not the metric.
constexpr size_t kWindowSamples = 1000;
constexpr size_t kMaxWindows = 10;

/// clamp(n / kWindowSamples, 1, kMaxWindows).
size_t WindowCount(size_t n);

/// One timed sample: its completion time and its value.
struct TimedSample {
  int64_t end_ns = 0;
  double value = 0;
};

/// Median over windows of each window's percentile `pct`. False, leaving
/// *out untouched, when any window's percentile is refused (see Percentile).
bool WindowedPercentile(std::vector<TimedSample> samples, int pct,
                        double* out);

/// Median over windows of each window's completion rate per second. A window
/// spans from the previous window's last completion (`start_ns` for the
/// first) to its own last completion. False without completions.
bool WindowedRate(std::vector<int64_t> end_ns, int64_t start_ns, double* out);

/// A half-open time interval [begin, end) in nanoseconds.
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Length of `parent` not covered by the union of `children`, each clipped
/// to `parent`. Children may nest, overlap each other or stick out of the
/// parent.
int64_t SelfTime(Interval parent, std::vector<Interval> children);

/// Per-call differences a[s][i] - b[s][i] over every session s and call i.
/// Returns false when the two passes' shapes differ (a session count or a
/// per-session call count), i.e. they did not make the same calls.
bool PairedDifferences(const std::vector<std::vector<double>>& a,
                       const std::vector<std::vector<double>>& b,
                       std::vector<double>* out);

/// One traced call. `parent` is the 1-based id of the parent span in the
/// same TraceBuffer, 0 for a root.
struct Span {
  const char* name = "";
  uint64_t session = 0;
  uint32_t parent = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

/// Spans recorded by one benchmark thread, kept in memory until the run ends.
/// A disabled buffer records nothing and Begin returns 0.
class TraceBuffer {
 public:
  explicit TraceBuffer(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its id (0 when disabled).
  uint32_t Begin(const char* name, uint64_t session, uint32_t parent = 0);
  /// Closes span `id`; no-op for id 0.
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Per span name: count, median duration and median self time.
struct SpanSummary {
  std::string name;
  size_t n = 0;
  double p50_ms = 0;
  double self_p50_ms = 0;
};

/// Summaries of every span name across `buffers`, sorted by name.
std::vector<SpanSummary> SummarizeSpans(
    const std::vector<const TraceBuffer*>& buffers);

/// Writes every span as one tab-separated line
/// (buffer, id, parent, session, name, begin_ns, end_ns). False on I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const TraceBuffer*>& buffers);

}  // namespace roundbench

#endif  // ROUNDBENCH_STATS_H_
