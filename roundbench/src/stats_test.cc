// Self-tests for round_bench's helpers: the percentile rule, windowed
// medians, self time from nested and overlapping child spans, and the
// wire-minus-in-process subtraction. Exit code 0 when every check holds.
#include <cstdio>
#include <vector>

#include "stats.h"

namespace roundbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // n..1, unsorted on purpose
}

void TestPercentileRule() {
  Check(NearestRank(200, 95) == 190, "p95 of 200 is rank 190");
  Check(NearestRank(100, 50) == 50, "p50 of 100 is rank 50");
  Check(NearestRank(1, 50) == 1, "p50 of 1 is rank 1");
  Check(NearestRank(3, 50) == 2, "p50 of 3 is rank 2");

  double v = -1;
  Check(!Percentile({}, 50, &v) && v == -1, "no samples, no median");
  Check(Percentile({7.0}, 50, &v) && v == 7.0, "median of one sample");
  Check(Percentile(Ramp(5), 50, &v) && v == 3.0, "median of 1..5 is 3");

  // p95 needs 10 samples beyond rank: 200 is the smallest count.
  Check(MinSamplesFor(95) == 200, "p95 needs 200 samples");
  Check(MinSamplesFor(50) == 1, "p50 needs 1 sample");
  Check(MinSamplesFor(99) == 1000, "p99 needs 1000 samples");
  Check(Percentile(Ramp(200), 95, &v) && v == 190.0, "p95 of 1..200");
  v = -1;
  Check(!Percentile(Ramp(199), 95, &v) && v == -1,
        "p95 of 199 samples is refused, not the max");
  Check(!Percentile(Ramp(5), 95, &v), "p95 of 5 samples is refused");
  Check(!Percentile(Ramp(50), 100, &v), "the max is never a tail percentile");
}

void TestSelfTime() {
  const Interval parent{0, 100};
  Check(SelfTime(parent, {}) == 100, "no children: all self");
  Check(SelfTime(parent, {{10, 20}, {30, 50}}) == 70, "disjoint children");
  // A grandchild-shaped interval nested inside a child counts once.
  Check(SelfTime(parent, {{10, 60}, {20, 30}}) == 50, "nested children");
  // Overlapping siblings (concurrent calls) cover their union.
  Check(SelfTime(parent, {{10, 40}, {30, 70}}) == 40, "overlapping children");
  Check(SelfTime(parent, {{30, 70}, {10, 40}, {60, 80}}) == 30,
        "overlap chain, any order");
  // Children sticking out of the parent are clipped to it.
  Check(SelfTime(parent, {{-50, 10}, {90, 150}}) == 80, "clipped children");
  Check(SelfTime(parent, {{200, 300}}) == 100, "child outside the parent");
  Check(SelfTime(parent, {{0, 100}, {40, 60}}) == 0, "fully covered");
  Check(SelfTime(parent, {{40, 40}}) == 100, "empty child");

  // The same rule through the tracer: root -> {a -> {a1}, b overlapping a}.
  TraceBuffer buffer(true);
  uint32_t root = buffer.Begin("root", 1);
  uint32_t a = buffer.Begin("a", 1, root);
  uint32_t a1 = buffer.Begin("a1", 1, a);
  buffer.End(a1);
  buffer.End(a);
  buffer.End(root);
  Check(buffer.spans().size() == 3, "three spans recorded");
  Check(buffer.spans()[1].parent == root && buffer.spans()[2].parent == a,
        "parents recorded");
  std::vector<SpanSummary> summary = SummarizeSpans({&buffer});
  Check(summary.size() == 3 && summary[0].name == "a" &&
            summary[2].name == "root",
        "summaries sorted by name");
  for (const SpanSummary& s : summary) {
    Check(s.n == 1 && s.self_p50_ms >= 0 && s.self_p50_ms <= s.p50_ms,
          "self time within span time");
  }
  TraceBuffer off(false);
  Check(off.Begin("x", 1) == 0 && off.spans().empty(),
        "disabled buffer records nothing");
}

void TestPairedDifferences() {
  std::vector<double> diffs;
  Check(PairedDifferences({{5.0, 7.0}, {3.0}}, {{1.0, 2.0}, {3.5}}, &diffs),
        "same shape pairs");
  Check(diffs == std::vector<double>({4.0, 5.0, -0.5}),
        "call-by-call wire minus in-process");
  Check(!PairedDifferences({{1.0}}, {{1.0}, {2.0}}, &diffs),
        "different session counts refused");
  Check(!PairedDifferences({{1.0, 2.0}}, {{1.0}}, &diffs),
        "different call counts refused");
  double p50 = 0;
  Check(PairedDifferences({{10.0, 11.0, 12.0}}, {{9.0, 9.0, 9.0}}, &diffs) &&
            Percentile(diffs, 50, &p50) && p50 == 2.0,
        "median of paired differences");
}

void TestWindows() {
  Check(WindowCount(0) == 1 && WindowCount(1999) == 1, "few samples: 1 window");
  Check(WindowCount(2000) == 2 && WindowCount(1000000) == kMaxWindows,
        "windows grow with samples, up to the cap");

  // 10 windows of 1000 samples, one per millisecond; values 1.0 except a
  // burst of 100.0 filling windows 2 and 7. The median over windows ignores
  // the burst, a whole-phase p95 would not.
  std::vector<TimedSample> samples;
  for (int64_t i = 0; i < 10000; ++i) {
    const size_t window = static_cast<size_t>(i / 1000);
    samples.push_back({i * 1000000, window == 2 || window == 7 ? 100.0 : 1.0});
  }
  double v = 0;
  Check(WindowedPercentile(samples, 95, &v) && v == 1.0,
        "windowed p95 ignores a burst in a minority of windows");
  double whole = 0;
  std::vector<double> values;
  for (const TimedSample& t : samples) values.push_back(t.value);
  Check(Percentile(values, 95, &whole) && whole == 100.0,
        "whole-phase p95 does not");
  // Order of arrival does not matter: windows follow completion time.
  std::vector<TimedSample> shuffled(samples.rbegin(), samples.rend());
  Check(WindowedPercentile(shuffled, 95, &v) && v == 1.0,
        "windows are cut by completion time");
  // One window is a plain percentile.
  Check(WindowedPercentile({{5, 3.0}, {1, 1.0}, {3, 2.0}}, 50, &v) &&
            v == 2.0,
        "one window is a plain percentile");
  // Too few samples for p95 in each window is refused.
  Check(!WindowedPercentile({{1, 1.0}}, 95, &v), "windowed p95 refused");

  // 2000 completions, one per millisecond from t=1 ms: 1000 per second.
  std::vector<int64_t> ends;
  for (int64_t i = 1; i <= 2000; ++i) ends.push_back(i * 1000000);
  double rate = 0;
  Check(WindowedRate(ends, 0, &rate) && rate == 1000.0, "steady rate");
  // A stall doubles the second window's span to 2 s. The nearest-rank
  // median of two windows is the lower one.
  for (size_t i = 1000; i < 2000; ++i) ends[i] += ends[i] - 1000000000;
  Check(WindowedRate(ends, 0, &rate) && rate == 500.0,
        "rate of two windows is their nearest-rank median");
  Check(!WindowedRate({}, 0, &rate), "no completions, no rate");
}

}  // namespace
}  // namespace roundbench

int main() {
  roundbench::TestPercentileRule();
  roundbench::TestWindows();
  roundbench::TestSelfTime();
  roundbench::TestPairedDifferences();
  if (roundbench::failures == 0) std::fprintf(stderr, "selftest: all passed\n");
  return roundbench::failures == 0 ? 0 : 1;
}
