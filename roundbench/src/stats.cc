#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace roundbench {

size_t NearestRank(size_t n, int pct) {
  const size_t p = static_cast<size_t>(std::clamp(pct, 1, 100));
  return std::max<size_t>(1, (p * n + 99) / 100);
}

bool Percentile(std::vector<double> samples, int pct, double* out) {
  const size_t n = samples.size();
  if (n == 0) return false;
  const size_t rank = NearestRank(n, pct);
  if (pct > 50 && n - rank < kMinBeyond) return false;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  *out = samples[rank - 1];
  return true;
}

size_t MinSamplesFor(int pct) {
  if (pct <= 50) return 1;
  if (pct >= 100) return SIZE_MAX;  // nothing ever lies beyond the max
  size_t n = 1;
  while (n - NearestRank(n, pct) < kMinBeyond) ++n;
  return n;
}

size_t WindowCount(size_t n) {
  return std::clamp<size_t>(n / kWindowSamples, 1, kMaxWindows);
}

bool WindowedPercentile(std::vector<TimedSample> samples, int pct,
                        double* out) {
  if (samples.empty()) return false;
  std::sort(samples.begin(), samples.end(),
            [](const TimedSample& a, const TimedSample& b) {
              return a.end_ns < b.end_ns;
            });
  const size_t k = WindowCount(samples.size());
  std::vector<double> per_window;
  for (size_t w = 0; w < k; ++w) {
    std::vector<double> values;
    for (size_t i = w * samples.size() / k;
         i < (w + 1) * samples.size() / k; ++i) {
      values.push_back(samples[i].value);
    }
    double v = 0;
    if (!Percentile(std::move(values), pct, &v)) return false;
    per_window.push_back(v);
  }
  return Percentile(std::move(per_window), 50, out);
}

bool WindowedRate(std::vector<int64_t> end_ns, int64_t start_ns, double* out) {
  if (end_ns.empty()) return false;
  std::sort(end_ns.begin(), end_ns.end());
  const size_t k = WindowCount(end_ns.size());
  std::vector<double> per_window;
  int64_t window_start = start_ns;
  for (size_t w = 0; w < k; ++w) {
    const size_t begin = w * end_ns.size() / k;
    const size_t end = (w + 1) * end_ns.size() / k;
    const int64_t window_end = end_ns[end - 1];
    if (window_end > window_start) {
      per_window.push_back(static_cast<double>(end - begin) * 1e9 /
                           static_cast<double>(window_end - window_start));
    }
    window_start = window_end;
  }
  return Percentile(std::move(per_window), 50, out);
}

int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::erase_if(children, [](const Interval& c) { return c.end <= c.begin; });
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  int64_t covered = 0;
  int64_t run_begin = 0;
  int64_t run_end = 0;
  bool in_run = false;
  for (const Interval& c : children) {
    if (in_run && c.begin <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (in_run) covered += run_end - run_begin;
    run_begin = c.begin;
    run_end = c.end;
    in_run = true;
  }
  if (in_run) covered += run_end - run_begin;
  return (parent.end - parent.begin) - covered;
}

bool PairedDifferences(const std::vector<std::vector<double>>& a,
                       const std::vector<std::vector<double>>& b,
                       std::vector<double>* out) {
  if (a.size() != b.size()) return false;
  for (size_t s = 0; s < a.size(); ++s) {
    if (a[s].size() != b[s].size()) return false;
  }
  out->clear();
  for (size_t s = 0; s < a.size(); ++s) {
    for (size_t i = 0; i < a[s].size(); ++i) {
      out->push_back(a[s][i] - b[s][i]);
    }
  }
  return true;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t TraceBuffer::Begin(const char* name, uint64_t session,
                            uint32_t parent) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, session, parent, NowNs(), 0});
  return static_cast<uint32_t>(spans_.size());
}

void TraceBuffer::End(uint32_t id) {
  if (id != 0) spans_[id - 1].end_ns = NowNs();
}

std::vector<SpanSummary> SummarizeSpans(
    const std::vector<const TraceBuffer*>& buffers) {
  struct Samples {
    std::vector<double> total_ms;
    std::vector<double> self_ms;
  };
  std::map<std::string, Samples> by_name;
  for (const TraceBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<std::vector<Interval>> children(spans.size());
    for (const Span& s : spans) {
      if (s.parent != 0) {
        children[s.parent - 1].push_back(Interval{s.begin_ns, s.end_ns});
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Interval self{spans[i].begin_ns, spans[i].end_ns};
      Samples& samples = by_name[spans[i].name];
      samples.total_ms.push_back(static_cast<double>(self.end - self.begin) *
                                 1e-6);
      samples.self_ms.push_back(
          static_cast<double>(SelfTime(self, std::move(children[i]))) * 1e-6);
    }
  }
  std::vector<SpanSummary> out;
  for (auto& [name, samples] : by_name) {
    SpanSummary summary;
    summary.name = name;
    summary.n = samples.total_ms.size();
    Percentile(std::move(samples.total_ms), 50, &summary.p50_ms);
    Percentile(std::move(samples.self_ms), 50, &summary.self_p50_ms);
    out.push_back(std::move(summary));
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const TraceBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "buffer\tid\tparent\tsession\tname\tbegin_ns\tend_ns\n");
  for (size_t b = 0; b < buffers.size(); ++b) {
    const std::vector<Span>& spans = buffers[b]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%u\t%llu\t%s\t%lld\t%lld\n", b, i + 1,
                   s.parent, static_cast<unsigned long long>(s.session),
                   s.name, static_cast<long long>(s.begin_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace roundbench
