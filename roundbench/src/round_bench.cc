// round_bench: SeeSaw's interactive round, end to end over loopback TCP and
// layer by layer in-process. See roundbench/README.md for the workloads,
// the metrics and the layer map; run.py builds this binary and is the
// command that drives it.
//
//   round_bench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//               [--out_dir=<dir>] [--git_sha=<sha>]
//
// One process hosts a SeeSawServer over the shipped defaults (ExactStore,
// speculation off, unsharded) and drives it with closed-loop SeeSawClients,
// one connection per client. A session is Create -> R rounds -> Close; a
// round is NextBatch(10) -> AddFeedback for every shown image with its
// ground-truth boxes -> Refit (browse-small skips the Refit). Session k runs
// the concept of entry k mod L of a fixed, seeded list of L sessions; the
// timed phase lasts at least --seconds, and longer if the first pass of the
// list or the sample count a p95 needs is not reached yet.
//
// --trace=0 measures the end-to-end metrics, then replays the list
// in-process (the calls the server handler makes) and checks the wire
// results decision for decision. --trace=1 runs that untraced phase, then
// (a) the wire phase again with client spans and (b) an in-process replay
// of every session (a) ran, with store-scan probes, and derives the
// per-layer metrics. The last stdout line is the JSON result.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/service.h"
#include "core/session_manager.h"
#include "data/profiles.h"
#include "eval/metrics.h"
#include "linalg/quantize.h"
#include "linalg/simd.h"
#include "net/client.h"
#include "net/server.h"
#include "stats.h"

#ifndef ROUNDBENCH_BUILD_TYPE
#define ROUNDBENCH_BUILD_TYPE "unknown"
#endif

namespace roundbench {
namespace {

using seesaw::Status;
using seesaw::Stopwatch;
using seesaw::TaskHandle;
using seesaw::ThreadPool;
namespace core = seesaw::core;
namespace data = seesaw::data;
namespace linalg = seesaw::linalg;
namespace net = seesaw::net;
namespace store = seesaw::store;

constexpr size_t kBatch = 10;
// Sheds (RETRY_LATER) are retried with a ramping back-off; a call still shed
// after this many attempts counts as failed.
constexpr int kMaxAttempts = 200;

// Each workload's reason for being; the traced run checks it.
enum class Premise {
  kScanOverFit,      // store.scan_p50_ms > core.searcher.refit_p50_ms
  kFitOverScan,      // core.searcher.refit_p50_ms > store.scan_p50_ms
  kNetOverFeedback,  // net.feedback_overhead_p50_ms > feedback_p50_ms / 2
};

struct Workload {
  const char* name;
  double scale;  // BddLikeProfile scale
  size_t dim;
  store::ScanPrecision precision;
  bool single_client;  // else one client per hardware thread
  size_t rounds;       // rounds (pages) per session
  bool refit;
  // M_D over a uniform row sample (the paper's preprocessing shortcut);
  // 0 = the whole table.
  size_t md_sample_rows;
  Premise premise;
};

constexpr Workload kWorkloads[] = {
    {"table6-fp32", 23.0, 128, store::ScanPrecision::kFloat32, true, 5, true,
     4096, Premise::kScanOverFit},
    {"long-int8", 23.0, 128, store::ScanPrecision::kInt8, false, 30, true,
     4096, Premise::kFitOverScan},
    {"browse-small", 0.05, 32, store::ScanPrecision::kFloat32, false, 3, false,
     0, Premise::kNetOverFeedback},
};

// The metrics of the final JSON line; BENCHMARK.json lists the same names
// (run.py checks that they agree).
constexpr const char* kEndToEndNames[] = {
    "setup_s",          "rounds_per_s",    "requests_per_s", "round_p50_ms",
    "nextbatch_p50_ms", "feedback_p50_ms", "peak_rss_mb",    "ap_mean"};
constexpr const char* kPerLayerNames[] = {
    "net.create_overhead_p50_ms",
    "net.nextbatch_overhead_p50_ms",
    "net.feedback_overhead_p50_ms",
    "net.requests_shed",
    "net.requests_error",
    "net.malformed_frames",
    "core.session.create_p50_ms",
    "core.session.acquire_p50_us",
    "core.session.close_p50_ms",
    "core.session.busy_rejected",
    "core.searcher.nextbatch_p50_ms",
    "core.searcher.nextbatch_p95_ms",
    "core.searcher.nextbatch_self_ms",
    "core.searcher.feedback_p50_us",
    "core.searcher.refit_p50_ms",
    "core.searcher.refit_p95_ms",
    "core.aligner.examples_at_refit",
    "optim.iterations_per_refit",
    "optim.evals_per_refit",
    "optim.us_per_eval",
    "store.scan_p50_ms",
    "store.rows_per_s",
    "linalg.fp32_gbps",
    "linalg.int8_gbps",
    "linalg.host_read_gbps",
    "linalg.fp32_bw_frac",
    "linalg.int8_bw_frac",
    "data.generate_s",
    "clip.embed_s",
    "store.build_s",
    "graph.md_s",
    "setup.table_mb",
    "trace.round_p50_ratio"};

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
};

bool ParseOne(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "round_bench: %s\nusage: round_bench --workload=<name> "
               "--seed=<n> --seconds=<s> --trace=<0|1> [--out_dir=<dir>] "
               "[--git_sha=<sha>]\n",
               why);
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseOne(argv[i], "--workload", &v)) {
      f.workload = v;
      have_workload = true;
    } else if (ParseOne(argv[i], "--seed", &v)) {
      f.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseOne(argv[i], "--seconds", &v)) {
      f.seconds = std::atof(v.c_str());
    } else if (ParseOne(argv[i], "--trace", &v)) {
      f.trace = v == "1";
    } else if (ParseOne(argv[i], "--out_dir", &v)) {
      f.out_dir = v;
    } else if (ParseOne(argv[i], "--git_sha", &v)) {
      f.git_sha = v;
    } else {
      Usage(argv[i]);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (f.seconds <= 0) Usage("--seconds must be > 0");
  return f;
}

// ------------------------------------------------------------------ setup --

// One set-up: dataset, preprocessed service and a listening server. Members
// are destroyed in reverse order, so the server stops first.
struct Env {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<core::SeeSawService> service;
  std::unique_ptr<net::SeeSawServer> server;
  double generate_s = 0;
  double total_s = 0;

  const core::EmbeddedDataset& embedded() const {
    return service->embedded();
  }
  core::SessionManager& manager() const { return service->sessions(); }
};

std::unique_ptr<Env> BuildEnv(const Workload& w, uint64_t seed) {
  auto env = std::make_unique<Env>();
  Stopwatch total;
  data::DatasetProfile profile = data::BddLikeProfile(w.scale);
  profile.embedding_dim = w.dim;
  profile.seed = seed;
  auto dataset = data::Dataset::Generate(profile);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return nullptr;
  }
  env->dataset = std::make_unique<data::Dataset>(std::move(*dataset));
  env->generate_s = total.ElapsedSeconds();

  // The serving configuration of tools/seesaw_server.cc.
  core::ServiceOptions options;
  options.preprocess.md.k = 5;
  options.preprocess.md.sample_size = w.md_sample_rows;
  options.preprocess.exact.precision = w.precision;
  options.session_limits.idle_ttl_seconds = 60.0;
  options.session_limits.max_inflight_per_session = 1;
  auto service = core::SeeSawService::Create(*env->dataset, options);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n", service.status().ToString().c_str());
    return nullptr;
  }
  env->service = std::make_unique<core::SeeSawService>(std::move(*service));
  env->server = std::make_unique<net::SeeSawServer>(env->service->sessions(),
                                                    net::ServerOptions{});
  Status started = env->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    return nullptr;
  }
  env->total_s = total.ElapsedSeconds();
  return env;
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The fixed session list: every evaluable concept once, in a seeded order.
std::vector<size_t> SessionConcepts(const data::Dataset& dataset,
                                    uint64_t seed) {
  std::vector<size_t> concepts = dataset.EvaluableConcepts(3);
  uint64_t state = seed;
  for (size_t i = concepts.size(); i > 1; --i) {
    std::swap(concepts[i - 1], concepts[SplitMix64(&state) % i]);
  }
  return concepts;
}

core::ImageFeedback GroundTruth(const data::Dataset& dataset,
                                uint32_t image_idx, size_t concept_id) {
  core::ImageFeedback fb;
  fb.image_idx = image_idx;
  fb.relevant = dataset.IsPositive(image_idx, concept_id);
  if (fb.relevant) fb.boxes = dataset.ConceptBoxes(image_idx, concept_id);
  return fb;
}

// -------------------------------------------------------------- sessions --

// What one session did and how long each call took. Call-level times are
// what the caller waits for: over the wire the client round trip, in-process
// the server handler's work (lease + searcher call). The searcher-level and
// probe fields are filled by the in-process replay only.
struct SessionRecord {
  size_t ordinal = 0;
  bool ok = false;
  std::vector<uint32_t> shown;
  std::vector<char> relevance;
  double ap = 0;

  std::vector<double> create_ms;  // one entry
  std::vector<double> close_ms;   // one entry
  std::vector<double> nextbatch_ms;
  std::vector<double> feedback_ms;
  std::vector<double> refit_ms;
  std::vector<double> round_ms;
  // Completion times (NowNs) of the wire calls above, for windowed metrics.
  std::vector<int64_t> request_end_ns;
  std::vector<int64_t> nextbatch_end_ns;
  std::vector<int64_t> feedback_end_ns;
  std::vector<int64_t> round_end_ns;

  std::vector<double> acquire_us;
  std::vector<double> searcher_nextbatch_ms;
  std::vector<double> searcher_feedback_us;
  std::vector<double> searcher_refit_ms;
  std::vector<double> probe_ms;
  std::vector<double> examples;
  std::vector<double> iterations;
  std::vector<double> evals;
};

bool SameDecisions(const SessionRecord& a, const SessionRecord& b) {
  return a.ok && b.ok && a.shown == b.shown && a.relevance == b.relevance &&
         a.ap == b.ap;
}

void FinishRecord(const data::Dataset& dataset, size_t concept_id,
                  SessionRecord* rec) {
  rec->ap = seesaw::eval::TaskAp(rec->relevance,
                                 dataset.positives(concept_id).size(), kBatch);
  rec->ok = true;
}

struct CallCounts {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t sheds = 0;

  void Add(const CallCounts& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    sheds += o.sheds;
  }
};

// One logical wire call: resend after RETRY_LATER sheds (back-off included
// in the caller's timing), give up after kMaxAttempts.
template <typename Op>
bool WireCall(net::SeeSawClient& client, CallCounts& counts, Op&& op) {
  ++counts.attempted;
  for (int attempt = 1;; ++attempt) {
    Status s = op();
    if (s.ok()) {
      ++counts.ok;
      return true;
    }
    if (s.code() == seesaw::StatusCode::kResourceExhausted &&
        net::IsRetriable(client.last_wire_error()) && attempt < kMaxAttempts) {
      ++counts.sheds;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min(attempt, 10)));
      continue;
    }
    ++counts.failed;
    std::fprintf(stderr, "wire call failed: %s\n", s.ToString().c_str());
    return false;
  }
}

// Runs one scripted session; `rounds_done` counts its completed rounds.
SessionRecord RunWireSession(net::SeeSawClient& client, const Env& env,
                             const Workload& w, size_t concept_id,
                             size_t ordinal, TraceBuffer& trace,
                             CallCounts& counts,
                             std::atomic<size_t>& rounds_done) {
  const data::Dataset& dataset = *env.dataset;
  SessionRecord rec;
  rec.ordinal = ordinal;
  // One wire call as span `name`: its latency goes to `ms`, its completion
  // time to rec.request_end_ns and `end_ns` (when given).
  auto timed = [&](const char* name, uint32_t parent, std::vector<double>& ms,
                   std::vector<int64_t>* end_ns, auto&& op) {
    const uint32_t span = trace.Begin(name, ordinal, parent);
    Stopwatch sw;
    const bool ok = WireCall(client, counts, op);
    ms.push_back(sw.ElapsedMillis());
    trace.End(span);
    if (ok) {
      rec.request_end_ns.push_back(NowNs());
      if (end_ns != nullptr) end_ns->push_back(rec.request_end_ns.back());
    }
    return ok;
  };
  const uint32_t root = trace.Begin("client.session", ordinal);
  linalg::VectorF query = env.embedded().TextQuery(concept_id);
  uint64_t sid = 0;
  bool ok = timed("client.create", root, rec.create_ms, nullptr, [&] {
    auto r = client.CreateSessionFromVector(query);
    if (!r.ok()) return r.status();
    sid = *r;
    return Status::OK();
  });
  for (size_t r = 0; ok && r < w.rounds; ++r) {
    const uint32_t round = trace.Begin("client.round", ordinal, root);
    Stopwatch round_sw;
    std::vector<core::ScoredImage> batch;
    ok = timed("client.nextbatch", round, rec.nextbatch_ms,
               &rec.nextbatch_end_ns, [&] {
                 auto reply = client.NextBatch(sid, kBatch);
                 if (!reply.ok()) return reply.status();
                 batch = std::move(*reply);
                 return Status::OK();
               });
    for (size_t i = 0; ok && i < batch.size(); ++i) {
      core::ImageFeedback fb =
          GroundTruth(dataset, batch[i].image_idx, concept_id);
      ok = timed("client.feedback", round, rec.feedback_ms,
                 &rec.feedback_end_ns,
                 [&] { return client.AddFeedback(sid, fb); });
      rec.shown.push_back(fb.image_idx);
      rec.relevance.push_back(fb.relevant ? 1 : 0);
    }
    if (ok && w.refit) {
      ok = timed("client.refit", round, rec.refit_ms, nullptr,
                 [&] { return client.Refit(sid); });
    }
    if (ok) {
      rec.round_ms.push_back(round_sw.ElapsedMillis());
      rec.round_end_ns.push_back(NowNs());
      rounds_done.fetch_add(1);
    }
    trace.End(round);
  }
  if (ok) {
    ok = timed("client.close", root, rec.close_ms, nullptr,
               [&] { return client.CloseSession(sid); });
  }
  trace.End(root);
  if (ok) FinishRecord(dataset, concept_id, &rec);
  return rec;
}

// The first scan NextBatch makes: SearcherBase::ComputeTopImages asks for
// enough patches to cover n + 4 images at twice the mean patches per image,
// with the session's query and patch seen set, on the manager's pool.
double ProbeScanMs(const core::EmbeddedDataset& embedded,
                   linalg::VecSpan query, const store::SeenSet& seen,
                   ThreadPool* pool) {
  const store::VectorStore& table = embedded.store();
  const double avg_patches =
      static_cast<double>(table.size()) /
      static_cast<double>(std::max<size_t>(1, embedded.num_images()));
  const size_t k = std::min(
      table.size(),
      static_cast<size_t>(std::max<double>(
          16.0, (static_cast<double>(kBatch) + 4) * avg_patches * 2)));
  linalg::VecSpan queries[] = {query};
  Stopwatch sw;
  table.TopKBatch(std::span<const linalg::VecSpan>(queries, 1), k, seen, pool,
                  store::ScanControl{});
  return sw.ElapsedMillis();
}

// Replays one session through the calls SeeSawServer::HandleRequest makes
// (CreateSession, Acquire + searcher call + lease release, Close). With
// `probe`, each NextBatch is preceded by a store-scan probe of the same
// lookup, outside the call's timing.
SessionRecord RunInProcessSession(const Env& env, const Workload& w,
                                  size_t concept_id, size_t ordinal,
                                  bool probe, TraceBuffer& trace) {
  const data::Dataset& dataset = *env.dataset;
  const core::EmbeddedDataset& embedded = env.embedded();
  core::SessionManager& manager = env.manager();
  SessionRecord rec;
  rec.ordinal = ordinal;
  const uint32_t root = trace.Begin("inproc.session", ordinal);
  linalg::VectorF query = embedded.TextQuery(concept_id);
  uint32_t span = trace.Begin("core.session.create", ordinal, root);
  Stopwatch sw;
  auto id = manager.CreateSession(std::move(query));
  rec.create_ms.push_back(sw.ElapsedMillis());
  trace.End(span);
  if (!id.ok()) {
    std::fprintf(stderr, "CreateSession: %s\n", id.status().ToString().c_str());
    trace.End(root);
    return rec;
  }
  store::SeenSet seen_patches(probe ? embedded.num_vectors() : 0);

  // Acquire + `op(searcher)` + release, as one handler call. Returns the
  // call's time in ms, or a negative value when the lease is refused.
  auto handler_call = [&](const char* name, uint32_t parent,
                          auto&& op) -> double {
    const uint32_t call = trace.Begin(name, ordinal, parent);
    Stopwatch call_sw;
    const uint32_t acquire_span =
        trace.Begin("core.session.acquire", ordinal, call);
    Stopwatch acquire_sw;
    auto lease = manager.Acquire(*id);
    rec.acquire_us.push_back(acquire_sw.ElapsedMillis() * 1e3);
    trace.End(acquire_span);
    if (!lease.ok()) {
      std::fprintf(stderr, "Acquire: %s\n", lease.status().ToString().c_str());
      trace.End(call);
      return -1;
    }
    op(**lease, call);
    lease->Reset();
    const double ms = call_sw.ElapsedMillis();
    trace.End(call);
    return ms;
  };

  bool ok = true;
  for (size_t r = 0; ok && r < w.rounds; ++r) {
    const uint32_t round = trace.Begin("inproc.round", ordinal, root);
    Stopwatch round_sw;
    if (probe) {
      auto session = manager.Find(*id);
      span = trace.Begin("store.scan", ordinal, round);
      rec.probe_ms.push_back(ProbeScanMs(
          embedded, linalg::VecSpan(session->current_query()), seen_patches,
          &manager.pool()));
      trace.End(span);
    }
    std::vector<core::ScoredImage> batch;
    double ms = handler_call(
        "inproc.nextbatch", round,
        [&](core::SeeSawSearcher& searcher, uint32_t call) {
          const uint32_t s =
              trace.Begin("core.searcher.nextbatch", ordinal, call);
          Stopwatch op_sw;
          batch = searcher.NextBatch(kBatch);
          rec.searcher_nextbatch_ms.push_back(op_sw.ElapsedMillis());
          trace.End(s);
        });
    ok = ms >= 0;
    rec.nextbatch_ms.push_back(ms);
    for (size_t i = 0; ok && i < batch.size(); ++i) {
      core::ImageFeedback fb =
          GroundTruth(dataset, batch[i].image_idx, concept_id);
      ms = handler_call(
          "inproc.feedback", round,
          [&](core::SeeSawSearcher& searcher, uint32_t call) {
            const uint32_t s =
                trace.Begin("core.searcher.feedback", ordinal, call);
            Stopwatch op_sw;
            searcher.AddFeedback(fb);
            rec.searcher_feedback_us.push_back(op_sw.ElapsedMillis() * 1e3);
            trace.End(s);
          });
      ok = ms >= 0;
      rec.feedback_ms.push_back(ms);
      rec.shown.push_back(fb.image_idx);
      rec.relevance.push_back(fb.relevant ? 1 : 0);
      if (probe) {
        auto [begin, end] = embedded.ImagePatchRange(fb.image_idx);
        for (uint32_t v = begin; v < end; ++v) seen_patches.Set(v);
      }
    }
    if (ok && w.refit) {
      Status refit_status;
      ms = handler_call(
          "inproc.refit", round,
          [&](core::SeeSawSearcher& searcher, uint32_t call) {
            rec.examples.push_back(
                static_cast<double>(searcher.aligner().num_examples()));
            const uint32_t s =
                trace.Begin("core.searcher.refit", ordinal, call);
            Stopwatch op_sw;
            refit_status = searcher.Refit();
            rec.searcher_refit_ms.push_back(op_sw.ElapsedMillis());
            trace.End(s);
            const auto& result = searcher.aligner().last_result();
            rec.iterations.push_back(result.iterations);
            rec.evals.push_back(result.function_evals);
          });
      ok = ms >= 0 && refit_status.ok();
      rec.refit_ms.push_back(ms);
    }
    if (ok) rec.round_ms.push_back(round_sw.ElapsedMillis());
    trace.End(round);
  }
  span = trace.Begin("core.session.close", ordinal, root);
  sw.Restart();
  Status closed = manager.Close(*id);
  rec.close_ms.push_back(sw.ElapsedMillis());
  trace.End(span);
  trace.End(root);
  if (ok && closed.ok()) FinishRecord(dataset, concept_id, &rec);
  return rec;
}

// ---------------------------------------------------------------- phases --

struct Phase {
  std::vector<SessionRecord> records;  // sorted by ordinal
  CallCounts counts;
  int64_t start_ns = 0;  // NowNs at the start of the phase
  net::ServerStats server;  // delta over the phase (wire phases)
  std::vector<std::unique_ptr<TraceBuffer>> traces;

  std::vector<const TraceBuffer*> trace_ptrs() const {
    std::vector<const TraceBuffer*> out;
    for (const auto& t : traces) out.push_back(t.get());
    return out;
  }
};

net::ServerStats Delta(const net::ServerStats& after,
                       const net::ServerStats& before) {
  net::ServerStats d;
  d.requests_ok = after.requests_ok - before.requests_ok;
  d.requests_error = after.requests_error - before.requests_error;
  d.requests_shed = after.requests_shed - before.requests_shed;
  d.malformed_frames = after.malformed_frames - before.malformed_frames;
  return d;
}

void SortByOrdinal(std::vector<SessionRecord>* records) {
  std::sort(records->begin(), records->end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.ordinal < b.ordinal;
            });
}

// Closed loop: `clients` connections, each running whole sessions back to
// back. A client starts session k only while k < L (the first pass of the
// list), or the run is short of `seconds`, or of `min_rounds` rounds. Past
// `cap_seconds` no session starts.
//
// Client c starts once client c-1 has finished R / clients rounds, so the
// concurrent sessions sit at evenly spread rounds, as independent users
// would, instead of running their cheap and their costly refits in lock
// step.
Phase RunWirePhase(const Env& env, const Workload& w,
                   const std::vector<size_t>& concepts, size_t clients,
                   double seconds, double cap_seconds, size_t min_rounds,
                   bool trace) {
  Phase phase;
  const size_t list = concepts.size();
  std::vector<std::vector<SessionRecord>> records(clients);
  std::vector<CallCounts> counts(clients);
  for (size_t c = 0; c < clients; ++c) {
    phase.traces.push_back(std::make_unique<TraceBuffer>(trace));
  }
  std::atomic<size_t> next{0};
  std::vector<std::atomic<size_t>> rounds_done(clients);
  std::vector<std::atomic<bool>> stopped(clients);
  auto total_rounds = [&] {
    size_t total = 0;
    for (const auto& r : rounds_done) total += r.load();
    return total;
  };
  const size_t stagger_rounds = w.rounds / clients;
  const net::ServerStats before = env.server->stats();
  const uint16_t port = env.server->port();
  phase.start_ns = NowNs();
  Stopwatch wall;
  {
    ThreadPool pool(clients);
    std::vector<TaskHandle> handles;
    for (size_t c = 0; c < clients; ++c) {
      handles.push_back(pool.SubmitWithResult([&, c] {
        auto client = net::SeeSawClient::Connect("127.0.0.1", port);
        if (!client.ok()) {
          std::fprintf(stderr, "connect: %s\n",
                       client.status().ToString().c_str());
          ++counts[c].attempted;
          ++counts[c].failed;
          stopped[c] = true;
          return;
        }
        while (c > 0 && !stopped[c - 1] &&
               rounds_done[c - 1].load() < stagger_rounds &&
               wall.ElapsedSeconds() < cap_seconds) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        for (;;) {
          const double elapsed = wall.ElapsedSeconds();
          if (elapsed >= cap_seconds) break;
          const size_t k = next.fetch_add(1);
          if (k >= list && elapsed >= seconds &&
              total_rounds() >= min_rounds) {
            break;
          }
          SessionRecord rec =
              RunWireSession(*client, env, w, concepts[k % list], k,
                             *phase.traces[c], counts[c], rounds_done[c]);
          const bool ok = rec.ok;
          records[c].push_back(std::move(rec));
          if (!ok) break;
        }
        stopped[c] = true;
      }));
    }
    for (TaskHandle& h : handles) h.Wait();
  }
  phase.server = Delta(env.server->stats(), before);
  for (size_t c = 0; c < clients; ++c) {
    phase.counts.Add(counts[c]);
    for (SessionRecord& r : records[c]) phase.records.push_back(std::move(r));
  }
  SortByOrdinal(&phase.records);
  return phase;
}

// One short unrecorded session per client before timing, so that state
// built lazily on first use (scan scratch arenas, first-touch pages) is not
// charged to the first timed rounds.
void WarmUp(const Env& env, const Workload& w,
            const std::vector<size_t>& concepts, size_t clients) {
  Workload warm = w;
  warm.rounds = std::min<size_t>(w.rounds, 2);
  ThreadPool pool(clients);
  std::vector<TaskHandle> handles;
  for (size_t c = 0; c < clients; ++c) {
    handles.push_back(pool.SubmitWithResult([&, c] {
      auto client = net::SeeSawClient::Connect("127.0.0.1", env.server->port());
      if (!client.ok()) return;  // the timed phase reports connect failures
      TraceBuffer off(false);
      CallCounts counts;
      std::atomic<size_t> rounds{0};
      RunWireSession(*client, env, warm, concepts[c % concepts.size()], c, off,
                     counts, rounds);
    }));
  }
  for (TaskHandle& h : handles) h.Wait();
}

// Replays the sessions `ordinals` in-process on `threads` replay threads.
Phase RunInProcessPhase(const Env& env, const Workload& w,
                        const std::vector<size_t>& concepts,
                        const std::vector<size_t>& ordinals, size_t threads,
                        bool probe, bool trace) {
  Phase phase;
  std::vector<std::vector<SessionRecord>> records(threads);
  for (size_t t = 0; t < threads; ++t) {
    phase.traces.push_back(std::make_unique<TraceBuffer>(trace));
  }
  std::atomic<size_t> next{0};
  {
    ThreadPool pool(threads);
    std::vector<TaskHandle> handles;
    for (size_t t = 0; t < threads; ++t) {
      handles.push_back(pool.SubmitWithResult([&, t] {
        for (size_t i = next.fetch_add(1); i < ordinals.size();
             i = next.fetch_add(1)) {
          const size_t k = ordinals[i];
          records[t].push_back(RunInProcessSession(
              env, w, concepts[k % concepts.size()], k, probe,
              *phase.traces[t]));
        }
      }));
    }
    for (TaskHandle& h : handles) h.Wait();
  }
  for (size_t t = 0; t < threads; ++t) {
    for (SessionRecord& r : records[t]) phase.records.push_back(std::move(r));
  }
  SortByOrdinal(&phase.records);
  return phase;
}

// ---------------------------------------------------------- kernel probe --

struct KernelProbe {
  double fp32_gbps = 0;
  double int8_gbps = 0;
  double read_gbps = 0;
  size_t samples = 0;
};

// Median GB/s of `pass` over 5 samples, each repeating the pass for at
// least 20 ms so that cache-resident tables are timed too.
template <typename Pass>
double MedianGbps(double bytes_per_pass, Pass&& pass, size_t samples) {
  std::vector<double> gbps;
  for (size_t s = 0; s < samples; ++s) {
    Stopwatch sw;
    size_t passes = 0;
    do {
      pass();
      ++passes;
    } while (sw.ElapsedSeconds() < 0.02);
    gbps.push_back(bytes_per_pass * static_cast<double>(passes) /
                   sw.ElapsedSeconds() * 1e-9);
  }
  double median = 0;
  Percentile(std::move(gbps), 50, &median);
  return median;
}

// Single-threaded: the dispatched score_block kernels over the workload's
// own table (int8 over a quantized copy of it), against a plain streaming
// read of the same fp32 table.
KernelProbe ProbeKernels(const core::EmbeddedDataset& embedded) {
  constexpr size_t kBlockRows = 256;
  constexpr size_t kSamples = 5;
  const linalg::MatrixF& table = embedded.vectors();
  const size_t rows = table.rows();
  const size_t dim = table.cols();
  const float* base = table.data().data();
  const linalg::VectorF query = embedded.TextQuery(0);
  const linalg::VecSpan queries[] = {linalg::VecSpan(query)};
  std::vector<float> out(kBlockRows);
  float acc = 0;

  KernelProbe probe;
  probe.samples = kSamples;
  const linalg::KernelTable& fp32 = linalg::ActiveKernels();
  probe.fp32_gbps = MedianGbps(
      static_cast<double>(rows * dim * sizeof(float)),
      [&] {
        for (size_t r = 0; r < rows; r += kBlockRows) {
          const size_t n = std::min(kBlockRows, rows - r);
          fp32.score_block(base + r * dim, n, dim, queries, 1, out.data());
          acc += out[0];
        }
      },
      kSamples);

  const linalg::QuantizedTable quantized = linalg::QuantizeRows(table);
  const linalg::QuantizedVector qquery =
      linalg::QuantizeQuery(linalg::VecSpan(query));
  const linalg::Int8KernelTable& int8 = linalg::ActiveInt8Kernels();
  probe.int8_gbps = MedianGbps(
      static_cast<double>(rows * (dim + sizeof(float))),
      [&] {
        for (size_t r = 0; r < rows; r += kBlockRows) {
          const size_t n = std::min(kBlockRows, rows - r);
          int8.score_block(quantized.Row(r), quantized.scales.data() + r, n,
                           dim, qquery.data.data(), &qquery.scale, 1,
                           out.data());
          acc += out[0];
        }
      },
      kSamples);

  // Sixteen independent float lanes: the compiler vectorizes the loop, so
  // it is bound by memory, not by the add latency of one accumulator.
  const size_t values = rows * dim;
  probe.read_gbps = MedianGbps(
      static_cast<double>(values * sizeof(float)),
      [&] {
        float lanes[16] = {};
        size_t i = 0;
        for (; i + 16 <= values; i += 16) {
          for (size_t j = 0; j < 16; ++j) lanes[j] += base[i + j];
        }
        for (; i < values; ++i) lanes[0] += base[i];
        for (float lane : lanes) acc += lane;
      },
      kSamples);
  // Keeps the compiler from dropping the timed loops as dead code.
  volatile float keep = acc;
  (void)keep;
  return probe;
}

// ---------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t n = 0;
  std::string note;  // base of a ratio, or why n is 0
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, size_t n,
           std::string note = "") {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), n,
                              std::move(note)});
  }

  // Adds percentile `pct` of `samples`. A workload that never calls the
  // layer (no samples) reports 0 with n=0; a percentile the sample count
  // does not support is a statistics failure.
  void AddPercentile(const std::string& name, const std::vector<double>& s,
                     int pct, const std::string& unit, bool optional = false) {
    double v = 0;
    if (Percentile(s, pct, &v)) {
      Add(name, v, unit, s.size());
    } else if (s.empty() && optional) {
      Add(name, 0, unit, 0, "layer not exercised by this workload");
    } else {
      Fail(name + ": p" + std::to_string(pct) + " of " +
           std::to_string(s.size()) + " samples (needs " +
           std::to_string(MinSamplesFor(pct)) + ")");
    }
  }

  // Adds windowed percentile `pct` (stats.h) of `samples`; refused like
  // AddPercentile.
  void AddWindowed(const std::string& name,
                   const std::vector<TimedSample>& samples, int pct,
                   const std::string& unit) {
    double v = 0;
    if (WindowedPercentile(samples, pct, &v)) {
      Add(name, v, unit, samples.size(),
          "median of " + std::to_string(WindowCount(samples.size())) +
              " windows");
    } else {
      Fail(name + ": p" + std::to_string(pct) + " of " +
           std::to_string(samples.size()) + " samples in " +
           std::to_string(WindowCount(samples.size())) + " windows");
    }
  }

  void Fail(std::string why) { stat_failures_.push_back(std::move(why)); }

  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& stat_failures() const {
    return stat_failures_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> stat_failures_;
};

std::vector<double> Flatten(const std::vector<SessionRecord>& records,
                            std::vector<double> SessionRecord::*field) {
  std::vector<double> out;
  for (const SessionRecord& r : records) {
    out.insert(out.end(), (r.*field).begin(), (r.*field).end());
  }
  return out;
}

std::vector<std::vector<double>> PerSession(
    const std::vector<SessionRecord>& records,
    std::vector<double> SessionRecord::*field) {
  std::vector<std::vector<double>> out;
  for (const SessionRecord& r : records) out.push_back(r.*field);
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Decision-for-decision check of every record against the in-process
// reference of its list entry.
void CountMismatches(const std::vector<SessionRecord>& records,
                     const std::vector<const SessionRecord*>& reference,
                     const char* what, std::vector<std::string>* failures) {
  size_t mismatches = 0;
  for (const SessionRecord& r : records) {
    const SessionRecord* ref = reference[r.ordinal % reference.size()];
    if (ref == nullptr || !SameDecisions(r, *ref)) ++mismatches;
  }
  if (mismatches > 0) {
    failures->push_back(std::string(what) + ": " + std::to_string(mismatches) +
                        " of " + std::to_string(records.size()) +
                        " sessions differ from the in-process reference");
  }
}

void CheckWirePhase(const Phase& phase, size_t list, const char* what,
                    std::vector<std::string>* failures) {
  std::vector<bool> seen(list, false);
  for (const SessionRecord& r : phase.records) {
    if (r.ordinal < list) seen[r.ordinal] = true;
  }
  if (std::count(seen.begin(), seen.end(), true) !=
      static_cast<std::ptrdiff_t>(list)) {
    failures->push_back(std::string(what) +
                        ": the first pass of the session list did not finish");
  }
  if (phase.counts.failed > 0) {
    failures->push_back(std::string(what) + ": " +
                        std::to_string(phase.counts.failed) +
                        " requests failed");
  }
  if (phase.counts.ok != phase.server.requests_ok) {
    failures->push_back(std::string(what) + ": client ok-count " +
                        std::to_string(phase.counts.ok) +
                        " != server requests_ok " +
                        std::to_string(phase.server.requests_ok));
  }
  if (phase.server.requests_error > 0 || phase.server.malformed_frames > 0) {
    failures->push_back(std::string(what) + ": server saw " +
                        std::to_string(phase.server.requests_error) +
                        " protocol errors and " +
                        std::to_string(phase.server.malformed_frames) +
                        " malformed frames");
  }
}

// Samples of `values` paired with their completion times `ends`.
std::vector<TimedSample> Timed(const std::vector<SessionRecord>& records,
                               std::vector<double> SessionRecord::*values,
                               std::vector<int64_t> SessionRecord::*ends) {
  std::vector<TimedSample> out;
  for (const SessionRecord& r : records) {
    // A failed call has a latency but no completion time; skip it.
    for (size_t i = 0; i < (r.*ends).size(); ++i) {
      out.push_back(TimedSample{(r.*ends)[i], (r.*values)[i]});
    }
  }
  return out;
}

std::vector<int64_t> Ends(const std::vector<SessionRecord>& records,
                          std::vector<int64_t> SessionRecord::*ends) {
  std::vector<int64_t> out;
  for (const SessionRecord& r : records) {
    out.insert(out.end(), (r.*ends).begin(), (r.*ends).end());
  }
  return out;
}

// End-to-end metrics of one wire phase. Rates and the round, NextBatch and
// feedback percentiles are windowed (stats.h); create and refit, with few
// samples per run, are plain.
void AddWireMetrics(const Phase& phase, const Workload& w, size_t list,
                    Report* report) {
  const auto& recs = phase.records;
  auto rate = [&](const std::string& name,
                  std::vector<int64_t> SessionRecord::*ends) {
    const std::vector<int64_t> e = Ends(recs, ends);
    double v = 0;
    if (!WindowedRate(e, phase.start_ns, &v)) {
      report->Fail(name + ": no completions");
      return;
    }
    report->Add(name, v, "1/s", e.size(),
                "median of " + std::to_string(WindowCount(e.size())) +
                    " windows");
  };
  rate("rounds_per_s", &SessionRecord::round_end_ns);
  rate("requests_per_s", &SessionRecord::request_end_ns);
  const auto rounds =
      Timed(recs, &SessionRecord::round_ms, &SessionRecord::round_end_ns);
  const auto nextbatch = Timed(recs, &SessionRecord::nextbatch_ms,
                               &SessionRecord::nextbatch_end_ns);
  report->AddWindowed("round_p50_ms", rounds, 50, "ms");
  report->AddWindowed("round_p95_ms", rounds, 95, "ms");
  report->AddWindowed("nextbatch_p50_ms", nextbatch, 50, "ms");
  report->AddWindowed("nextbatch_p95_ms", nextbatch, 95, "ms");
  if (w.refit) {
    const auto refit = Flatten(recs, &SessionRecord::refit_ms);
    report->AddPercentile("refit_p50_ms", refit, 50, "ms");
    report->AddPercentile("refit_p95_ms", refit, 95, "ms");
  }
  report->AddWindowed(
      "feedback_p50_ms",
      Timed(recs, &SessionRecord::feedback_ms, &SessionRecord::feedback_end_ns),
      50, "ms");
  report->AddPercentile("create_p50_ms",
                        Flatten(recs, &SessionRecord::create_ms), 50, "ms");
  report->Add("fail_ratio",
              phase.counts.attempted > 0
                  ? static_cast<double>(phase.counts.failed) /
                        static_cast<double>(phase.counts.attempted)
                  : 0.0,
              "ratio", phase.counts.attempted, "failed / attempted requests");
  std::vector<double> aps;
  for (const SessionRecord& r : recs) {
    if (r.ordinal < list) aps.push_back(r.ap);
  }
  report->Add("ap_mean", seesaw::eval::Mean(aps), "AP", aps.size(),
              "mean task AP over the fixed session list");
}

struct SetupTimes {
  std::vector<double> total;
  std::vector<double> generate;
  std::vector<double> embed;
  std::vector<double> index;
  std::vector<double> md;
};

double Median(const std::vector<double>& v) {
  double m = 0;
  Percentile(v, 50, &m);
  return m;
}

// The per-layer metrics of a traced run: pass (a) `traced` over the wire
// against pass (b) `inproc`, which replayed the same sessions in-process.
void AddLayerMetrics(const Env& env, const Workload& w, size_t list,
                     const Phase& traced, const Phase& inproc,
                     size_t busy_rejected, const SetupTimes& setup,
                     Report* report, std::vector<std::string>* failures) {
  const auto& a = traced.records;
  const auto& b = inproc.records;
  auto paired = [&](const std::string& name,
                    const std::vector<SessionRecord>& minuend,
                    std::vector<double> SessionRecord::*minuend_field,
                    std::vector<double> SessionRecord::*subtrahend_field) {
    std::vector<double> diffs;
    if (!PairedDifferences(PerSession(minuend, minuend_field),
                           PerSession(b, subtrahend_field), &diffs)) {
      failures->push_back(name + ": the two passes made different calls");
      return;
    }
    report->AddPercentile(name, diffs, 50, "ms");
  };
  paired("net.create_overhead_p50_ms", a, &SessionRecord::create_ms,
         &SessionRecord::create_ms);
  paired("net.nextbatch_overhead_p50_ms", a, &SessionRecord::nextbatch_ms,
         &SessionRecord::nextbatch_ms);
  paired("net.feedback_overhead_p50_ms", a, &SessionRecord::feedback_ms,
         &SessionRecord::feedback_ms);
  report->Add("net.requests_shed",
              static_cast<double>(traced.server.requests_shed), "count", 1,
              "client saw " + std::to_string(traced.counts.sheds));
  report->Add("net.requests_error",
              static_cast<double>(traced.server.requests_error), "count", 1);
  report->Add("net.malformed_frames",
              static_cast<double>(traced.server.malformed_frames), "count", 1);

  report->AddPercentile("core.session.create_p50_ms",
                        Flatten(b, &SessionRecord::create_ms), 50, "ms");
  report->AddPercentile("core.session.acquire_p50_us",
                        Flatten(b, &SessionRecord::acquire_us), 50, "us");
  report->AddPercentile("core.session.close_p50_ms",
                        Flatten(b, &SessionRecord::close_ms), 50, "ms");
  report->Add("core.session.busy_rejected", static_cast<double>(busy_rejected),
              "count", 1);

  const auto nextbatch = Flatten(b, &SessionRecord::searcher_nextbatch_ms);
  report->AddPercentile("core.searcher.nextbatch_p50_ms", nextbatch, 50, "ms");
  report->AddPercentile("core.searcher.nextbatch_p95_ms", nextbatch, 95, "ms");
  paired("core.searcher.nextbatch_self_ms", b,
         &SessionRecord::searcher_nextbatch_ms, &SessionRecord::probe_ms);
  report->AddPercentile("core.searcher.feedback_p50_us",
                        Flatten(b, &SessionRecord::searcher_feedback_us), 50,
                        "us");
  const auto refit = Flatten(b, &SessionRecord::searcher_refit_ms);
  report->AddPercentile("core.searcher.refit_p50_ms", refit, 50, "ms",
                        /*optional=*/true);
  report->AddPercentile("core.searcher.refit_p95_ms", refit, 95, "ms",
                        /*optional=*/true);

  // Exact counts come from the fixed first pass of the list.
  std::vector<SessionRecord> first_pass;
  for (const SessionRecord& r : b) {
    if (r.ordinal < list) first_pass.push_back(r);
  }
  const char* none = w.refit ? "" : "no refits in this workload";
  for (auto [name, field] :
       {std::pair{"core.aligner.examples_at_refit", &SessionRecord::examples},
        std::pair{"optim.iterations_per_refit", &SessionRecord::iterations},
        std::pair{"optim.evals_per_refit", &SessionRecord::evals}}) {
    const auto counts = Flatten(first_pass, field);
    report->Add(name, seesaw::eval::Mean(counts), "count", counts.size(),
                none);
  }
  std::vector<double> us_per_eval;
  for (const SessionRecord& r : b) {
    for (size_t i = 0; i < r.searcher_refit_ms.size(); ++i) {
      if (r.evals[i] > 0) {
        us_per_eval.push_back(r.searcher_refit_ms[i] * 1e3 / r.evals[i]);
      }
    }
  }
  report->AddPercentile("optim.us_per_eval", us_per_eval, 50, "us",
                        /*optional=*/true);

  report->AddPercentile("store.scan_p50_ms",
                        Flatten(b, &SessionRecord::probe_ms), 50, "ms");
  const size_t rows = env.embedded().num_vectors();
  if (const Metric* scan = report->Find("store.scan_p50_ms")) {
    report->Add("store.rows_per_s",
                static_cast<double>(rows) / (scan->value * 1e-3), "1/s",
                scan->n, "table rows / store.scan_p50_ms");
  }

  std::fprintf(stderr, "kernel probe\n");
  const KernelProbe kernels = ProbeKernels(env.embedded());
  report->Add("linalg.fp32_gbps", kernels.fp32_gbps, "GB/s", kernels.samples);
  report->Add("linalg.int8_gbps", kernels.int8_gbps, "GB/s", kernels.samples);
  report->Add("linalg.host_read_gbps", kernels.read_gbps, "GB/s",
              kernels.samples, "single-thread streaming read of the table");
  report->Add("linalg.fp32_bw_frac", kernels.fp32_gbps / kernels.read_gbps,
              "ratio", kernels.samples, "base: linalg.host_read_gbps");
  report->Add("linalg.int8_bw_frac", kernels.int8_gbps / kernels.read_gbps,
              "ratio", kernels.samples, "base: linalg.host_read_gbps");

  report->Add("data.generate_s", Median(setup.generate), "s",
              setup.generate.size());
  report->Add("clip.embed_s", Median(setup.embed), "s", setup.embed.size());
  report->Add("store.build_s", Median(setup.index), "s", setup.index.size());
  report->Add("graph.md_s", Median(setup.md), "s", setup.md.size());
  const size_t dim = env.embedded().dim();
  double table_bytes = static_cast<double>(rows * dim * sizeof(float));
  if (w.precision == store::ScanPrecision::kInt8) {
    table_bytes += static_cast<double>(rows * (dim + sizeof(float)));
  }
  report->Add("setup.table_mb", table_bytes / (1024.0 * 1024.0), "MB", 1,
              "store scan tables: fp32 master (+ int8 copy)");

  // Tracing overhead: pass (a) against the untraced phase.
  Report traced_report;
  AddWireMetrics(traced, w, list, &traced_report);
  const Metric* untraced_p50 = report->Find("round_p50_ms");
  const Metric* traced_p50 = traced_report.Find("round_p50_ms");
  if (untraced_p50 != nullptr && traced_p50 != nullptr) {
    report->Add("trace.round_p50_ratio",
                traced_p50->value / untraced_p50->value, "ratio",
                traced_p50->n,
                "traced / untraced round_p50_ms (base: untraced)");
  }
}

// The workload's reason for being, checked against the traced run.
std::string CheckPremise(const Workload& w, const Report& report) {
  auto value = [&](const char* name) {
    const Metric* m = report.Find(name);
    return m == nullptr ? 0.0 : m->value;
  };
  const double scan = value("store.scan_p50_ms");
  const double refit = value("core.searcher.refit_p50_ms");
  std::string premise;
  bool holds = false;
  switch (w.premise) {
    case Premise::kScanOverFit:
      premise = "store.scan_p50_ms > core.searcher.refit_p50_ms";
      holds = scan > refit;
      break;
    case Premise::kFitOverScan:
      premise = "core.searcher.refit_p50_ms > store.scan_p50_ms";
      holds = refit > scan;
      break;
    case Premise::kNetOverFeedback:
      premise = "net.feedback_overhead_p50_ms > 0.5 * feedback_p50_ms";
      holds = value("net.feedback_overhead_p50_ms") >
              0.5 * value("feedback_p50_ms");
      break;
  }
  return premise + (holds ? ": holds" : ": DOES NOT HOLD");
}

// `names` null: every metric, with sample counts and notes.
std::string MetricsJson(const Report& report,
                        const std::vector<const char*>* names) {
  std::string out = "{";
  auto emit = [&](const Metric& m) {
    if (out.size() > 1) out += ",";
    out += JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit);
    if (names == nullptr) {
      out += ",\"n\":" + std::to_string(m.n);
      if (!m.note.empty()) out += ",\"note\":" + JsonString(m.note);
    }
    out += "}";
  };
  if (names == nullptr) {
    for (const Metric& m : report.metrics()) emit(m);
  } else {
    for (const char* name : *names) {
      if (const Metric* m = report.Find(name)) emit(*m);
    }
  }
  return out + "}";
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ",";
    out += item;
  }
  return out + "]";
}

int Run(const Flags& flags) {
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (flags.workload == w.name) wp = &w;
  }
  if (wp == nullptr) Usage(("unknown workload " + flags.workload).c_str());
  const Workload& w = *wp;
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t clients = w.single_client ? 1 : nproc;

  // Set-up, repeated at least kMinSetups times and until kSetupBudgetS is
  // spent (small tables set up in ~0.1 s); the last one serves.
  constexpr size_t kMinSetups = 3;
  constexpr size_t kMaxSetups = 15;
  constexpr double kSetupBudgetS = 2.0;
  SetupTimes setup;
  std::unique_ptr<Env> env;
  double setup_total_s = 0;
  for (size_t i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups && setup_total_s >= kSetupBudgetS) break;
    env.reset();
    env = BuildEnv(w, flags.seed);
    if (env == nullptr) return 1;
    const core::PreprocessStats& st = env->embedded().stats();
    setup.total.push_back(env->total_s);
    setup.generate.push_back(env->generate_s);
    setup.embed.push_back(st.embed_seconds);
    setup.index.push_back(st.index_seconds);
    setup.md.push_back(st.md_seconds);
    setup_total_s += env->total_s;
    std::fprintf(stderr, "setup %zu: %.3f s (%zu vectors)\n", i + 1,
                 env->total_s, env->embedded().num_vectors());
  }
  const std::vector<size_t> concepts =
      SessionConcepts(*env->dataset, flags.seed);
  if (concepts.empty()) {
    std::fprintf(stderr, "no evaluable concepts\n");
    return 1;
  }
  const size_t list = concepts.size();
  const size_t min_rounds = MinSamplesFor(95);
  const double cap_s = flags.seconds * 3 + 10;
  const size_t busy_before = env->manager().lifecycle_stats().busy_rejected;
  std::vector<std::string> failures;
  Report report;
  report.Add("setup_s", Median(setup.total), "s", setup.total.size(),
             "median over set-ups, dataset generation through server ready");

  WarmUp(*env, w, concepts, clients);
  // Read before the timed phases: the benchmark's own per-session records grow
  // with the sessions a run completes and would make this a throughput
  // figure on small tables.
  report.Add("peak_rss_mb", PeakRssMb(), "MB", 1,
             "VmHWM after set-up and warm-up");
  std::fprintf(stderr, "wire phase: %zu client(s), >= %.1f s\n", clients,
               flags.seconds);
  Phase untraced = RunWirePhase(*env, w, concepts, clients, flags.seconds,
                                cap_s, min_rounds, /*trace=*/false);
  CheckWirePhase(untraced, list, "wire", &failures);
  AddWireMetrics(untraced, w, list, &report);

  Phase traced;
  Phase inproc;
  if (flags.trace) {
    std::fprintf(stderr, "traced wire phase (a)\n");
    traced = RunWirePhase(*env, w, concepts, clients, flags.seconds, cap_s,
                          min_rounds, /*trace=*/true);
    CheckWirePhase(traced, list, "traced wire", &failures);
    std::vector<size_t> ordinals;
    for (const SessionRecord& r : traced.records) ordinals.push_back(r.ordinal);
    std::fprintf(stderr, "in-process replay (b): %zu sessions\n",
                 ordinals.size());
    inproc = RunInProcessPhase(*env, w, concepts, ordinals, clients,
                               /*probe=*/true, /*trace=*/true);
  } else {
    std::vector<size_t> ordinals(list);
    for (size_t i = 0; i < list; ++i) ordinals[i] = i;
    std::fprintf(stderr, "in-process reference: %zu sessions\n", list);
    inproc = RunInProcessPhase(*env, w, concepts, ordinals, clients,
                               /*probe=*/false, /*trace=*/false);
  }

  // Correctness: wire == in-process, decision for decision.
  std::vector<const SessionRecord*> reference(list, nullptr);
  for (const SessionRecord& r : inproc.records) {
    if (r.ordinal < list && r.ok) reference[r.ordinal] = &r;
  }
  CountMismatches(untraced.records, reference, "wire", &failures);
  CountMismatches(traced.records, reference, "traced wire", &failures);
  CountMismatches(inproc.records, reference, "in-process", &failures);
  const size_t compared = untraced.records.size() + traced.records.size();

  if (flags.trace) {
    AddLayerMetrics(*env, w, list, traced, inproc,
                    env->manager().lifecycle_stats().busy_rejected -
                        busy_before,
                    setup, &report, &failures);
  }

  // ---- stdout ----
  const core::EmbeddedDataset& embedded = env->embedded();
  const char* precision =
      w.precision == store::ScanPrecision::kInt8 ? "int8" : "fp32";
  std::printf("host cpu=\"%s\" nproc=%zu kernel=%s build=%s git=%s seed=%llu\n",
              CpuModel().c_str(), nproc, linalg::ActiveKernels().name,
              ROUNDBENCH_BUILD_TYPE, flags.git_sha.c_str(),
              static_cast<unsigned long long>(flags.seed));
  std::printf(
      "workload %s vectors=%zu dim=%zu precision=%s clients=%zu rounds=%zu "
      "refit=%d session_list=%zu sessions_run=%zu trace=%d\n",
      w.name, embedded.num_vectors(), embedded.dim(), precision, clients,
      w.rounds, w.refit ? 1 : 0, list, untraced.records.size(),
      flags.trace ? 1 : 0);
  for (const Metric& m : report.metrics()) {
    std::printf("metric %-34s %14.6g %-6s n=%zu%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.n, m.note.empty() ? "" : "  # ",
                m.note.c_str());
  }
  std::vector<std::string> spans_json;
  if (flags.trace) {
    std::vector<const TraceBuffer*> buffers = traced.trace_ptrs();
    for (const TraceBuffer* t : inproc.trace_ptrs()) buffers.push_back(t);
    for (const SpanSummary& s : SummarizeSpans(buffers)) {
      std::printf("span %-28s n=%-8zu p50=%.4f ms self_p50=%.4f ms\n",
                  s.name.c_str(), s.n, s.p50_ms, s.self_p50_ms);
      spans_json.push_back("{\"name\":" + JsonString(s.name) +
                           ",\"n\":" + std::to_string(s.n) +
                           ",\"p50_ms\":" + JsonNumber(s.p50_ms) +
                           ",\"self_p50_ms\":" + JsonNumber(s.self_p50_ms) +
                           "}");
    }
    std::printf("premise %s\n", CheckPremise(w, report).c_str());
    if (!flags.out_dir.empty()) {
      // One file per workload, overwritten by each traced run: a browse-small
      // trace holds about a million spans.
      const std::string path = flags.out_dir + "/" + w.name + "-spans.tsv";
      if (!WriteSpans(path, buffers)) {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
      }
    }
  }
  for (const std::string& f : report.stat_failures()) {
    std::fprintf(stderr, "statistics: %s\n", f.c_str());
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  std::printf("checks sessions_compared=%zu failures=%zu\n", compared,
              failures.size());

  // A percentile the sample count does not support fails the run.
  if (!report.stat_failures().empty()) return 3;

  // ---- results file and the final JSON line ----
  const bool correct = failures.empty();
  const uint64_t attempted =
      untraced.counts.attempted + traced.counts.attempted;
  const uint64_t failed = untraced.counts.failed + traced.counts.failed;
  if (!flags.out_dir.empty()) {
    const std::string path = flags.out_dir + "/" + w.name + "-seed" +
                             std::to_string(flags.seed) + "-trace" +
                             (flags.trace ? "1" : "0") + ".json";
    std::vector<std::string> failures_json;
    for (const std::string& failure : failures) {
      failures_json.push_back(JsonString(failure));
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\"host\":{\"cpu\":%s,\"nproc\":%zu,\"kernel\":%s,"
        "\"build_type\":%s,\"git_sha\":%s,\"seed\":%llu},"
        "\"workload\":{\"name\":%s,\"vectors\":%zu,\"dim\":%zu,"
        "\"precision\":\"%s\",\"clients\":%zu,\"rounds\":%zu,\"refit\":%s,"
        "\"session_list\":%zu,\"seconds\":%s,\"trace\":%s},"
        "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
        "\"failures\":%s,\"metrics\":%s,\"spans\":%s}\n",
        JsonString(CpuModel()).c_str(), nproc,
        JsonString(linalg::ActiveKernels().name).c_str(),
        JsonString(ROUNDBENCH_BUILD_TYPE).c_str(),
        JsonString(flags.git_sha).c_str(),
        static_cast<unsigned long long>(flags.seed), JsonString(w.name).c_str(),
        embedded.num_vectors(), embedded.dim(), precision, clients, w.rounds,
        w.refit ? "true" : "false", list, JsonNumber(flags.seconds).c_str(),
        flags.trace ? "true" : "false", correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed),
        JsonList(failures_json).c_str(), MetricsJson(report, nullptr).c_str(),
        JsonList(spans_json).c_str());
    std::fclose(f);
  }
  const std::vector<const char*> names =
      flags.trace ? std::vector<const char*>(std::begin(kPerLayerNames),
                                             std::end(kPerLayerNames))
                  : std::vector<const char*>(std::begin(kEndToEndNames),
                                             std::end(kEndToEndNames));
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(report, &names).c_str());
  return 0;
}

}  // namespace
}  // namespace roundbench

int main(int argc, char** argv) {
  return roundbench::Run(roundbench::ParseFlags(argc, argv));
}
