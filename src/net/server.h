// SeeSawServer: the TCP serving front end over SessionManager.
//
// One poll()-driven event loop (running as a long-lived task on a dedicated
// single-thread pool) owns every socket: it accepts connections, slices the
// byte stream into frames (wire.h), and flushes reply bytes. Request
// handlers never touch a socket — the loop dispatches each complete frame
// to the manager's shared ThreadPool (the same nesting-safe pool the
// sessions use for sharded lookups, so a handler's NextBatch may ParallelFor
// on it), and handlers hand reply bytes back through a per-connection
// outbound buffer.
//
// Admission control is three bounded stages, outermost first, each shedding
// instead of queueing unboundedly:
//
//   1. kernel accept backlog (ServerOptions::backlog) — beyond it SYNs are
//      dropped and clients retry at the TCP layer;
//   2. connection cap (max_connections) — excess accepts get one
//      RETRY_LATER error frame and are closed;
//   3. request queue (max_queued_requests) — frames arriving while this many
//      handlers are dispatched-but-unfinished are answered RETRY_LATER from
//      the loop thread without ever reaching the pool;
//
// plus the per-session stage inside SessionManager::Acquire (the in-flight
// lease cap), whose "busy" rejection the handler also maps to RETRY_LATER.
// The result: overload degrades into cheap, typed shed replies — the loop
// thread stays responsive and memory stays bounded.
//
// Lifecycle: the loop runs SessionManager::SweepIdle() every
// sweep_interval_seconds, so sessions abandoned by disconnected clients age
// out by TTL. Stop() (or the destructor) wakes the loop, closes every
// socket, waits for in-flight handlers to finish (their replies are
// dropped), and leaves the manager's sessions intact.
#ifndef SEESAW_NET_SERVER_H_
#define SEESAW_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/aligned.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/session_manager.h"
#include "net/socket.h"
#include "net/store_service.h"
#include "net/wire.h"

namespace seesaw::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port is readable via port() after Start().
  uint16_t port = 0;
  /// Kernel accept-queue bound (admission stage 1).
  int backlog = 511;
  /// Concurrent connections (admission stage 2); excess accepts are sent one
  /// RETRY_LATER frame and closed. 0 = unlimited.
  size_t max_connections = 4096;
  /// Dispatched-but-unfinished request handlers (admission stage 3); frames
  /// beyond the bound are answered RETRY_LATER without dispatching.
  /// 0 = unlimited.
  size_t max_queued_requests = 256;
  /// Largest acceptable request payload; larger frames are malformed (the
  /// length prefix cannot be trusted) and close the connection.
  size_t max_payload_bytes = 1 << 20;
  /// Period of the idle-session TTL sweep run from the loop thread.
  /// <= 0 disables sweeping.
  double sweep_interval_seconds = 1.0;
};

/// Cumulative serving counters (all monotone; snapshot via stats()).
struct ServerStats {
  size_t connections_accepted = 0;
  /// Accepts refused by the connection cap (stage 2 sheds).
  size_t connections_shed = 0;
  size_t requests_ok = 0;
  /// Requests answered with a typed error other than RETRY_LATER.
  size_t requests_error = 0;
  /// Requests shed with RETRY_LATER (queue-full plus session-busy).
  size_t requests_shed = 0;
  /// Frames that failed framing or payload decode.
  size_t malformed_frames = 0;
  size_t sweeps_run = 0;
  size_t sessions_evicted = 0;
};

class SeeSawServer {
 public:
  /// `manager` must outlive the server. Handlers run on manager.pool().
  SeeSawServer(core::SessionManager& manager, ServerOptions options);
  ~SeeSawServer();

  SeeSawServer(const SeeSawServer&) = delete;
  SeeSawServer& operator=(const SeeSawServer&) = delete;

  /// Enables shard-serving store mode: store frames (kStoreInfo /
  /// kStoreTopKBatch / kStoreGetVector) are answered against
  /// `store` via a StoreFrameService on the handler pool; without this
  /// call they get kUnknownType. The session API stays live either way —
  /// one server can serve both. `store` must outlive the server. Call
  /// before Start().
  void ServeStore(const store::VectorStore& store);

  /// Binds, listens, and starts the event loop. InvalidArgument /
  /// FailedPrecondition / IoError on bad config or socket failure.
  Status Start();

  /// Stops accepting, closes every connection, and waits for in-flight
  /// handlers to drain. Idempotent. Managed sessions survive.
  void Stop();

  /// The bound port (resolves port 0). Only meaningful after Start().
  uint16_t port() const { return port_; }

  ServerStats stats() const;

  const ServerOptions& options() const { return options_; }

 private:
  /// Per-connection state. The fd and inbound buffer belong to the loop
  /// thread exclusively; the outbound buffer is the loop/handler rendezvous.
  struct Connection {
    // layout-audited: `mu` and `dead` share this struct unpadded by choice —
    // `dead` is written once at teardown (not a counter; no steady-state
    // write traffic), and every `dead` reader immediately takes `mu` anyway
    // on the non-dead path, so separating them buys nothing. Padding here
    // would also cost 64+ bytes per connection at a 4096-connection cap.
    explicit Connection(Fd socket) : fd(std::move(socket)) {}

    Fd fd;              // loop thread only
    std::string inbuf;  // loop thread only

    Mutex mu;
    /// Encoded reply bytes awaiting the socket (appended by handlers,
    /// drained by the loop).
    std::string outbuf SEESAW_GUARDED_BY(mu);
    /// Close once outbuf drains; set after fatal protocol errors. While
    /// set the loop stops reading (the stream can no longer be framed).
    bool close_after_flush SEESAW_GUARDED_BY(mu) = false;

    /// Set by the loop at teardown so handlers finishing late drop their
    /// replies instead of appending to a dying connection. Plain flag, no
    /// data published through it (the outbuf it short-circuits is
    /// mutex-guarded), hence an atomic per the PrefetchBudget exemption.
    std::atomic<bool> dead{false};
  };

  void RunLoop();
  /// Accepts until EAGAIN, applying the connection cap.
  void AcceptPending();
  /// Reads until EAGAIN; false = connection died.
  bool ReadPending(const std::shared_ptr<Connection>& conn);
  /// Slices complete frames off conn->inbuf and dispatches them; false =
  /// fatal framing error (connection enters close_after_flush).
  bool ParseFrames(const std::shared_ptr<Connection>& conn);
  /// Admission stage 3 + dispatch to the handler pool.
  void DispatchFrame(const std::shared_ptr<Connection>& conn,
                     const FrameHeader& header, std::string payload);
  /// Runs on the manager's pool: decode, execute against the manager,
  /// encode the reply (or a typed error).
  void HandleRequest(const std::shared_ptr<Connection>& conn,
                     FrameHeader header, const std::string& payload);
  /// Queues reply bytes on the connection and wakes the loop. Safe from any
  /// thread; drops the bytes when the connection is already dead.
  void EnqueueReply(const std::shared_ptr<Connection>& conn,
                    std::string frame, bool close_after = false);
  /// Flushes as much outbuf as the socket accepts; false = tear down now
  /// (write error, or close_after_flush and the buffer drained).
  bool FlushWrites(const std::shared_ptr<Connection>& conn);

  std::string ErrorFrame(uint64_t request_id, WireError code,
                         std::string message);

  core::SessionManager& manager_;
  const ServerOptions options_;

  /// Store-mode dispatcher; null unless ServeStore() was called. Written
  /// before Start() only, read by handler threads — no lock needed.
  std::unique_ptr<StoreFrameService> store_service_;

  Fd listener_;
  uint16_t port_ = 0;
  std::unique_ptr<WakePipe> wake_;

  /// Runs exactly RunLoop(); a dedicated pool so the loop never competes
  /// with (or deadlocks behind) handler tasks on the shared pool.
  ThreadPool io_pool_{1};
  TaskHandle loop_handle_;
  bool started_ = false;  // Start/Stop caller's thread only

  /// Live connections keyed by fd. Loop thread only; handlers reach
  /// connections via the shared_ptr captured at dispatch.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  // ----- hot admission state: one cache line per contended atomic -----
  //
  // Layout rationale: these three atomics are on the per-request fast path
  // and are written by *different* threads — `stop_` is polled by the loop
  // every iteration and every DispatchFrame; `queued_requests_` is
  // CAS-bumped by the loop at admission and decremented by each finishing
  // handler; `inflight_handlers_` is incremented by the loop and decremented
  // by handlers (acq_rel, it orders the Stop() drain). Packed back to back
  // (together with the stats below) every
  // handler-epilogue decrement invalidated the loop thread's line holding
  // `stop_`, turning two unrelated counters plus a flag into one
  // ping-ponged line at request rate. CacheAligned gives each its own line
  // so writers only ever dirty their own word.
  CacheAligned<std::atomic<bool>> stop_;

  /// Admission stage 3 counter (dispatched-but-unfinished handlers).
  /// PrefetchBudget pattern: pure throttle, relaxed ordering.
  CacheAligned<std::atomic<size_t>> queued_requests_;

  /// In-flight handler count, for Stop() drain. The cond-var predicate
  /// reads this lock-free (the repo's CondVar contract).
  CacheAligned<std::atomic<size_t>> inflight_handlers_;
  Mutex drain_mu_;
  CondVar drain_cv_;

  // ----- cold monotone stats: deliberately packed (layout-audited) -----
  //
  // layout-audited: pure monotone stat counters, relaxed fetch_add only,
  // read by stats() snapshots. They are bumped at most once per event (not
  // per poll iteration), several are near-zero in healthy serving
  // (shed/error/malformed), and no thread ever spins reading them — so
  // cross-counter line sharing costs a bounded coherence miss on paths that
  // already did a syscall. Padding all eight would spend 512 B to remove
  // that; not worth it. They live *after* the padded block above, which
  // ends on a line boundary, so they can never share a line with the hot
  // admission state.
  std::atomic<size_t> connections_accepted_{0};
  std::atomic<size_t> connections_shed_{0};
  std::atomic<size_t> requests_ok_{0};
  std::atomic<size_t> requests_error_{0};
  std::atomic<size_t> requests_shed_{0};
  std::atomic<size_t> malformed_frames_{0};
  std::atomic<size_t> sweeps_run_{0};
  std::atomic<size_t> sessions_evicted_{0};
};

}  // namespace seesaw::net

#endif  // SEESAW_NET_SERVER_H_
