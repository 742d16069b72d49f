#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"

namespace seesaw::net {

namespace {

/// Maps a Status from a manager call to the wire code the client sees.
/// ResourceExhausted is ambiguous by code alone — quota on CreateSession,
/// busy on Acquire — so each call site passes the right wire meaning.
WireError CodeForStatus(const Status& status, WireError resource_exhausted) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      return WireError::kNotFound;
    case StatusCode::kInvalidArgument:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kOutOfRange:
      return WireError::kInvalidArgument;
    case StatusCode::kResourceExhausted:
      return resource_exhausted;
    default:
      return WireError::kInternal;
  }
}

}  // namespace

SeeSawServer::SeeSawServer(core::SessionManager& manager,
                           ServerOptions options)
    : manager_(manager), options_(std::move(options)) {}

SeeSawServer::~SeeSawServer() { Stop(); }

void SeeSawServer::ServeStore(const store::VectorStore& store) {
  store_service_ =
      std::make_unique<StoreFrameService>(store, &manager_.pool());
}

Status SeeSawServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  SEESAW_ASSIGN_OR_RETURN(
      Fd listener,
      ListenTcp(options_.bind_address, options_.port, options_.backlog));
  SEESAW_ASSIGN_OR_RETURN(uint16_t port, LocalPort(listener.get()));
  SEESAW_RETURN_IF_ERROR(SetNonBlocking(listener.get()));
  SEESAW_ASSIGN_OR_RETURN(WakePipe wake, WakePipe::Create());
  listener_ = std::move(listener);
  port_ = port;
  wake_ = std::make_unique<WakePipe>(std::move(wake));
  stop_.value.store(false, std::memory_order_release);
  loop_handle_ = io_pool_.SubmitWithResult([this] { RunLoop(); });
  started_ = true;
  return Status::OK();
}

void SeeSawServer::Stop() {
  if (!started_) return;
  stop_.value.store(true, std::memory_order_release);
  wake_->Wake();
  loop_handle_.Wait();
  started_ = false;
}

ServerStats SeeSawServer::stats() const {
  ServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_shed = connections_shed_.load(std::memory_order_relaxed);
  s.requests_ok = requests_ok_.load(std::memory_order_relaxed);
  s.requests_error = requests_error_.load(std::memory_order_relaxed);
  s.requests_shed = requests_shed_.load(std::memory_order_relaxed);
  s.malformed_frames = malformed_frames_.load(std::memory_order_relaxed);
  s.sweeps_run = sweeps_run_.load(std::memory_order_relaxed);
  s.sessions_evicted = sessions_evicted_.load(std::memory_order_relaxed);
  return s;
}

std::string SeeSawServer::ErrorFrame(uint64_t request_id, WireError code,
                                     std::string message) {
  ErrorReply reply;
  reply.code = code;
  reply.message = std::move(message);
  return EncodeFrame(FrameType::kError, request_id, EncodeErrorReply(reply));
}

void SeeSawServer::RunLoop() {
  Stopwatch sweep_timer;
  std::vector<pollfd> fds;
  // Parallel to fds[2..]: keeps each polled connection alive through the
  // iteration even if it is erased from connections_ mid-pass.
  std::vector<std::shared_ptr<Connection>> polled;
  while (!stop_.value.load(std::memory_order_acquire)) {
    fds.clear();
    polled.clear();
    fds.push_back({wake_->read_fd(), POLLIN, 0});
    fds.push_back({listener_.get(), POLLIN, 0});
    for (auto it = connections_.begin(); it != connections_.end();) {
      const std::shared_ptr<Connection>& conn = it->second;
      bool have_out;
      bool closing;
      {
        MutexLock lock(conn->mu);
        have_out = !conn->outbuf.empty();
        closing = conn->close_after_flush;
      }
      if (closing && !have_out) {
        // Error reply already on the wire; retire the connection.
        conn->dead.store(true, std::memory_order_release);
        it = connections_.erase(it);
        continue;
      }
      short events = 0;
      if (!closing) events |= POLLIN;
      if (have_out) events |= POLLOUT;
      fds.push_back({conn->fd.get(), events, 0});
      polled.push_back(conn);
      ++it;
    }

    int timeout_ms = 1000;
    if (options_.sweep_interval_seconds > 0) {
      double remaining =
          options_.sweep_interval_seconds - sweep_timer.ElapsedSeconds();
      timeout_ms = remaining <= 0
                       ? 0
                       : std::min(1000, static_cast<int>(remaining * 1e3) + 1);
    }

    int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (stop_.value.load(std::memory_order_acquire)) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failed; nothing sane left to do
    }
    if (rc > 0) {
      if (fds[0].revents & POLLIN) wake_->Drain();
      if (fds[1].revents & POLLIN) AcceptPending();
      for (size_t i = 0; i < polled.size(); ++i) {
        const std::shared_ptr<Connection>& conn = polled[i];
        short revents = fds[i + 2].revents;
        if (revents == 0) continue;
        bool alive = true;
        if (revents & (POLLERR | POLLNVAL)) alive = false;
        // POLLHUP with POLLIN still has bytes to read; recv() returning 0
        // detects the close. Bare POLLHUP means the peer is simply gone.
        if (alive && (revents & POLLHUP) && !(revents & POLLIN)) alive = false;
        if (alive && (revents & POLLIN)) {
          alive = ReadPending(conn);
          if (alive) ParseFrames(conn);
        }
        if (alive && (revents & POLLOUT)) alive = FlushWrites(conn);
        if (!alive) {
          conn->dead.store(true, std::memory_order_release);
          connections_.erase(conn->fd.get());
          // `polled` still references the Connection, so the fd closes when
          // the vector clears next iteration — after polling stops using it.
        }
      }
    }

    if (options_.sweep_interval_seconds > 0 &&
        sweep_timer.ElapsedSeconds() >= options_.sweep_interval_seconds) {
      size_t evicted = manager_.SweepIdle();
      sweeps_run_.fetch_add(1, std::memory_order_relaxed);
      sessions_evicted_.fetch_add(evicted, std::memory_order_relaxed);
      sweep_timer.Restart();
    }
  }

  // Shutdown: stop the sockets first, then let the handlers finish against
  // dead connections (their replies are dropped in EnqueueReply).
  listener_.Close();
  for (auto& [fd, conn] : connections_) {
    conn->dead.store(true, std::memory_order_release);
  }
  connections_.clear();
  MutexLock lock(drain_mu_);
  while (inflight_handlers_.value.load(std::memory_order_acquire) != 0) {
    drain_cv_.Wait(drain_mu_);
  }
}

void SeeSawServer::AcceptPending() {
  for (;;) {
    int raw = ::accept(listener_.get(), nullptr, nullptr);
    if (raw < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained the backlog (or a transient accept error)
    }
    Fd fd(raw);
    if (options_.max_connections > 0 &&
        connections_.size() >= options_.max_connections) {
      // Admission stage 2: one typed shed frame, then close. The socket is
      // still blocking and its send buffer empty, so this cannot stall the
      // loop on a ~40-byte frame.
      connections_shed_.fetch_add(1, std::memory_order_relaxed);
      (void)WriteAll(fd.get(), ErrorFrame(0, WireError::kRetryLater,
                                          "connection limit reached"));
      continue;
    }
    if (!SetNonBlocking(fd.get()).ok() || !SetNoDelay(fd.get()).ok()) {
      continue;
    }
    auto conn = std::make_shared<Connection>(std::move(fd));
    int key = conn->fd.get();
    connections_.emplace(key, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SeeSawServer::ReadPending(const std::shared_ptr<Connection>& conn) {
  char buf[64 << 10];
  for (;;) {
    ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

bool SeeSawServer::ParseFrames(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    if (conn->inbuf.size() < kHeaderBytes) return true;
    FrameHeader header;
    if (!DecodeHeader(conn->inbuf, &header)) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      EnqueueReply(conn,
                   ErrorFrame(0, WireError::kMalformedFrame,
                              "bad frame magic; closing connection"),
                   /*close_after=*/true);
      return false;
    }
    if (header.version != kProtocolVersion) {
      requests_error_.fetch_add(1, std::memory_order_relaxed);
      EnqueueReply(conn,
                   ErrorFrame(header.request_id,
                              WireError::kUnsupportedVersion,
                              "unsupported protocol version"),
                   /*close_after=*/true);
      return false;
    }
    if (header.payload_len > options_.max_payload_bytes) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      EnqueueReply(conn,
                   ErrorFrame(header.request_id, WireError::kMalformedFrame,
                              "payload exceeds size cap"),
                   /*close_after=*/true);
      return false;
    }
    size_t total = kHeaderBytes + header.payload_len;
    if (conn->inbuf.size() < total) return true;
    std::string payload = conn->inbuf.substr(kHeaderBytes, header.payload_len);
    conn->inbuf.erase(0, total);
    DispatchFrame(conn, header, std::move(payload));
  }
}

void SeeSawServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                                 const FrameHeader& header,
                                 std::string payload) {
  if (stop_.value.load(std::memory_order_acquire)) {
    requests_error_.fetch_add(1, std::memory_order_relaxed);
    EnqueueReply(conn,
                 ErrorFrame(header.request_id, WireError::kShuttingDown,
                            "server is stopping"),
                 /*close_after=*/true);
    return;
  }
  // Admission stage 3 (PrefetchBudget-style try-acquire): never let more
  // than max_queued_requests handlers pile up behind the shared pool.
  //
  // Memory-order audit (PR 7 contract style): the whole CAS loop is
  // `relaxed` because the counter is a pure throttle — no data is published
  // *through* it. The handler's payload travels through the pool queue
  // below, whose mutex provides the happens-before edge; the matching
  // decrement in the handler epilogue is likewise relaxed. The only
  // correctness property the counter carries is "never exceeds the cap",
  // and that is the CAS's atomicity, not its ordering. (Same rationale as
  // PrefetchBudget::TryAcquire, where this pattern was first documented.)
  if (options_.max_queued_requests > 0) {
    size_t current = queued_requests_.value.load(std::memory_order_relaxed);
    bool admitted = false;
    while (current < options_.max_queued_requests) {
      if (queued_requests_.value.compare_exchange_weak(
              current, current + 1, std::memory_order_relaxed)) {
        admitted = true;
        break;
      }
    }
    if (!admitted) {
      requests_shed_.fetch_add(1, std::memory_order_relaxed);
      EnqueueReply(conn, ErrorFrame(header.request_id, WireError::kRetryLater,
                                    "request queue full"));
      return;
    }
  } else {
    queued_requests_.value.fetch_add(1, std::memory_order_relaxed);
  }
  // acq_rel (unlike the throttle above): Stop()'s drain loop reads this
  // counter as its "all handlers finished" predicate, so the final
  // decrement must be ordered after the handler's side effects — the
  // release half publishes them to the drain loop's acquire load.
  inflight_handlers_.value.fetch_add(1, std::memory_order_acq_rel);
  manager_.pool().Submit(
      [this, conn, header, payload = std::move(payload)]() {
        HandleRequest(conn, header, payload);
        queued_requests_.value.fetch_sub(1, std::memory_order_relaxed);
        if (inflight_handlers_.value.fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          // Publish "drained" under the mutex so a Stop() caller between its
          // predicate check and parking cannot miss the notify.
          MutexLock lock(drain_mu_);
          drain_cv_.NotifyAll();
        }
      });
}

void SeeSawServer::HandleRequest(const std::shared_ptr<Connection>& conn,
                                 FrameHeader header,
                                 const std::string& payload) {
  const uint64_t id = header.request_id;
  auto fail = [&](WireError code, std::string message) {
    if (code == WireError::kRetryLater) {
      requests_shed_.fetch_add(1, std::memory_order_relaxed);
    } else if (code == WireError::kMalformedFrame) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
    } else {
      requests_error_.fetch_add(1, std::memory_order_relaxed);
    }
    EnqueueReply(conn, ErrorFrame(id, code, std::move(message)),
                 /*close_after=*/code == WireError::kMalformedFrame);
  };
  auto succeed = [&](FrameType reply_type, std::string body) {
    requests_ok_.fetch_add(1, std::memory_order_relaxed);
    EnqueueReply(conn, EncodeFrame(reply_type, id, body));
  };

  switch (header.type) {
    case FrameType::kPing:
      succeed(FrameType::kPingReply, "");
      return;

    case FrameType::kCreateSession: {
      CreateSessionRequest req;
      if (!DecodeCreateSessionRequest(payload, &req)) {
        fail(WireError::kMalformedFrame, "CreateSession payload malformed");
        return;
      }
      StatusOr<core::SessionId> session =
          req.by_vector
              ? manager_.CreateSession(std::move(req.query_vector), req.user)
              : manager_.CreateSession(req.text_query, req.user);
      if (!session.ok()) {
        fail(CodeForStatus(session.status(), WireError::kQuotaExceeded),
             session.status().message());
        return;
      }
      CreateSessionReply reply;
      reply.session_id = *session;
      succeed(FrameType::kCreateSessionReply,
              EncodeCreateSessionReply(reply));
      return;
    }

    case FrameType::kNextBatch: {
      NextBatchRequest req;
      if (!DecodeNextBatchRequest(payload, &req)) {
        fail(WireError::kMalformedFrame, "NextBatch payload malformed");
        return;
      }
      if (req.n > kMaxBatchEntries) {
        // The reply could not be decoded; refuse before any scan runs.
        fail(WireError::kInvalidArgument,
             "NextBatch n exceeds the reply cap of " +
                 std::to_string(kMaxBatchEntries) + " results");
        return;
      }
      StatusOr<core::SessionLease> lease = manager_.Acquire(req.session_id);
      if (!lease.ok()) {
        fail(CodeForStatus(lease.status(), WireError::kRetryLater),
             lease.status().message());
        return;
      }
      NextBatchReply reply;
      reply.batch = (*lease)->NextBatch(req.n);
      // Release the in-flight slot BEFORE the reply leaves: the moment the
      // client reads the reply it may send its next request, and that
      // request must not race this handler's epilogue for the slot.
      lease->Reset();
      succeed(FrameType::kNextBatchReply, EncodeNextBatchReply(reply));
      return;
    }

    case FrameType::kAddFeedback: {
      AddFeedbackRequest req;
      if (!DecodeAddFeedbackRequest(payload, &req)) {
        fail(WireError::kMalformedFrame, "AddFeedback payload malformed");
        return;
      }
      Status valid = manager_.CheckFeedback(req.feedback);
      if (!valid.ok()) {
        fail(CodeForStatus(valid, WireError::kRetryLater), valid.message());
        return;
      }
      StatusOr<core::SessionLease> lease = manager_.Acquire(req.session_id);
      if (!lease.ok()) {
        fail(CodeForStatus(lease.status(), WireError::kRetryLater),
             lease.status().message());
        return;
      }
      (*lease)->AddFeedback(req.feedback);
      lease->Reset();  // before the reply leaves — see kNextBatch
      succeed(FrameType::kAddFeedbackReply, "");
      return;
    }

    case FrameType::kRefit: {
      SessionRequest req;
      if (!DecodeSessionRequest(payload, &req)) {
        fail(WireError::kMalformedFrame, "Refit payload malformed");
        return;
      }
      StatusOr<core::SessionLease> lease = manager_.Acquire(req.session_id);
      if (!lease.ok()) {
        fail(CodeForStatus(lease.status(), WireError::kRetryLater),
             lease.status().message());
        return;
      }
      Status refit = (*lease)->Refit();
      lease->Reset();  // before the reply leaves — see kNextBatch
      if (!refit.ok()) {
        fail(CodeForStatus(refit, WireError::kRetryLater), refit.message());
        return;
      }
      succeed(FrameType::kRefitReply, "");
      return;
    }

    case FrameType::kCloseSession: {
      SessionRequest req;
      if (!DecodeSessionRequest(payload, &req)) {
        fail(WireError::kMalformedFrame, "CloseSession payload malformed");
        return;
      }
      Status closed = manager_.Close(req.session_id);
      if (!closed.ok()) {
        fail(CodeForStatus(closed, WireError::kRetryLater),
             closed.message());
        return;
      }
      succeed(FrameType::kCloseSessionReply, "");
      return;
    }

    default:
      // Store mode answers the store frames, and kUnknownType for the rest.
      if (store_service_ == nullptr) {
        fail(WireError::kUnknownType, "unknown frame type");
        return;
      }
      StoreReply reply = store_service_->HandleFrame(header.type, payload);
      if (reply.type == FrameType::kError) {
        fail(reply.error, std::move(reply.message));
      } else {
        succeed(reply.type, std::move(reply.body));
      }
      return;
  }
}

void SeeSawServer::EnqueueReply(const std::shared_ptr<Connection>& conn,
                                std::string frame, bool close_after) {
  if (conn->dead.load(std::memory_order_acquire)) return;
  {
    MutexLock lock(conn->mu);
    conn->outbuf.append(frame);
    if (close_after) conn->close_after_flush = true;
  }
  // The loop may be parked in poll() with no POLLOUT interest registered for
  // this connection yet; poke it so the reply leaves promptly.
  wake_->Wake();
}

bool SeeSawServer::FlushWrites(const std::shared_ptr<Connection>& conn) {
  MutexLock lock(conn->mu);
  while (!conn->outbuf.empty()) {
    ssize_t n = ::send(conn->fd.get(), conn->outbuf.data(),
                       conn->outbuf.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    conn->outbuf.erase(0, static_cast<size_t>(n));
  }
  return !conn->close_after_flush;
}

}  // namespace seesaw::net
