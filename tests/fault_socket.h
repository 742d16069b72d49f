// FaultTransport: a scripted, socket-free peer for RemoteStore.
//
// Implements net::Transport over a StoreFrameService directly — requests
// are answered in-process by a real local store through the real codecs,
// but each round trip first consults a fault script that can delay the
// reply past the deadline, truncate it mid-frame, drop the connection,
// shed with RETRY_LATER, deliver a stale duplicate before the real reply,
// or answer with a scripted payload in place of the real one (a lying
// peer). Time is a virtual clock the Delay step advances, and the script
// is a fixed list consumed in order, so every failure-semantics test is
// exactly reproducible: no real sockets, no wall-clock sleeps, no races.
//
// Step consumption: one script step per Send() (request round trip). The
// FIRST RPC a RemoteStore issues is the kStoreInfo probe inside
// RemoteStore::Create — scripts must budget a step for it (Pass(), unless
// the test targets Create itself). An exhausted script behaves as Pass
// forever. Retries re-enter Send(), so each retry attempt consumes its own
// step — a script {Pass, RetryLater, RetryLater, Pass} exercises
// "shed twice, then succeed".
#ifndef SEESAW_TESTS_FAULT_SOCKET_H_
#define SEESAW_TESTS_FAULT_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "net/store_service.h"
#include "net/transport.h"
#include "net/wire.h"
#include "store/vector_store.h"

namespace seesaw::test_util {

enum class FaultKind {
  /// Deliver the real reply.
  kPass,
  /// Answer with a RETRY_LATER error frame (graceful shedding) instead of
  /// dispatching the request.
  kRetryLater,
  /// The connection dies mid-reply: ReadFrame fails like a peer that
  /// closed after sending a partial frame. Unusable until Reconnect().
  kTruncate,
  /// The connection dies before any reply byte. Unusable until Reconnect().
  kDrop,
  /// Advance the virtual clock by `seconds` "while waiting": when that
  /// crosses the caller's deadline the read fails DeadlineExceeded,
  /// otherwise the real reply is delivered late.
  kDelay,
  /// Deliver a stale duplicate (the real reply re-framed under the
  /// previous request id) first, then the real reply — a repeating peer.
  kDuplicate,
  /// Answer with `body` as the reply payload, under the request's reply
  /// type, without dispatching the request — a peer that lies about its
  /// shape or its results.
  kReply,
};

struct FaultStep {
  FaultKind kind = FaultKind::kPass;
  /// kDelay only: virtual seconds the reply is late.
  double seconds = 0;
  /// kReply only: the scripted reply payload.
  std::string body;
};

inline FaultStep Pass() { return {FaultKind::kPass}; }
inline FaultStep RetryLater() { return {FaultKind::kRetryLater}; }
inline FaultStep Truncate() { return {FaultKind::kTruncate}; }
inline FaultStep Drop() { return {FaultKind::kDrop}; }
inline FaultStep Delay(double seconds) { return {FaultKind::kDelay, seconds}; }
inline FaultStep Duplicate() { return {FaultKind::kDuplicate}; }
inline FaultStep Reply(std::string body) {
  return {FaultKind::kReply, 0, std::move(body)};
}

/// Frames a StoreFrameService reply under `request_id`: the reply frame, or
/// a kError frame carrying its wire error.
std::string EncodeStoreReply(const net::StoreReply& reply,
                             uint64_t request_id);

class FaultTransport : public net::Transport {
 public:
  /// `store` must outlive the transport. Replies are computed by a
  /// StoreFrameService over it (serial scans; determinism beats speed in a
  /// fault test).
  FaultTransport(const store::VectorStore& store, std::vector<FaultStep> script)
      : service_(store, /*pool=*/nullptr),
        script_(script.begin(), script.end()) {}

  Status Send(std::string_view frame) override;
  Status ReadFrame(net::FrameHeader* header, std::string* payload,
                   size_t max_payload_bytes, double deadline_seconds,
                   const CancellationToken* cancel) override;
  Status Reconnect() override;

  /// Virtual seconds accumulated by Delay steps.
  double virtual_now() const { return now_; }
  /// Round trips attempted (Send calls that reached a live connection).
  size_t sends() const { return sends_; }
  size_t reconnects() const { return reconnects_; }
  /// Script steps not yet consumed (0 = every scripted fault fired).
  size_t steps_left() const { return script_.size(); }

 private:
  net::StoreFrameService service_;
  std::deque<FaultStep> script_;
  /// Reply frames queued for ReadFrame, front first.
  std::deque<std::string> inbox_;
  bool connected_ = true;
  /// Virtual seconds ReadFrame will burn before delivering (set by Send
  /// when it consumes a Delay step).
  double pending_delay_ = 0;
  uint64_t last_request_id_ = 0;
  double now_ = 0;
  size_t sends_ = 0;
  size_t reconnects_ = 0;
};

}  // namespace seesaw::test_util

#endif  // SEESAW_TESTS_FAULT_SOCKET_H_
