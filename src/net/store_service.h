// StoreFrameService: the shard-serving request handler, socket-free.
//
// Maps one store request (kStoreInfo / kStoreTopKBatch / kStoreGetVector)
// to a typed StoreReply: the reply type and payload, or a wire error (the
// retired kStoreTopK included: kUnknownType). SeeSawServer's store mode
// frames it with its own request accounting; the fault-injection harness
// (tests/fault_socket.h) calls it with no socket in sight, which is what
// makes every failure-semantics test deterministic.
//
// The service only reads the store (stores are immutable after Create and
// safe for concurrent scans), so HandleFrame is const and safe from any
// number of handler threads at once.
#ifndef SEESAW_NET_STORE_SERVICE_H_
#define SEESAW_NET_STORE_SERVICE_H_

#include <string>
#include <string_view>

#include "common/thread_pool.h"
#include "net/wire.h"
#include "store/vector_store.h"

namespace seesaw::net {

/// One store request's answer, not yet framed: `type` is the reply frame
/// type with its encoded payload in `body`, or kError with `error` and
/// `message` set.
struct StoreReply {
  FrameType type = FrameType::kError;
  std::string body;
  WireError error = WireError::kNone;
  std::string message;
};

class StoreFrameService {
 public:
  /// `store` must outlive the service. `pool` (nullable) parallelizes
  /// TopKBatch scans; it must be the nesting-safe shared pool when handlers
  /// themselves run on it.
  StoreFrameService(const store::VectorStore& store, ThreadPool* pool)
      : store_(store), pool_(pool) {}

  /// Answers one store request of frame type `type`. Malformed payloads
  /// get kMalformedFrame, dimension mismatches kInvalidArgument,
  /// out-of-range GetVector ids kNotFound, non-store frame types
  /// kUnknownType.
  StoreReply HandleFrame(FrameType type, std::string_view payload) const;

 private:
  const store::VectorStore& store_;
  ThreadPool* pool_;
};

}  // namespace seesaw::net

#endif  // SEESAW_NET_STORE_SERVICE_H_
