#include "net/store_service.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "linalg/vector_ops.h"

namespace seesaw::net {

namespace {

StoreReply Error(WireError code, std::string message) {
  return {FrameType::kError, "", code, std::move(message)};
}

}  // namespace

StoreReply StoreFrameService::HandleFrame(FrameType type,
                                          std::string_view payload) const {
  switch (type) {
    case FrameType::kStoreInfo: {
      if (!payload.empty()) {
        return Error(WireError::kMalformedFrame,
                     "StoreInfo carries no payload");
      }
      StoreInfoReply reply;
      reply.size = store_.size();
      reply.dim = static_cast<uint32_t>(store_.dim());
      return {FrameType::kStoreInfoReply, EncodeStoreInfoReply(reply)};
    }

    case FrameType::kStoreTopKBatch: {
      StoreTopKBatchRequest req;
      if (!DecodeStoreTopKBatchRequest(payload, &req)) {
        return Error(WireError::kMalformedFrame,
                     "StoreTopKBatch payload malformed");
      }
      std::vector<linalg::VecSpan> spans;
      spans.reserve(req.queries.size());
      for (const linalg::VectorF& q : req.queries) {
        if (q.size() != store_.dim()) {
          return Error(WireError::kInvalidArgument,
                       "query dimension does not match the store");
        }
        spans.emplace_back(q);
      }
      // k is peer-chosen and sizes each result heap; no scan returns more
      // than size() hits, so the clamp changes no result.
      const size_t k = std::min<size_t>(req.k, store_.size());
      StoreTopKBatchReply reply;
      reply.results = store_.TopKBatch(spans, k, req.seen, pool_);
      return {FrameType::kStoreTopKBatchReply,
              EncodeStoreTopKBatchReply(reply)};
    }

    case FrameType::kStoreGetVector: {
      StoreGetVectorRequest req;
      if (!DecodeStoreGetVectorRequest(payload, &req)) {
        return Error(WireError::kMalformedFrame,
                     "StoreGetVector payload malformed");
      }
      if (req.id >= store_.size()) {
        return Error(WireError::kNotFound, "vector id out of range");
      }
      linalg::VecSpan v = store_.GetVector(req.id);
      StoreGetVectorReply reply;
      reply.vector.assign(v.begin(), v.end());
      return {FrameType::kStoreGetVectorReply,
              EncodeStoreGetVectorReply(reply)};
    }

    default:
      return Error(WireError::kUnknownType, "not a store frame type");
  }
}

}  // namespace seesaw::net
