#ifndef OPAQ_NET_QUERY_CLIENT_H_
#define OPAQ_NET_QUERY_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/data_file.h"
#include "net/client.h"
#include "net/wire_query.h"
#include "opaq/query.h"
#include "opaq/span.h"
#include "util/status.h"

namespace opaq {

/// One client connection to a query daemon (`opaq_queryd`): opens a named
/// session, then fires batched `kQuery` requests at it. Single-owner,
/// single-thread use, like `NodeClient` underneath — the loadgen dials one
/// per worker thread.
template <typename K>
class QueryClient {
 public:
  QueryClient() = default;
  QueryClient(QueryClient&&) = default;
  QueryClient& operator=(QueryClient&&) = default;

  static Result<QueryClient> Connect(
      const std::string& host, uint16_t port, const std::string& session,
      const NodeClientOptions& options = NodeClientOptions()) {
    auto client = NodeClient::Connect(host, port, options);
    if (!client.ok()) return client.status();
    QueryClient out;
    out.client_ = std::move(client).value();
    out.session_ = session;
    auto info = out.OpenSession();
    if (!info.ok()) return info.status();
    out.info_ = *info;
    return out;
  }

  /// Re-fetches the session's disclosure (geometry, certificates, epoch).
  /// Fails with FailedPrecondition when the daemon serves the session with
  /// a different key type than this client's K.
  Result<WireSessionInfo> OpenSession() {
    OPAQ_RETURN_IF_ERROR(client_.SendRequest(
        WireOp::kOpenSession, session_.data(), session_.size()));
    OPAQ_ASSIGN_OR_RETURN(WireFrame response,
                          client_.ReceiveResponse(WireOp::kSessionInfo));
    OPAQ_ASSIGN_OR_RETURN(auto info,
                          DecodeRecordPayload<WireSessionInfo>(response));
    if (info.key_type != static_cast<uint32_t>(KeyTraits<K>::kType) ||
        info.element_size != sizeof(K)) {
      return Status::FailedPrecondition(
          "session '" + session_ + "' serves key type " +
          std::to_string(info.key_type) + " (" +
          std::to_string(info.element_size) +
          "-byte elements); this client expects type " +
          std::to_string(static_cast<uint32_t>(KeyTraits<K>::kType)) + " (" +
          std::to_string(sizeof(K)) + "-byte)");
    }
    return info;
  }

  /// Answers a batch, decoded. The convenience wrapper over QueryPayload.
  Result<QueryResults<K>> Query(Span<const QueryRequest<K>> requests) {
    auto payload = QueryPayload(requests);
    if (!payload.ok()) return payload.status();
    return DecodeQueryResultsPayload<K>(payload->data(), payload->size());
  }

  /// Answers a batch and returns the RAW `kQueryResult` payload bytes —
  /// what the loadgen's conformance gate memcmps against a local
  /// `EncodeQueryResultsPayload` of the same batch.
  Result<std::vector<uint8_t>> QueryPayload(
      Span<const QueryRequest<K>> requests) {
    std::vector<uint8_t> payload = EncodeQueryPayload(session_, requests);
    OPAQ_RETURN_IF_ERROR(client_.SendRequest(WireOp::kQuery, payload.data(),
                                             payload.size()));
    auto response = client_.ReceiveResponse(WireOp::kQueryResult);
    if (!response.ok()) return response.status();
    return std::move(response->payload);
  }

  /// The disclosure captured at Connect (epoch may be stale; OpenSession
  /// refreshes it).
  const WireSessionInfo& info() const { return info_; }
  const std::string& session() const { return session_; }
  bool connected() const { return client_.connected(); }
  /// Wakes any blocked transfer (callable from another thread).
  void ShutdownNow() { client_.ShutdownNow(); }

 private:
  NodeClient client_;
  std::string session_;
  WireSessionInfo info_;
};

}  // namespace opaq

#endif  // OPAQ_NET_QUERY_CLIENT_H_
