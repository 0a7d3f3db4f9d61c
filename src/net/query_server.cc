#include "net/query_server.h"

#include "telemetry/trace.h"

namespace opaq {

QueryServer::QueryServer(QueryServerOptions options)
    : FrameServer(options), options_(std::move(options)) {}

QueryServer::~QueryServer() {
  // Joined here, not in ~FrameServer: connection threads virtual-call
  // HandleFrame, which must still exist while they run.
  Stop();
}

Status QueryServer::ValidateStart() {
  if (sessions_.empty()) {
    return Status::FailedPrecondition(
        "a query daemon with nothing to serve serves no purpose; call "
        "Serve before Start");
  }
  if (options_.exact_admission_delay_seconds < 0) {
    return Status::InvalidArgument(
        "exact_admission_delay_seconds must be non-negative");
  }
  return Status::OK();
}

Status QueryServer::Refresh(const std::string& name) {
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("query server serves no session named '" + name +
                            "'");
  }
  return it->second->Rebuild();
}

Result<WireSessionInfo> QueryServer::SessionInfo(
    const std::string& name) const {
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("query server serves no session named '" + name +
                            "'");
  }
  return it->second->Info();
}

void QueryServer::PublishMetrics(MetricsRegistry* registry) {
  FrameServer::PublishMetrics(registry);
  registry->GetCounter("query.exact_passes")->Set(exact_passes());
  // Frozen at Start, so reading the map size without a lock is safe.
  registry->GetGauge("query.sessions")
      ->Set(static_cast<int64_t>(sessions_.size()));
}

bool QueryServer::HandleFrame(TcpConnection* conn, const WireFrame& frame) {
  switch (static_cast<WireOp>(frame.op)) {
    case WireOp::kPing:
      return SendCounted(conn, WireOp::kPong, nullptr, 0);

    case WireOp::kOpenSession: {
      const std::string name(frame.payload.begin(), frame.payload.end());
      auto it = sessions_.find(name);
      if (it == sessions_.end()) {
        // Recoverable: a client probing names keeps its connection.
        return SendErrorCounted(
            conn, Status::NotFound("query server serves no session named '" +
                                   name + "'"));
      }
      WireSessionInfo info = it->second->Info();
      return SendCounted(conn, WireOp::kSessionInfo, &info, sizeof(info));
    }

    case WireOp::kQuery: {
      auto decoded = DecodeQueryName(frame.payload.data(),
                                     frame.payload.size());
      if (!decoded.ok()) {
        // IoError means the framing itself lies (name_len past the end);
        // a bad-but-well-framed batch (0 or too many requests) keeps the
        // connection.
        SendErrorCounted(conn, decoded.status());
        return decoded.status().code() != StatusCode::kIoError;
      }
      auto it = sessions_.find(decoded->second);
      if (it == sessions_.end()) {
        return SendErrorCounted(
            conn, Status::NotFound("query server serves no session named '" +
                                   decoded->second + "'"));
      }
      const uint64_t start_ns = FlightRecorder::NowNs();
      auto answer = it->second->Answer(frame.payload.data(),
                                       frame.payload.size(), decoded->first);
      MetricsRegistry* registry = metrics_registry();
      if (registry->enabled()) {
        registry->GetHistogram("query.batch_latency_us")
            ->Record((FlightRecorder::NowNs() - start_ns) / 1000);
      }
      if (!answer.ok()) {
        // Same split: length lies close the stream, per-request rejections
        // (bad phi / rank / q, exact without sources) keep it.
        SendErrorCounted(conn, answer.status());
        return answer.status().code() != StatusCode::kIoError;
      }
      return SendCounted(conn, WireOp::kQueryResult, answer->data(),
                         answer->size());
    }

    default:
      SendErrorCounted(conn, Status::Unimplemented(
                                 std::string("query server does not speak "
                                             "op ") +
                                 WireOpName(frame.op) + " (" +
                                 std::to_string(frame.op) + ")"));
      return false;  // unknown op: the peer does not speak it; close
  }
}

}  // namespace opaq
