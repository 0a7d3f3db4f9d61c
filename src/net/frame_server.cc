#include "net/frame_server.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

#include "net/frame_io.h"
#include "net/wire_stats.h"
#include "telemetry/stats_format.h"
#include "telemetry/trace.h"
#include "util/shutdown.h"

namespace opaq {

FrameServer::FrameServer(FrameServerOptions options)
    : options_(std::move(options)) {}

FrameServer::~FrameServer() {
  // By contract the derived destructor already called Stop(); this repeat is
  // an idempotent no-op that still covers a FrameServer that never Started.
  Stop();
}

bool FrameServer::SendCounted(TcpConnection* conn, WireOp op,
                              const void* payload, size_t len) {
  const WireFrameHeader header = EncodeFrameHeader(op, payload, len);
  bytes_sent_.fetch_add(sizeof(header) + len, std::memory_order_relaxed);
  TraceSpan span(TraceStage::kWireSend);
  return conn->WriteFull(&header, sizeof(header), payload, len).ok();
}

bool FrameServer::SendErrorCounted(TcpConnection* conn, const Status& status) {
  const std::vector<uint8_t> payload = EncodeErrorPayload(status);
  return SendCounted(conn, WireOp::kError, payload.data(), payload.size());
}

MetricsRegistry* FrameServer::metrics_registry() const {
  return options_.metrics != nullptr ? options_.metrics
                                     : &MetricsRegistry::Global();
}

void FrameServer::PublishMetrics(MetricsRegistry* registry) {
  registry->GetCounter("net.connections_accepted")
      ->Set(connections_accepted());
  registry->GetCounter("net.requests_served")->Set(requests_served());
  registry->GetCounter("net.bytes_sent")->Set(bytes_sent());
  registry->GetCounter("net.bytes_received")->Set(bytes_received());
  // Flight-recorder per-stage aggregates ride along, so a stats snapshot
  // carries the trace layer's totals without shipping the ring itself.
  const FlightRecorder& recorder = FlightRecorder::Global();
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    const TraceStage stage = static_cast<TraceStage>(i);
    const std::string prefix = std::string("trace.") + TraceStageName(stage);
    registry->GetCounter(prefix + ".count")->Set(recorder.StageCount(stage));
    registry->GetCounter(prefix + ".ns")->Set(recorder.StageTotalNs(stage));
  }
}

MetricsSnapshot FrameServer::StatsSnapshot() {
  MetricsRegistry* registry = metrics_registry();
  PublishMetrics(registry);
  return registry->Snapshot();
}

Status FrameServer::Start() {
  OPAQ_CHECK(!started_) << "FrameServer::Start called twice";
  OPAQ_RETURN_IF_ERROR(ValidateStart());
  auto listener = TcpListener::Bind(options_.bind_address, options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  port_ = listener_.port();
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void FrameServer::Stop() {
  if (!started_) return;
  if (!stopping_.exchange(true)) {
    listener_.ShutdownNow();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // The accept loop is down, so connections_ gains no new entries; shake
  // every handler out of its blocking read, then join.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& connection : connections_) connection->conn.ShutdownNow();
  }
  for (;;) {
    std::unique_ptr<Connection> connection;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      if (connections_.empty()) break;
      connection = std::move(connections_.back());
      connections_.pop_back();
    }
    if (connection->thread.joinable()) connection->thread.join();
  }
}

std::string FrameServer::address() const {
  return options_.bind_address + ":" + std::to_string(port_);
}

void FrameServer::ReapFinishedConnections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void FrameServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    ReapFinishedConnections();
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_acquire)) break;
      // Transient accept failure (fd pressure, aborted handshake): keep
      // serving, but do not spin hot.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto connection = std::make_unique<Connection>();
    connection->conn = std::move(accepted).value();
    Connection* raw = connection.get();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, raw] {
      Serve(&raw->conn);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void FrameServer::Serve(TcpConnection* conn) {
  for (;;) {
    WireFrameHeader header;
    if (!conn->ReadFull(&header, sizeof(header)).ok()) {
      return;  // peer went away (or Stop shut us down): normal end of stream
    }
    bytes_received_.fetch_add(sizeof(header), std::memory_order_relaxed);
    Status valid = ValidateFrameHeader(header);
    if (!valid.ok()) {
      // The stream cannot be trusted past a malformed header (we may be
      // mid-garbage); answer once and hang up.
      SendErrorCounted(conn, valid);
      conn->ShutdownNow();
      return;
    }
    WireFrame frame;
    frame.op = header.op;
    frame.payload.resize(header.payload_len);
    Status received = ReceivePayload(*conn, header, frame.payload.data());
    if (!received.ok()) {
      // Corrupt, or truncated mid-frame (then the answer goes nowhere):
      // either way nothing after it on this stream can be trusted.
      SendErrorCounted(conn, received);
      conn->ShutdownNow();
      return;
    }
    bytes_received_.fetch_add(header.payload_len, std::memory_order_relaxed);
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    if (options_.response_delay_seconds > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          options_.response_delay_seconds));
    }
    if (static_cast<WireOp>(frame.op) == WireOp::kStats) {
      // Served here, in the shared transport loop, so EVERY daemon built on
      // FrameServer answers stats — derived HandleFrames never see the op.
      std::vector<uint8_t> payload = EncodeStatsPayload(StatsSnapshot());
      if (!SendCounted(conn, WireOp::kStatsData, payload.data(),
                       payload.size())) {
        conn->ShutdownNow();
        return;
      }
      continue;
    }
    if (!HandleFrame(conn, frame)) {
      conn->ShutdownNow();
      return;
    }
  }
}

bool ServeUntilShutdown(FrameServer* server, double duration_seconds,
                        double stats_interval_seconds, std::ostream& os) {
  if (stats_interval_seconds <= 0) {
    return ShutdownSignal::Wait(duration_seconds);
  }
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    double chunk = stats_interval_seconds;
    if (duration_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const double remaining = duration_seconds - elapsed;
      if (remaining <= 0) return false;
      chunk = std::min(chunk, remaining);
    }
    // chunk > 0 always holds here; Wait(0) would mean "no time limit".
    if (ShutdownSignal::Wait(chunk)) return true;
    os << "stats:\n" << FormatStatsText(server->StatsSnapshot());
    os.flush();
  }
}

}  // namespace opaq
