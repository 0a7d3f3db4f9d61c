#ifndef OPAQ_NET_FRAME_SERVER_H_
#define OPAQ_NET_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "telemetry/metrics.h"
#include "util/status.h"

namespace opaq {

struct FrameServerOptions {
  /// IPv4 literal to bind. The protocol is unauthenticated, so the default
  /// stays on loopback; bind 0.0.0.0 only on trusted networks.
  std::string bind_address = "127.0.0.1";
  /// 0 = pick an ephemeral port (see `port()` after `Start`).
  uint16_t port = 0;
  /// Artificial delay before every response frame — the latency-injectable
  /// loopback transport the remote-vs-local benches are built on. 0 = off.
  double response_delay_seconds = 0;
  /// Registry this server publishes its metrics into and serves over the
  /// wire (`kStats`). nullptr = the process-global registry; tests running
  /// several servers in one process inject private registries to keep
  /// their counters apart.
  MetricsRegistry* metrics = nullptr;
};

/// The transport half every OPAQ wire daemon shares: bind/listen, one
/// thread per connection, bounded frame reads with CRC and version checks,
/// per-frame response delay injection, traffic counters, and an ordered
/// `Stop()` that joins every thread. `NodeServer` (data/compute ops) and
/// `QueryServer` (query-serving ops) are thin `HandleFrame` overrides on
/// top — the byte-level discipline lives here exactly once.
///
/// Per-request failures answer with an error frame and keep the connection
/// open (HandleFrame returns true); protocol violations (bad magic /
/// version / CRC, unknown op) answer with an error frame and close, since
/// the byte stream can no longer be trusted.
///
/// Derived classes MUST call `Stop()` from their own destructor: the base
/// destructor runs after the derived object is gone, and a connection
/// thread still inside `HandleFrame` by then would be a virtual call into
/// a destroyed object.
class FrameServer {
 public:
  explicit FrameServer(FrameServerOptions options);
  virtual ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens, and spawns the accept loop. Fails (without aborting)
  /// on an unusable address/port or whatever the derived `ValidateStart`
  /// rejects.
  Status Start();

  /// Shuts the listener and every live connection down and joins all
  /// threads. Safe to call more than once, and from any thread but a
  /// connection handler.
  void Stop();

  /// The bound port (real one when options asked for 0). Valid after Start.
  uint16_t port() const { return port_; }
  /// "bind_address:port" — prepend to "/dataset" for remote specs.
  std::string address() const;

  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// Application bytes this server put on / took off the wire (headers and
  /// payloads of every frame) — what the benches read to show bytes-on-wire
  /// without packet capture.
  uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }

  /// Publishes this server's live counters into its registry (via
  /// `PublishMetrics`) and returns the registry's snapshot — exactly what a
  /// `kStats` request answers with, so a daemon's local dump
  /// (`--stats-interval` ticks, SIGTERM shutdown summary) and its remote
  /// `opaq_cli stats` view render the same data through the same formatter.
  MetricsSnapshot StatsSnapshot();

  /// The registry this server publishes into (options or global).
  MetricsRegistry* metrics_registry() const;

 protected:
  /// Derived-class config checks, run by `Start` before binding. Also the
  /// freeze point: once it returns OK, connection threads may be reading
  /// derived state without locks.
  virtual Status ValidateStart() { return Status::OK(); }

  /// Handles one request frame (header already validated, CRC checked,
  /// `requests_served` counted, response delay applied). Returns false when
  /// the connection must close (protocol violation or transport failure).
  /// `kStats` never reaches this — the base `Serve` loop answers it, so
  /// every daemon built on FrameServer serves stats without opting in.
  virtual bool HandleFrame(TcpConnection* conn, const WireFrame& frame) = 0;

  /// Copies this server's counters into `registry` under stable names
  /// (base: the four `net.*` traffic counters). Derived servers override to
  /// add their own, calling the base first. Runs on whatever thread asked
  /// for a snapshot; everything it reads must be safe to read concurrently.
  virtual void PublishMetrics(MetricsRegistry* registry);

  /// All response traffic funnels through these so `bytes_sent` counts
  /// every frame (header + payload) exactly once. `SendCounted` puts the
  /// header and the caller's payload on the wire in one gather write.
  bool SendCounted(TcpConnection* conn, WireOp op, const void* payload,
                   size_t len);
  /// Answers a request with the error frame carrying `status`. Returns
  /// whether the connection is still usable (i.e. the send itself worked).
  bool SendErrorCounted(TcpConnection* conn, const Status& status);

  bool started() const { return started_; }

 private:
  struct Connection {
    TcpConnection conn;
    std::thread thread;
    /// Set by the handler thread on exit; the accept loop reaps done
    /// entries so a long-running daemon's fd/thread footprint tracks LIVE
    /// connections, not historical ones.
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  /// Joins and discards every finished connection (never blocks on a live
  /// one).
  void ReapFinishedConnections();
  void Serve(TcpConnection* conn);

  FrameServerOptions options_;
  TcpListener listener_;
  std::thread accept_thread_;
  uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

/// The daemons' shared serving loop: blocks until SIGINT/SIGTERM or
/// `duration_seconds` elapses (0 = no limit), printing `server`'s stats
/// snapshot to `os` every `stats_interval_seconds` (0 = never) — rendered
/// by the same formatter that serves `kStats`, so the periodic log, the
/// shutdown summary, and `opaq_cli stats` all show identical rows. Runs on
/// the calling thread off the `ShutdownSignal` wait (no extra thread).
/// Returns true when a signal ended the wait, false on timeout.
/// `ShutdownSignal::Install` must have succeeded first.
bool ServeUntilShutdown(FrameServer* server, double duration_seconds,
                        double stats_interval_seconds, std::ostream& os);

}  // namespace opaq

#endif  // OPAQ_NET_FRAME_SERVER_H_
