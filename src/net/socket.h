#ifndef OPAQ_NET_SOCKET_H_
#define OPAQ_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <utility>

#include "util/status.h"

namespace opaq {

/// A connected TCP stream with exact-length transfer semantics — the byte
/// transport under the data-node wire protocol. Portable POSIX sockets
/// (IPv4; hostnames resolve through getaddrinfo).
///
/// Thread model: one thread drives `ReadFull`/`WriteFull` at a time (frame
/// I/O is inherently sequential); `ShutdownNow` may be called from ANY
/// thread to wake a peer blocked in a transfer — it half-closes the socket
/// without invalidating the descriptor, so the blocked call fails with a
/// clean Status instead of hanging (used when a consumer abandons a
/// remote run stream mid-run).
class TcpConnection {
 public:
  /// An empty (never-connected) connection; every transfer fails.
  TcpConnection() = default;
  ~TcpConnection();

  TcpConnection(TcpConnection&& other) noexcept
      : fd_(other.fd_), peer_(std::move(other.peer_)) {
    other.fd_ = -1;
  }
  TcpConnection& operator=(TcpConnection&& other) noexcept;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Dials `host:port`. `receive_timeout_seconds` > 0 arms SO_RCVTIMEO so a
  /// silent peer surfaces as an IoError instead of a hang; 0 disables it.
  static Result<TcpConnection> Connect(const std::string& host, uint16_t port,
                                       double receive_timeout_seconds = 0);

  /// Reads exactly `length` bytes. A peer close mid-transfer (or a receive
  /// timeout) is an IoError — the frame layer never sees partial data.
  Status ReadFull(void* buffer, size_t length);

  /// Writes exactly `length` bytes (SIGPIPE suppressed; a broken pipe is an
  /// IoError).
  Status WriteFull(const void* buffer, size_t length);

  /// Half-closes both directions, waking any thread blocked in a transfer
  /// on this connection. Idempotent; safe from any thread while the
  /// connection object stays alive.
  void ShutdownNow();

  bool connected() const { return fd_ >= 0; }
  /// "host:port" of the remote end (as dialed / accepted).
  const std::string& peer() const { return peer_; }

 private:
  friend class TcpListener;
  TcpConnection(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {}

  int fd_ = -1;
  std::string peer_;
};

/// A listening TCP socket. `Bind` with port 0 picks an ephemeral port —
/// `port()` reports the real one, which is how tests and the examples spawn
/// loopback nodes without port collisions.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
  }
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  static Result<TcpListener> Bind(const std::string& address, uint16_t port);

  /// Blocks for the next connection. Fails (instead of blocking forever)
  /// once `ShutdownNow` was called.
  Result<TcpConnection> Accept();

  /// Wakes a thread blocked in `Accept` (callable from any thread).
  void ShutdownNow();

  void Close();
  bool listening() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace opaq

#endif  // OPAQ_NET_SOCKET_H_
