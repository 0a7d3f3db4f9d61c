#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/time.h>
#include <unistd.h>

namespace opaq {
namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// The loopback/data-node traffic is many small frames; Nagle would add
/// 40ms-class delays to the pipelined request stream, so turn it off.
void DisableNagle(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// ------------------------------------------------------- TcpConnection ----

TcpConnection::~TcpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

TcpConnection& TcpConnection::operator=(TcpConnection&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    peer_ = std::move(other.peer_);
    other.fd_ = -1;
  }
  return *this;
}

Result<TcpConnection> TcpConnection::Connect(const std::string& host,
                                             uint16_t port,
                                             double receive_timeout_seconds) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* results = nullptr;
  const std::string port_text = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_text.c_str(), &hints,
                               &results);
  if (rc != 0) {
    return Status::IoError("cannot resolve host '" + host +
                           "': " + ::gai_strerror(rc));
  }
  Status last = Status::IoError("no addresses for host '" + host + "'");
  for (struct addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
      last = Errno("connect to " + host + ":" + port_text);
      ::close(fd);
      continue;
    }
    DisableNagle(fd);
    if (receive_timeout_seconds > 0) {
      struct timeval tv;
      tv.tv_sec = static_cast<time_t>(receive_timeout_seconds);
      tv.tv_usec = static_cast<suseconds_t>(
          (receive_timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    ::freeaddrinfo(results);
    return TcpConnection(fd, host + ":" + port_text);
  }
  ::freeaddrinfo(results);
  return last;
}

Status TcpConnection::ReadFull(void* buffer, size_t length) {
  if (fd_ < 0) return Status::IoError("read on a closed connection");
  uint8_t* out = static_cast<uint8_t*>(buffer);
  size_t done = 0;
  while (done < length) {
    const ssize_t n = ::recv(fd_, out + done, length - done, 0);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      return Status::IoError("connection to " + peer_ + " closed after " +
                             std::to_string(done) + " of " +
                             std::to_string(length) + " bytes");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IoError("receive from " + peer_ +
                             " timed out (node unresponsive)");
    }
    return Errno("recv from " + peer_);
  }
  return Status::OK();
}

Status TcpConnection::WriteFull(const void* buffer, size_t length) {
  return WriteFull(buffer, length, nullptr, 0);
}

Status TcpConnection::WriteFull(const void* head, size_t head_length,
                                const void* body, size_t body_length) {
  if (fd_ < 0) return Status::IoError("write on a closed connection");
  struct iovec parts[2];
  parts[0].iov_base = const_cast<void*>(head);
  parts[0].iov_len = head_length;
  parts[1].iov_base = const_cast<void*>(body);
  parts[1].iov_len = body_length;
  struct msghdr message;
  std::memset(&message, 0, sizeof(message));
  message.msg_iov = parts;
  message.msg_iovlen = 2;
  while (message.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(fd_, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send to " + peer_);
    }
    // Drop what the kernel took: whole parts first, then the front of the
    // part it stopped in.
    size_t sent = static_cast<size_t>(n);
    while (message.msg_iovlen > 0 && sent >= message.msg_iov->iov_len) {
      sent -= message.msg_iov->iov_len;
      ++message.msg_iov;
      --message.msg_iovlen;
    }
    if (message.msg_iovlen > 0) {
      message.msg_iov->iov_base =
          static_cast<uint8_t*>(message.msg_iov->iov_base) + sent;
      message.msg_iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

void TcpConnection::ShutdownNow() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

// --------------------------------------------------------- TcpListener ----

TcpListener::~TcpListener() { Close(); }

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Result<TcpListener> TcpListener::Bind(const std::string& address,
                                      uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address '" + address +
                                   "' (need an IPv4 literal)");
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status s = Errno("bind " + address + ":" + std::to_string(port));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    Status s = Errno("listen");
    ::close(fd);
    return s;
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0) {
    Status s = Errno("getsockname");
    ::close(fd);
    return s;
  }
  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<TcpConnection> TcpListener::Accept() {
  if (fd_ < 0) return Status::IoError("accept on a closed listener");
  struct sockaddr_in addr;
  socklen_t addr_len = sizeof(addr);
  for (;;) {
    const int fd = ::accept(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                            &addr_len);
    if (fd >= 0) {
      DisableNagle(fd);
      char text[INET_ADDRSTRLEN] = {0};
      ::inet_ntop(AF_INET, &addr.sin_addr, text, sizeof(text));
      return TcpConnection(
          fd, std::string(text) + ":" + std::to_string(ntohs(addr.sin_port)));
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

void TcpListener::ShutdownNow() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace opaq
