#ifndef OPAQ_NET_CLIENT_H_
#define OPAQ_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/frame_io.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/status.h"

namespace opaq {

/// A parsed "host:port/dataset" remote-dataset spec (the string form
/// `Source<K>::OpenRemote` and `opaq_cli --remote` take). Hosts containing
/// ':' (IPv6 literals) are written bracketed: "[::1]:9000/ds".
struct RemoteSpec {
  std::string host;
  uint16_t port = 0;
  std::string dataset;

  std::string ToString() const {
    const bool bracket = host.find(':') != std::string::npos;
    return (bracket ? "[" + host + "]" : host) + ":" +
           std::to_string(port) + "/" + dataset;
  }
};

/// Parses "host:port/dataset" (dataset names may contain further '/').
/// Accepts bracketed IPv6 hosts ("[::1]:9000/ds") and bare hosts with
/// extra colons by splitting on the LAST colon before the first '/'; an
/// empty host, port, or dataset name is an InvalidArgument.
Result<RemoteSpec> ParseRemoteSpec(const std::string& spec);

/// Client-side connection knobs.
struct NodeClientOptions {
  /// SO_RCVTIMEO on the connection: a node that stops responding surfaces
  /// as IoError after this long instead of hanging the consumer. 0 = wait
  /// forever.
  double receive_timeout_seconds = 60;
  /// When false, `Source::OpenRemote` never attaches the node-side
  /// compute handle, so the engine streams the dataset instead — as packed
  /// extents when the node stores it compressed, as element ranges
  /// otherwise. Bytes-on-wire comparisons flip this off.
  bool node_compute = true;
};

/// One client connection to a data node: typed request/response (and
/// pipelined request-ahead) over the wire protocol. Single-owner,
/// single-thread use — `RemoteRunProvider` dials one per run stream.
/// `ShutdownNow` is the only cross-thread-safe member (it wakes a blocked
/// receive when a consumer abandons the stream).
class NodeClient {
 public:
  NodeClient() = default;
  NodeClient(NodeClient&&) = default;
  NodeClient& operator=(NodeClient&&) = default;

  static Result<NodeClient> Connect(
      const std::string& host, uint16_t port,
      const NodeClientOptions& options = NodeClientOptions());

  /// Liveness round trip.
  Status Ping();

  /// Fetches the node's description of `name` (geometry + read bound).
  Result<WireDatasetInfo> OpenDataset(const std::string& name);

  /// Fires a `kReadRange` request WITHOUT waiting for the response — the
  /// pipelining half. Responses arrive in request order; collect each one
  /// with `ReceiveRange`.
  Status SendReadRange(const std::string& name, uint64_t first,
                       uint64_t count);

  /// Receives the response to the oldest in-flight `SendReadRange`,
  /// directly into `out` (`expected_bytes` = count * element_size). An
  /// error frame decodes into the `Status` the node sent.
  Status ReceiveRange(void* out, size_t expected_bytes);

  /// Blocking convenience: request + response in one call.
  Status ReadRange(const std::string& name, uint64_t first, uint64_t count,
                   void* out, size_t out_bytes);

  /// Fetches the node's extent geometry for `name`. A node answers
  /// Unimplemented when the dataset is not stored as compressed extents —
  /// the signal to stream `kReadRange` instead (see `WireExtentInfo`).
  Result<WireExtentInfo> OpenExtents(const std::string& name);

  /// Fires a `kReadExtents` request WITHOUT waiting for the response — the
  /// pipelining half, like `SendReadRange`.
  Status SendReadExtents(const std::string& name, uint64_t first_extent,
                         uint64_t count);

  /// Receives the response to the oldest in-flight `SendReadExtents` into
  /// `*buffer` and returns its length: the stored extents back to back,
  /// exactly as packed on the node's disk (validate + decode with
  /// `DecodeStoredExtent`). Keep one buffer across calls: it grows to the
  /// longest response and is never zero-filled again, and bytes past the
  /// returned length are stale. An error frame decodes into the `Status`
  /// the node sent.
  Result<size_t> ReceiveExtents(std::vector<uint8_t>* buffer);

  /// Durably appends `count` elements (`count * element_size` raw
  /// bytes at `elements`) to the live dataset the node exports as `name`,
  /// as ONE new segment. The returned ack carries the dataset's new totals
  /// — a commit receipt: when it arrives, the segment's manifest record is
  /// durable on the node. A node answers Unimplemented when the export is
  /// not appendable (static file exports), NotFound for an unknown name,
  /// and InvalidArgument when `elements` does not match the dataset's
  /// element size.
  Result<WireAppendAck> Append(const std::string& name, const void* elements,
                               uint64_t count, uint32_t element_size);

  /// Generic frame round-trip halves for ops whose payloads the caller
  /// codes itself (the compute layer does): send any request frame,
  /// then receive a response demanding op `expected` — a `kError` response
  /// decodes into the `Status` the node sent.
  Status SendRequest(WireOp op, const void* payload, size_t len) {
    return SendFrame(conn_, op, payload, len);
  }
  Result<WireFrame> ReceiveResponse(WireOp expected) {
    return ReceiveExpected(conn_, expected);
  }

  /// Wakes any blocked transfer on this connection (callable from another
  /// thread while the client stays alive).
  void ShutdownNow() { conn_.ShutdownNow(); }

  bool connected() const { return conn_.connected(); }
  const std::string& peer() const { return conn_.peer(); }

 private:
  explicit NodeClient(TcpConnection conn) : conn_(std::move(conn)) {}

  TcpConnection conn_;
};

}  // namespace opaq

#endif  // OPAQ_NET_CLIENT_H_
