#include "net/client.h"

#include <vector>

#include "io/io_mode.h"

namespace opaq {
namespace {

/// A request payload: `prefix`, then the dataset name.
template <typename Prefix>
std::vector<uint8_t> NamedPayload(const Prefix& prefix,
                                  const std::string& name) {
  PayloadWriter out(sizeof(prefix) + name.size());
  out.Put(prefix);
  out.PutString(name);
  return out.Take();
}

}  // namespace

Result<RemoteSpec> ParseRemoteSpec(const std::string& spec) {
  // The dataset starts at the first '/' (names may contain further '/');
  // the port is delimited by the LAST colon before it, so IPv6 literals —
  // whose host part is full of colons — parse whether bracketed
  // ("[::1]:9000/ds") or bare ("::1:9000/ds").
  const auto slash = spec.find('/');
  if (slash == std::string::npos || slash == 0) {
    return Status::InvalidArgument(
        "bad remote spec '" + spec + "': want host:port/dataset");
  }
  const auto colon = spec.rfind(':', slash - 1);
  if (colon == std::string::npos || colon == 0 || colon + 1 == slash) {
    return Status::InvalidArgument(
        "bad remote spec '" + spec + "': want host:port/dataset");
  }
  RemoteSpec out;
  out.host = spec.substr(0, colon);
  if (out.host.size() >= 2 && out.host.front() == '[' &&
      out.host.back() == ']') {
    out.host = out.host.substr(1, out.host.size() - 2);
  } else if (out.host.front() == '[' || out.host.back() == ']') {
    return Status::InvalidArgument("unbalanced '[' in remote spec '" + spec +
                                   "'");
  }
  if (out.host.empty()) {
    return Status::InvalidArgument("empty host in remote spec '" + spec +
                                   "'");
  }
  const std::string port_text = spec.substr(colon + 1, slash - colon - 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
    return Status::InvalidArgument(
        "bad port '" + port_text + "' in remote spec '" + spec + "'");
  }
  out.port = static_cast<uint16_t>(port);
  out.dataset = spec.substr(slash + 1);
  if (out.dataset.empty()) {
    return Status::InvalidArgument("empty dataset name in remote spec '" +
                                   spec + "'");
  }
  return out;
}

Result<NodeClient> NodeClient::Connect(const std::string& host, uint16_t port,
                                       const NodeClientOptions& options) {
  auto conn = TcpConnection::Connect(host, port,
                                     options.receive_timeout_seconds);
  if (!conn.ok()) return conn.status();
  return NodeClient(std::move(conn).value());
}

Status NodeClient::Ping() {
  OPAQ_RETURN_IF_ERROR(SendFrame(conn_, WireOp::kPing, nullptr, 0));
  auto pong = ReceiveExpected(conn_, WireOp::kPong);
  return pong.status();
}

Result<WireDatasetInfo> NodeClient::OpenDataset(const std::string& name) {
  OPAQ_RETURN_IF_ERROR(
      SendFrame(conn_, WireOp::kOpenDataset, name.data(), name.size()));
  OPAQ_ASSIGN_OR_RETURN(WireFrame frame,
                        ReceiveExpected(conn_, WireOp::kDatasetInfo));
  OPAQ_ASSIGN_OR_RETURN(auto info,
                        DecodeRecordPayload<WireDatasetInfo>(frame));
  if (info.element_size == 0 || info.max_read_elements == 0) {
    return Status::IoError("node sent a nonsensical dataset geometry");
  }
  return info;
}

Status NodeClient::SendReadRange(const std::string& name, uint64_t first,
                                 uint64_t count) {
  WireReadRange range;
  range.first = first;
  range.count = count;
  const std::vector<uint8_t> payload = NamedPayload(range, name);
  return SendFrame(conn_, WireOp::kReadRange, payload.data(), payload.size());
}

Status NodeClient::ReceiveRange(void* out, size_t expected_bytes) {
  return ReceiveRangeData(conn_, out, expected_bytes);
}

Status NodeClient::ReadRange(const std::string& name, uint64_t first,
                             uint64_t count, void* out, size_t out_bytes) {
  OPAQ_RETURN_IF_ERROR(SendReadRange(name, first, count));
  return ReceiveRange(out, out_bytes);
}

Result<WireExtentInfo> NodeClient::OpenExtents(const std::string& name) {
  OPAQ_RETURN_IF_ERROR(
      SendFrame(conn_, WireOp::kOpenExtents, name.data(), name.size()));
  OPAQ_ASSIGN_OR_RETURN(WireFrame frame,
                        ReceiveExpected(conn_, WireOp::kExtentInfo));
  OPAQ_ASSIGN_OR_RETURN(auto info,
                        DecodeRecordPayload<WireExtentInfo>(frame));
  if (info.element_size == 0 || info.extent_elements == 0 ||
      info.max_extents_per_read == 0 ||
      info.extent_elements > kMaxExtentBytes / info.element_size) {
    return Status::IoError("node sent a nonsensical extent geometry");
  }
  return info;
}

Status NodeClient::SendReadExtents(const std::string& name,
                                   uint64_t first_extent, uint64_t count) {
  WireReadExtents range;
  range.first_extent = first_extent;
  range.count = count;
  const std::vector<uint8_t> payload = NamedPayload(range, name);
  return SendFrame(conn_, WireOp::kReadExtents, payload.data(),
                   payload.size());
}

Result<WireAppendAck> NodeClient::Append(const std::string& name,
                                         const void* elements, uint64_t count,
                                         uint32_t element_size) {
  if (count == 0) {
    return Status::InvalidArgument("refusing to append zero elements");
  }
  const uint64_t data_bytes = count * element_size;
  const uint64_t total =
      sizeof(WireAppendRequest) + name.size() + data_bytes;
  if (element_size == 0 || data_bytes / element_size != count ||
      total > kMaxWirePayload) {
    return Status::InvalidArgument(
        "append batch exceeds the wire payload cap; split it");
  }
  WireAppendRequest request;
  request.count = count;
  request.name_len = static_cast<uint32_t>(name.size());
  PayloadWriter out(total);
  out.Put(request);
  out.PutString(name);
  out.PutBytes(elements, data_bytes);
  const std::vector<uint8_t> payload = out.Take();
  OPAQ_RETURN_IF_ERROR(
      SendFrame(conn_, WireOp::kAppend, payload.data(), payload.size()));
  OPAQ_ASSIGN_OR_RETURN(WireFrame frame,
                        ReceiveExpected(conn_, WireOp::kAppendAck));
  return DecodeRecordPayload<WireAppendAck>(frame);
}

Result<size_t> NodeClient::ReceiveExtents(std::vector<uint8_t>* buffer) {
  return ReceiveExpectedInto(conn_, WireOp::kExtentData, buffer);
}

}  // namespace opaq
