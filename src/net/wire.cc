#include "net/wire.h"

namespace opaq {

const char* WireOpName(uint16_t op) {
  switch (static_cast<WireOp>(op)) {
    case WireOp::kPing: return "PING";
    case WireOp::kPong: return "PONG";
    case WireOp::kOpenDataset: return "OPEN_DATASET";
    case WireOp::kDatasetInfo: return "DATASET_INFO";
    case WireOp::kReadRange: return "READ_RANGE";
    case WireOp::kRangeData: return "RANGE_DATA";
    case WireOp::kError: return "ERROR";
    case WireOp::kSampleRuns: return "SAMPLE_RUNS";
    case WireOp::kSampleListData: return "SAMPLE_LIST_DATA";
    case WireOp::kExactPass: return "EXACT_PASS";
    case WireOp::kExactPassData: return "EXACT_PASS_DATA";
    case WireOp::kOpenSession: return "OPEN_SESSION";
    case WireOp::kSessionInfo: return "SESSION_INFO";
    case WireOp::kQuery: return "QUERY";
    case WireOp::kQueryResult: return "QUERY_RESULT";
    case WireOp::kOpenExtents: return "OPEN_EXTENTS";
    case WireOp::kExtentInfo: return "EXTENT_INFO";
    case WireOp::kReadExtents: return "READ_EXTENTS";
    case WireOp::kExtentData: return "EXTENT_DATA";
    case WireOp::kAppend: return "APPEND";
    case WireOp::kAppendAck: return "APPEND_ACK";
    case WireOp::kStats: return "STATS";
    case WireOp::kStatsData: return "STATS_DATA";
  }
  return "?";
}

WireFrameHeader EncodeFrameHeader(WireOp op, const void* payload, size_t len) {
  OPAQ_CHECK_LE(len, static_cast<size_t>(kMaxWirePayload));
  WireFrameHeader header;
  header.op = static_cast<uint16_t>(op);
  header.payload_len = static_cast<uint32_t>(len);
  header.payload_crc = Crc32(payload, len);
  return header;
}

std::vector<uint8_t> EncodeFrame(WireOp op, const void* payload, size_t len) {
  PayloadWriter out(sizeof(WireFrameHeader) + len);
  out.Put(EncodeFrameHeader(op, payload, len));
  out.PutBytes(payload, len);
  return out.Take();
}

std::vector<uint8_t> EncodeFrame(WireOp op,
                                 const std::vector<uint8_t>& payload) {
  return EncodeFrame(op, payload.data(), payload.size());
}

std::vector<uint8_t> EncodeErrorPayload(const Status& status) {
  PayloadWriter out(sizeof(uint32_t) + status.message().size());
  out.Put(static_cast<uint32_t>(status.code()));
  out.PutString(status.message());
  return out.Take();
}

std::vector<uint8_t> EncodeErrorFrame(const Status& status) {
  return EncodeFrame(WireOp::kError, EncodeErrorPayload(status));
}

Status DecodeErrorPayload(const uint8_t* payload, size_t len) {
  PayloadReader in(payload, len, "ERROR");
  uint32_t code = 0;
  OPAQ_RETURN_IF_ERROR(in.Read(&code));
  if (code == static_cast<uint32_t>(StatusCode::kOk) ||
      code > static_cast<uint32_t>(StatusCode::kUnimplemented)) {
    return Status::IoError("error frame carries an invalid status code " +
                           std::to_string(code));
  }
  return Status(static_cast<StatusCode>(code), in.RestAsString());
}

Status PayloadReader::Truncated(uint64_t count, size_t size) const {
  return Status::IoError(std::string(op_) + " payload truncated: " +
                         (count == 1 ? "" : std::to_string(count) + " x ") +
                         std::to_string(size) + " bytes wanted at byte " +
                         std::to_string(pos_) + ", " +
                         std::to_string(remaining()) + " left");
}

Status PayloadReader::Trailing() const {
  return Status::IoError(std::string(op_) + " carries " +
                         std::to_string(remaining()) + " trailing bytes");
}

Status ValidateFrameHeader(const WireFrameHeader& header) {
  if (header.magic != WireFrameHeader::kMagic) {
    return Status::IoError("bad frame magic: not OPAQ node traffic");
  }
  if (header.version != kWireVersion) {
    return Status::IoError("unsupported wire protocol version " +
                           std::to_string(header.version) +
                           " (this build speaks only version " +
                           std::to_string(kWireVersion) + ")");
  }
  if (header.payload_len > kMaxWirePayload) {
    return Status::IoError("frame payload of " +
                           std::to_string(header.payload_len) +
                           " bytes exceeds the protocol cap");
  }
  return Status::OK();
}

Result<WireFrame> DecodeFrame(const uint8_t* data, size_t size,
                              size_t* consumed) {
  PayloadReader in(data, size, "frame");
  WireFrameHeader header;
  OPAQ_RETURN_IF_ERROR(in.Read(&header));
  OPAQ_RETURN_IF_ERROR(ValidateFrameHeader(header));
  const uint8_t* payload = nullptr;
  OPAQ_RETURN_IF_ERROR(in.ReadBytes(header.payload_len, &payload));
  if (Crc32(payload, header.payload_len) != header.payload_crc) {
    return Status::IoError(std::string("payload CRC mismatch on a ") +
                           WireOpName(header.op) + " frame");
  }
  WireFrame frame;
  frame.op = header.op;
  frame.payload.assign(payload, payload + header.payload_len);
  if (consumed != nullptr) *consumed = in.position();
  return frame;
}

}  // namespace opaq
