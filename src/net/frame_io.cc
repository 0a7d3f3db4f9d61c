#include "net/frame_io.h"

#include <string>
#include <vector>

#include "telemetry/trace.h"

namespace opaq {
namespace {

Result<WireFrameHeader> ReceiveHeader(TcpConnection& conn) {
  WireFrameHeader header;
  OPAQ_RETURN_IF_ERROR(conn.ReadFull(&header, sizeof(header)));
  OPAQ_RETURN_IF_ERROR(ValidateFrameHeader(header));
  return header;
}

Status ProtocolViolation(const WireFrameHeader& header, WireOp expected) {
  return Status::IoError(std::string("protocol violation: expected a ") +
                         WireOpName(static_cast<uint16_t>(expected)) +
                         " frame, node sent " + WireOpName(header.op));
}

}  // namespace

Status SendFrame(TcpConnection& conn, WireOp op, const void* payload,
                 size_t len) {
  const WireFrameHeader header = EncodeFrameHeader(op, payload, len);
  TraceSpan span(TraceStage::kWireSend);
  return conn.WriteFull(&header, sizeof(header), payload, len);
}

Status ReceivePayload(TcpConnection& conn, const WireFrameHeader& header,
                      void* out) {
  if (header.payload_len != 0) {
    TraceSpan span(TraceStage::kWireRecv);
    OPAQ_RETURN_IF_ERROR(conn.ReadFull(out, header.payload_len));
  }
  if (Crc32(out, header.payload_len) != header.payload_crc) {
    return Status::IoError(std::string("payload CRC mismatch on a ") +
                           WireOpName(header.op) + " frame from " +
                           conn.peer());
  }
  return Status::OK();
}

Result<WireFrame> ReceiveFrame(TcpConnection& conn) {
  OPAQ_ASSIGN_OR_RETURN(WireFrameHeader header, ReceiveHeader(conn));
  WireFrame frame;
  frame.op = header.op;
  frame.payload.resize(header.payload_len);
  OPAQ_RETURN_IF_ERROR(ReceivePayload(conn, header, frame.payload.data()));
  return frame;
}

Result<WireFrame> ReceiveExpected(TcpConnection& conn, WireOp expected) {
  WireFrame frame;
  frame.op = static_cast<uint16_t>(expected);
  OPAQ_RETURN_IF_ERROR(
      ReceiveExpectedInto(conn, expected, &frame.payload).status());
  return frame;
}

Result<size_t> ReceiveExpectedInto(TcpConnection& conn, WireOp expected,
                                   std::vector<uint8_t>* buffer) {
  OPAQ_ASSIGN_OR_RETURN(WireFrameHeader header, ReceiveHeader(conn));
  if (buffer->size() < header.payload_len) buffer->resize(header.payload_len);
  OPAQ_RETURN_IF_ERROR(ReceivePayload(conn, header, buffer->data()));
  if (header.op == static_cast<uint16_t>(WireOp::kError)) {
    return DecodeErrorPayload(buffer->data(), header.payload_len);
  }
  if (header.op != static_cast<uint16_t>(expected)) {
    return ProtocolViolation(header, expected);
  }
  return static_cast<size_t>(header.payload_len);
}

Status ReceiveRangeData(TcpConnection& conn, void* out,
                        size_t expected_bytes) {
  OPAQ_ASSIGN_OR_RETURN(WireFrameHeader header, ReceiveHeader(conn));
  if (header.op == static_cast<uint16_t>(WireOp::kError)) {
    std::vector<uint8_t> payload(header.payload_len);
    OPAQ_RETURN_IF_ERROR(ReceivePayload(conn, header, payload.data()));
    return DecodeErrorPayload(payload.data(), payload.size());
  }
  if (header.op != static_cast<uint16_t>(WireOp::kRangeData)) {
    return ProtocolViolation(header, WireOp::kRangeData);
  }
  if (header.payload_len != expected_bytes) {
    return Status::IoError(
        "RANGE_DATA length mismatch: requested " +
        std::to_string(expected_bytes) + " bytes, node sent " +
        std::to_string(header.payload_len));
  }
  return ReceivePayload(conn, header, out);
}

}  // namespace opaq
