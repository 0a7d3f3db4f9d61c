#ifndef OPAQ_NET_FRAME_IO_H_
#define OPAQ_NET_FRAME_IO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "util/status.h"

namespace opaq {

/// Frame transfer over a `TcpConnection` — the thin layer both the node
/// server and the client share. Every receive path validates the header and
/// checks the payload CRC before the caller sees a byte, so truncation and
/// corruption surface as IoError exactly at the frame boundary.

/// Sends one frame (header + payload) atomically from the caller's view:
/// one gather write of the header and the caller's payload, never copied.
Status SendFrame(TcpConnection& conn, WireOp op, const void* payload,
                 size_t len);

/// Reads the `header.payload_len` payload bytes that follow `header` into
/// `out` under one `kWireRecv` span, then checks them against the header's
/// CRC. Every receive path (client and server, copying and zero-copy) reads
/// payloads through this one call.
Status ReceivePayload(TcpConnection& conn, const WireFrameHeader& header,
                      void* out);

/// Receives the next frame, whatever its op (bounded by `kMaxWirePayload`).
Result<WireFrame> ReceiveFrame(TcpConnection& conn);

/// Receives the next frame and demands op `expected`, decoding a `kError`
/// frame into the `Status` it carries (the node's sticky-error channel) and
/// rejecting any other op as a protocol violation.
Result<WireFrame> ReceiveExpected(TcpConnection& conn, WireOp expected);

/// `ReceiveExpected` into a caller-kept `*buffer` and returns the payload
/// length. The buffer only grows, so a stream of frames allocates (and
/// zero-fills) only when a frame is longer than every one before it; bytes
/// past the returned length are left over from earlier frames.
Result<size_t> ReceiveExpectedInto(TcpConnection& conn, WireOp expected,
                                   std::vector<uint8_t>* buffer);

/// Zero-copy receive of a `kRangeData` frame directly into `out` (exactly
/// `expected_bytes` long). A `kError` frame decodes into its carried
/// `Status`; a length mismatch or any other op is a protocol violation.
Status ReceiveRangeData(TcpConnection& conn, void* out, size_t expected_bytes);

}  // namespace opaq

#endif  // OPAQ_NET_FRAME_IO_H_
