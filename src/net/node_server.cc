#include "net/node_server.h"

#include <algorithm>

namespace opaq {

NodeServer::NodeServer(NodeServerOptions options)
    : FrameServer(options), options_(std::move(options)) {}

NodeServer::~NodeServer() {
  // Joined here, not in ~FrameServer: connection threads virtual-call
  // HandleFrame, which must still exist while they run.
  Stop();
}

void NodeServer::Export(const std::string& name, ExportedDataset dataset) {
  OPAQ_CHECK(!started()) << "Export after Start: the export map is frozen "
                            "once connection threads may read it";
  OPAQ_CHECK(!name.empty()) << "exported dataset needs a name";
  OPAQ_CHECK(dataset.read != nullptr);
  OPAQ_CHECK_GT(dataset.element_size, 0u);
  exports_[name] = std::move(dataset);
}

Status NodeServer::ValidateStart() {
  if (exports_.empty()) {
    return Status::FailedPrecondition(
        "a data node with nothing exported serves no purpose; call Export "
        "before Start");
  }
  if (options_.max_read_bytes == 0) {
    return Status::InvalidArgument("max_read_bytes must be positive");
  }
  if (options_.max_read_bytes > kMaxWirePayload) {
    return Status::InvalidArgument(
        "max_read_bytes of " + std::to_string(options_.max_read_bytes) +
        " exceeds the wire protocol's frame payload cap (" +
        std::to_string(kMaxWirePayload) + "); responses could not be framed");
  }
  if (options_.max_compute_run_bytes == 0) {
    return Status::InvalidArgument("max_compute_run_bytes must be positive");
  }
  return Status::OK();
}

void NodeServer::PublishMetrics(MetricsRegistry* registry) {
  FrameServer::PublishMetrics(registry);
  // Frozen at Start, so reading the map size without a lock is safe.
  registry->GetGauge("node.exports")
      ->Set(static_cast<int64_t>(exports_.size()));
}

uint64_t NodeServer::MaxExtentsPerRead(const ExportedDataset& dataset) const {
  const uint64_t worst = sizeof(ExtentHeader) +
                         dataset.extent_elements * dataset.element_size;
  const uint64_t cap =
      std::min<uint64_t>(options_.max_read_bytes, kMaxWirePayload);
  return std::max<uint64_t>(1, cap / worst);
}

Result<const ExportedDataset*> NodeServer::Find(
    const std::string& name) const {
  auto it = exports_.find(name);
  if (it == exports_.end()) {
    return Status::NotFound("node exports no dataset named '" + name + "'");
  }
  return &it->second;
}

/// One connection's response, kept across its requests. Element ranges and
/// stored extents (up to `max_read_bytes`) are read into `read`, a buffer
/// of the server's pool that goes back to it when the connection's thread
/// ends, so the next connection reuses it instead of growing a fresh
/// thread's malloc arena. The small encoded responses `Respond` moves in
/// stay in `encoded`, out of the pool.
struct NodeResponse {
  RunBufferPool* pool = nullptr;  ///< the serving NodeServer's read_buffers_
  uint16_t op = 0;
  std::vector<uint8_t> encoded;
  std::vector<uint8_t> read;
  bool in_read = false;  ///< the payload to send is `read`

  NodeResponse() = default;
  NodeResponse(const NodeResponse&) = delete;
  NodeResponse& operator=(const NodeResponse&) = delete;
  ~NodeResponse() {
    if (pool != nullptr) pool->Give(std::move(read));
  }

  const std::vector<uint8_t>& payload() const {
    return in_read ? read : encoded;
  }
};

bool NodeServer::HandleFrame(TcpConnection* conn, const WireFrame& frame) {
  // Each connection is served by its own thread, so this is one response
  // per connection, kept across its requests: a stream of READ_RANGE or
  // READ_EXTENTS reads into storage already sized by the one before, with
  // no allocation and no zero fill.
  thread_local NodeResponse response;
  response.pool = &read_buffers_;
  bool close = false;
  const Status answered = Answer(frame, &close, &response);
  if (!answered.ok()) return SendErrorCounted(conn, answered) && !close;
  const std::vector<uint8_t>& payload = response.payload();
  return SendCounted(conn, static_cast<WireOp>(response.op), payload.data(),
                     payload.size());
}

namespace {

Status Respond(NodeResponse* response, WireOp op,
               std::vector<uint8_t> payload) {
  response->op = static_cast<uint16_t>(op);
  response->encoded = std::move(payload);
  response->in_read = false;
  return Status::OK();
}

/// Sizes `response`'s read buffer as an `op` frame of `bytes` payload
/// bytes for the caller to read into. A buffer too small for them goes back
/// to the pool for one that fits; growing past the previous response's
/// size zero-fills only the growth.
uint8_t* RespondInPlace(NodeResponse* response, WireOp op, uint64_t bytes) {
  response->op = static_cast<uint16_t>(op);
  response->in_read = true;
  if (response->read.capacity() < bytes) {
    response->pool->Give(std::move(response->read));
    response->read = response->pool->Take<uint8_t>(bytes);
  }
  response->read.resize(bytes);
  return response->read.data();
}

Status NoComputeHooks(const std::string& name) {
  return Status::Unimplemented(
      "dataset '" + name +
      "' is exported without compute hooks; this node can only serve its "
      "raw ranges, not compute over it");
}

Status NotExtentExport(const std::string& name) {
  // Recoverable: the client falls back to kReadRange streaming.
  return Status::Unimplemented("dataset '" + name +
                               "' is not stored as compressed extents; "
                               "stream its ranges instead");
}

}  // namespace

Status NodeServer::Answer(const WireFrame& request, bool* close,
                          NodeResponse* response) const {
  PayloadReader in(request);
  // Until a case has read its fixed prefix and dataset name, a short
  // payload means the framing is off: answer, then close.
  *close = true;
  switch (static_cast<WireOp>(request.op)) {
    case WireOp::kPing:
      *close = false;
      return Respond(response, WireOp::kPong, {});

    case WireOp::kOpenDataset: {
      *close = false;
      OPAQ_ASSIGN_OR_RETURN(const ExportedDataset* dataset,
                            Find(in.RestAsString()));
      WireDatasetInfo info;
      info.key_type = dataset->key_type;
      info.element_size = dataset->element_size;
      // A live export grows; disclose its current count, not the Export-
      // time snapshot.
      info.element_count = dataset->live_count ? dataset->live_count()
                                               : dataset->element_count;
      info.max_read_elements = std::max<uint64_t>(
          1, options_.max_read_bytes / dataset->element_size);
      return Respond(response, WireOp::kDatasetInfo, EncodeRecordPayload(info));
    }

    case WireOp::kReadRange: {
      WireReadRange range;
      OPAQ_RETURN_IF_ERROR(in.Read(&range));
      *close = false;
      OPAQ_ASSIGN_OR_RETURN(const ExportedDataset* dataset,
                            Find(in.RestAsString()));
      if (range.count == 0) {
        return Status::InvalidArgument("READ_RANGE of zero elements");
      }
      // Enforce exactly the bound OpenDataset advertised (so a client
      // slicing at max_read_elements is never rejected), plus the frame
      // cap for exotic element sizes.
      const uint64_t max_elements = std::max<uint64_t>(
          1, options_.max_read_bytes / dataset->element_size);
      if (range.count > max_elements ||
          range.count > kMaxWirePayload / dataset->element_size) {
        return Status::InvalidArgument(
            "READ_RANGE of " + std::to_string(range.count) +
            " elements exceeds this node's per-request bound of " +
            std::to_string(max_elements) + " elements");
      }
      const uint64_t element_count = dataset->live_count
                                         ? dataset->live_count()
                                         : dataset->element_count;
      if (range.first > element_count ||
          range.count > element_count - range.first) {
        return Status::OutOfRange(
            "READ_RANGE [" + std::to_string(range.first) + ", +" +
            std::to_string(range.count) + ") passes the end (" +
            std::to_string(element_count) + " elements)");
      }
      uint8_t* data = RespondInPlace(response, WireOp::kRangeData,
                                     range.count * dataset->element_size);
      // A failing disk under the dataset leaves the connection fine.
      return dataset->read(range.first, range.count, data);
    }

    case WireOp::kSampleRuns: {
      WireSampleRunsRequest sample;
      OPAQ_RETURN_IF_ERROR(in.Read(&sample));
      *close = false;
      const std::string name = in.RestAsString();
      OPAQ_ASSIGN_OR_RETURN(const ExportedDataset* dataset, Find(name));
      if (!dataset->sample_runs) return NoComputeHooks(name);
      // A bad request or a failing disk; the connection itself is fine.
      OPAQ_ASSIGN_OR_RETURN(
          std::vector<uint8_t> payload,
          dataset->sample_runs(sample, options_.max_compute_run_bytes));
      return Respond(response, WireOp::kSampleListData, std::move(payload));
    }

    case WireOp::kExactPass: {
      WireExactPassRequest exact;
      OPAQ_RETURN_IF_ERROR(in.Read(&exact));
      std::string name;
      OPAQ_RETURN_IF_ERROR(in.ReadString(exact.name_len, &name));
      *close = false;
      OPAQ_ASSIGN_OR_RETURN(const ExportedDataset* dataset, Find(name));
      if (!dataset->exact_pass) return NoComputeHooks(name);
      OPAQ_ASSIGN_OR_RETURN(
          std::vector<uint8_t> payload,
          dataset->exact_pass(exact, in, options_.max_compute_run_bytes));
      return Respond(response, WireOp::kExactPassData, std::move(payload));
    }

    case WireOp::kOpenExtents: {
      *close = false;
      const std::string name = in.RestAsString();
      OPAQ_ASSIGN_OR_RETURN(const ExportedDataset* dataset, Find(name));
      if (dataset->extent_elements == 0) return NotExtentExport(name);
      WireExtentInfo info;
      info.key_type = dataset->key_type;
      info.element_size = dataset->element_size;
      info.element_count = dataset->element_count;
      info.extent_elements = dataset->extent_elements;
      info.num_extents = dataset->num_extents;
      info.max_extents_per_read = MaxExtentsPerRead(*dataset);
      info.default_codec = dataset->extent_codec;
      return Respond(response, WireOp::kExtentInfo, EncodeRecordPayload(info));
    }

    case WireOp::kReadExtents: {
      WireReadExtents range;
      OPAQ_RETURN_IF_ERROR(in.Read(&range));
      *close = false;
      const std::string name = in.RestAsString();
      OPAQ_ASSIGN_OR_RETURN(const ExportedDataset* dataset, Find(name));
      if (dataset->extent_elements == 0) return NotExtentExport(name);
      if (range.count == 0) {
        return Status::InvalidArgument("READ_EXTENTS of zero extents");
      }
      // Enforce exactly the bound kOpenExtents advertised, so a client
      // slicing at max_extents_per_read is never rejected.
      if (range.count > MaxExtentsPerRead(*dataset)) {
        return Status::InvalidArgument(
            "READ_EXTENTS of " + std::to_string(range.count) +
            " extents exceeds this node's per-request bound of " +
            std::to_string(MaxExtentsPerRead(*dataset)) + " extents");
      }
      if (range.first_extent > dataset->num_extents ||
          range.count > dataset->num_extents - range.first_extent) {
        return Status::OutOfRange(
            "READ_EXTENTS [" + std::to_string(range.first_extent) + ", +" +
            std::to_string(range.count) + ") passes the end (" +
            std::to_string(dataset->num_extents) + " extents)");
      }
      uint64_t bytes = 0;
      for (uint64_t e = 0; e < range.count; ++e) {
        bytes += dataset->stored_extent_bytes(range.first_extent + e);
      }
      uint8_t* data = RespondInPlace(response, WireOp::kExtentData, bytes);
      for (uint64_t e = 0; e < range.count; ++e) {
        const uint64_t extent = range.first_extent + e;
        OPAQ_RETURN_IF_ERROR(dataset->read_stored_extent(extent, data));
        data += dataset->stored_extent_bytes(extent);
      }
      return Status::OK();
    }

    case WireOp::kAppend: {
      WireAppendRequest append;
      OPAQ_RETURN_IF_ERROR(in.Read(&append));
      std::string name;
      OPAQ_RETURN_IF_ERROR(in.ReadString(append.name_len, &name));
      *close = false;
      if (append.flags != 0) {
        return Status::InvalidArgument(
            "APPEND carries reserved flags this node does not understand");
      }
      if (append.count == 0) {
        return Status::InvalidArgument("APPEND of zero elements");
      }
      OPAQ_ASSIGN_OR_RETURN(const ExportedDataset* dataset, Find(name));
      if (!dataset->append) {
        // Recoverable: static exports stay queryable on this connection.
        return Status::Unimplemented(
            "dataset '" + name +
            "' is a static export; only live datasets (--live) accept "
            "appends");
      }
      // Divide, don't multiply: a huge count must not wrap into a product
      // that happens to match the payload.
      const uint64_t element_size = dataset->element_size;
      if (append.count > kMaxWirePayload / element_size ||
          in.remaining() != append.count * element_size) {
        return Status::InvalidArgument(
            "APPEND carries " + std::to_string(in.remaining()) +
            " element bytes where " + std::to_string(append.count) +
            " elements of " + std::to_string(element_size) + " bytes need " +
            std::to_string(append.count * element_size));
      }
      const uint8_t* elements = nullptr;
      OPAQ_RETURN_IF_ERROR(in.ReadBytes(in.remaining(), &elements));
      // A failing disk under the dataset leaves the connection fine.
      OPAQ_ASSIGN_OR_RETURN(WireAppendAck ack,
                            dataset->append(elements, append.count));
      return Respond(response, WireOp::kAppendAck, EncodeRecordPayload(ack));
    }

    default:
      // Unknown op (the retired 8 and 9 included): the peer does not
      // speak this protocol; close.
      return Status::Unimplemented(std::string("node does not speak op ") +
                                   WireOpName(request.op) + " (" +
                                   std::to_string(request.op) + ")");
  }
}

}  // namespace opaq
