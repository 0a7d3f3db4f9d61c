#ifndef OPAQ_NET_REMOTE_SOURCE_H_
#define OPAQ_NET_REMOTE_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "io/chunk_pipeline.h"
#include "io/data_file.h"
#include "io/io_mode.h"
#include "io/run_reader.h"
#include "net/client.h"
#include "util/status.h"

namespace opaq {

/// The range-streaming lane of a remote source: chunk c is the slice
/// `[start, start + len)` fetched with one `kReadRange` request on the
/// lane's own connection. The lane keeps its own send cursor, so up to
/// `window` slice requests are in flight on the wire at once and network
/// latency and the node's own disk time overlap the consumer's sampling.
template <typename K>
class RemoteRangeLane : public ChunkLane<K> {
 public:
  RemoteRangeLane(NodeClient client, std::string dataset, uint64_t first,
                  uint64_t end, uint64_t slice, uint64_t window)
      : client_(std::move(client)), dataset_(std::move(dataset)),
        send_(first), end_(end), slice_(slice), window_(window) {}

  Status Produce(uint64_t /*c*/, uint64_t /*start*/, uint64_t len,
                 K* out) override {
    for (; outstanding_ < window_ && send_ < end_; ++outstanding_) {
      const uint64_t n = std::min(slice_, end_ - send_);
      OPAQ_RETURN_IF_ERROR(client_.SendReadRange(dataset_, send_, n));
      send_ += n;
    }
    --outstanding_;
    return client_.ReceiveRange(out, len * sizeof(K));
  }

  // Wakes the lane thread out of any blocked socket transfer.
  void Cancel() override { client_.ShutdownNow(); }

 private:
  NodeClient client_;
  std::string dataset_;
  uint64_t send_;  // first element of the next slice to request
  uint64_t end_;
  uint64_t slice_;
  uint64_t window_;
  uint64_t outstanding_ = 0;  // requests sent but not yet received
};

/// The lane factory of a remote stream: each lane dials its own connection
/// to the node at `spec` and is built as `LaneT(client, spec.dataset,
/// args...)`. A refused connection becomes the stream's first status.
template <typename K, typename LaneT, typename... Args>
typename ChunkPipeline<K>::LaneFactory RemoteLanes(
    const RemoteSpec& spec, const NodeClientOptions& options, Args... args) {
  return [=]() -> Result<std::unique_ptr<ChunkLane<K>>> {
    auto client = NodeClient::Connect(spec.host, spec.port, options);
    if (!client.ok()) return client.status();
    return std::unique_ptr<ChunkLane<K>>(std::make_unique<LaneT>(
        std::move(client).value(), spec.dataset, args...));
  };
}

/// Requests a remote lane keeps in flight on the wire: pipelined under
/// kAsync, strict request/response inline.
inline uint64_t RemoteWindow(const ReadOptions& options) {
  return options.io_mode == IoMode::kAsync ? options.prefetch_depth : 1;
}

/// A dataset served by a remote data node as a `RunProvider`: the network
/// storage backend. `Connect` performs the handshake (one round trip) and
/// validates the node's key type against `K`; every `OpenRuns` then dials
/// its OWN connection, so concurrent run streams — multi-shard engines,
/// an exact second pass racing a sketch — never share socket state and the
/// node serves each from its own thread.
///
/// A stream is a `ChunkPipeline` of slices of `min(node's
/// max_read_elements, run_size)` elements over one `RemoteRangeLane`: inline
/// request/response under `IoMode::kSync`, a pipelined lane thread under
/// `IoMode::kAsync`. Because it delivers the same logical element stream,
/// every downstream sketch is byte-identical to any local backend over the
/// same data (enforced by `backend_conformance_test`). A refused
/// connection, a node death, a truncated or corrupted frame, or an error
/// frame relaying the node's own disk failure is the stream's sticky
/// `Status`.
///
/// The dataset geometry is a snapshot from `Connect` time; like every
/// other provider, the provider describes one immutable logical dataset.
template <typename K>
class RemoteRunProvider : public RunProvider<K> {
 public:
  /// Connects per "host:port/dataset" spec text.
  static Result<RemoteRunProvider<K>> Connect(
      const std::string& spec_text,
      const NodeClientOptions& options = NodeClientOptions()) {
    auto spec = ParseRemoteSpec(spec_text);
    if (!spec.ok()) return spec.status();
    return Connect(*spec, options);
  }

  static Result<RemoteRunProvider<K>> Connect(
      const RemoteSpec& spec,
      const NodeClientOptions& options = NodeClientOptions()) {
    auto client = NodeClient::Connect(spec.host, spec.port, options);
    if (!client.ok()) return client.status();
    auto info = client->OpenDataset(spec.dataset);
    if (!info.ok()) return info.status();
    if (info->key_type != static_cast<uint32_t>(KeyTraits<K>::kType) ||
        info->element_size != sizeof(K)) {
      return Status::InvalidArgument(
          "remote dataset '" + spec.ToString() +
          "' holds a different key type than " + KeyTraits<K>::kName);
    }
    return RemoteRunProvider<K>(spec, *info, options);
  }

  uint64_t size() const override { return info_.element_count; }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    const uint64_t end = ClampedEnd(info_.element_count, first, count);
    ChunkGrid grid;
    grid.chunk = std::max<uint64_t>(
        1, std::min<uint64_t>(info_.max_read_elements, options.run_size));
    grid.origin_at_first = true;
    grid.lane_depth = options.prefetch_depth + 1;
    return std::make_unique<ChunkPipeline<K>>(
        info_.element_count, first, count, grid, options,
        RemoteLanes<K, RemoteRangeLane<K>>(spec_, client_options_, first, end,
                                           grid.chunk, RemoteWindow(options)));
  }

  const RemoteSpec& spec() const { return spec_; }
  const WireDatasetInfo& info() const { return info_; }

 private:
  RemoteRunProvider(RemoteSpec spec, WireDatasetInfo info,
                    NodeClientOptions client_options)
      : spec_(std::move(spec)), info_(info),
        client_options_(client_options) {}

  RemoteSpec spec_;
  WireDatasetInfo info_;
  NodeClientOptions client_options_;
};

}  // namespace opaq

#endif  // OPAQ_NET_REMOTE_SOURCE_H_
