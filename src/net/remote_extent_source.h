#ifndef OPAQ_NET_REMOTE_EXTENT_SOURCE_H_
#define OPAQ_NET_REMOTE_EXTENT_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/chunk_pipeline.h"
#include "io/data_file.h"
#include "io/extent.h"
#include "io/io_mode.h"
#include "io/run_reader.h"
#include "net/client.h"
#include "net/remote_source.h"
#include "util/math.h"
#include "util/status.h"

namespace opaq {

/// The extent-streaming lane of a remote source (wire v4): the node ships
/// each stored extent verbatim — packed payload, CRC and all — and this lane
/// validates and decodes it CLIENT-SIDE, so the wire carries the packed
/// byte count, not the logical one. Like `RemoteRangeLane` it keeps its own
/// send cursor, with up to `window` single-extent requests on the wire.
///
/// Every stored extent is validated with `DecodeStoredExtent` against the
/// geometry negotiated at open (`WireExtentInfo`), NEVER against the bytes
/// the node sent — a lying or corrupt extent header is a clean `Status`,
/// not an allocation bomb or a crash, even though the peer is the one
/// choosing the bytes.
template <typename K>
class RemoteExtentLane : public ChunkLane<K> {
 public:
  RemoteExtentLane(NodeClient client, std::string dataset,
                   const WireExtentInfo& info, uint64_t first_extent,
                   uint64_t end_extent, uint64_t window, bool verify_checksums,
                   std::shared_ptr<ExtentStats> stats)
      : client_(std::move(client)), dataset_(std::move(dataset)),
        info_(info), send_(first_extent), end_extent_(end_extent),
        window_(window), verify_checksums_(verify_checksums),
        stats_(std::move(stats)) {}

  Status Produce(uint64_t e, uint64_t start, uint64_t len, K* out) override {
    for (; outstanding_ < window_ && send_ < end_extent_; ++outstanding_) {
      OPAQ_RETURN_IF_ERROR(client_.SendReadExtents(dataset_, send_++, 1));
    }
    --outstanding_;
    auto stored = client_.ReceiveExtents();
    if (!stored.ok()) return stored.status();
    const uint64_t extent_start = e * info_.extent_elements;
    // Trusted geometry: only the last extent may be ragged.
    const uint64_t extent_len =
        std::min(info_.extent_elements, info_.element_count - extent_start);
    return DecodeExtentSlice(
        extent_start, extent_len, start, len, out, &extent_buf_,
        [&](K* dest) {
          return DecodeStoredExtent(stored->data(), stored->size(), e,
                                    extent_len * sizeof(K), sizeof(K),
                                    verify_checksums_, dest, stats_.get());
        });
  }

  // Wakes the lane thread out of any blocked socket transfer.
  void Cancel() override { client_.ShutdownNow(); }

 private:
  NodeClient client_;
  std::string dataset_;
  WireExtentInfo info_;
  uint64_t send_;  // next extent to request
  uint64_t end_extent_;
  uint64_t window_;
  bool verify_checksums_;
  std::shared_ptr<ExtentStats> stats_;
  uint64_t outstanding_ = 0;   // requests sent but not yet received
  std::vector<K> extent_buf_;  // a whole decoded extent, for clipped ones
};

/// A compressed remote dataset as a `RunProvider`: the wire-v4 network
/// storage backend. `Connect` fetches the extent geometry (`kOpenExtents`)
/// and validates the node's key type against `K`; a node that answers
/// Unimplemented is simply not serving extents for that dataset — the
/// caller (Source::OpenRemote) falls back to `RemoteRunProvider` range
/// streaming. Every `OpenRuns` dials its own connection, like the other
/// remote provider, and returns a `ChunkPipeline` with the extent as the
/// chunk over one `RemoteExtentLane` — so under `IoMode::kAsync` the CRC
/// check and codec work run on the lane thread, never the sampling thread.
/// The pack/unpack accounting of all its streams lands in one shared
/// `ExtentStats` surfaced through `pack_stats()`.
template <typename K>
class RemoteExtentProvider : public RunProvider<K> {
 public:
  static Result<RemoteExtentProvider<K>> Connect(
      const std::string& spec_text,
      const NodeClientOptions& options = NodeClientOptions()) {
    auto spec = ParseRemoteSpec(spec_text);
    if (!spec.ok()) return spec.status();
    return Connect(*spec, options);
  }

  static Result<RemoteExtentProvider<K>> Connect(
      const RemoteSpec& spec,
      const NodeClientOptions& options = NodeClientOptions()) {
    auto client = NodeClient::Connect(spec.host, spec.port, options);
    if (!client.ok()) return client.status();
    auto info = client->OpenExtents(spec.dataset);
    if (!info.ok()) return info.status();
    if (info->key_type != static_cast<uint32_t>(KeyTraits<K>::kType) ||
        info->element_size != sizeof(K)) {
      return Status::InvalidArgument(
          "remote dataset '" + spec.ToString() +
          "' holds a different key type than " + KeyTraits<K>::kName);
    }
    return RemoteExtentProvider<K>(spec, *info, options);
  }

  uint64_t size() const override { return info_.element_count; }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    const uint64_t end = ClampedEnd(info_.element_count, first, count);
    ChunkGrid grid;
    grid.chunk = info_.extent_elements;
    grid.lane_depth = options.prefetch_depth + 1;
    return std::make_unique<ChunkPipeline<K>>(
        info_.element_count, first, count, grid, options,
        RemoteLanes<K, RemoteExtentLane<K>>(
            spec_, client_options_, info_, first / grid.chunk,
            DivCeil(end, grid.chunk), RemoteWindow(options),
            options.verify_checksums, stats_));
  }

  const ExtentStats* pack_stats() const override { return stats_.get(); }

  const RemoteSpec& spec() const { return spec_; }
  const WireExtentInfo& info() const { return info_; }

 private:
  RemoteExtentProvider(RemoteSpec spec, WireExtentInfo info,
                       NodeClientOptions client_options)
      : spec_(std::move(spec)), info_(info),
        client_options_(client_options),
        stats_(std::make_shared<ExtentStats>()) {}

  RemoteSpec spec_;
  WireExtentInfo info_;
  NodeClientOptions client_options_;
  std::shared_ptr<ExtentStats> stats_;
};

}  // namespace opaq

#endif  // OPAQ_NET_REMOTE_EXTENT_SOURCE_H_
