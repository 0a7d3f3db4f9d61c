#ifndef OPAQ_NET_NODE_SERVER_H_
#define OPAQ_NET_NODE_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/data_file.h"
#include "io/extent.h"
#include "io/run_buffer_pool.h"
#include "io/striped_data_file.h"
#include "net/frame_server.h"
#include "net/node_compute.h"
#include "net/socket.h"
#include "net/wire.h"
#include "opaq/source.h"
#include "util/status.h"

namespace opaq {

struct NodeResponse;

/// One dataset a node exports, type-erased: the server only needs the
/// geometry plus a bounds-checked element reader — it never interprets the
/// elements, so a single node can serve any key type (and any storage
/// layout: plain files, striped arrays, custom devices) uniformly.
struct ExportedDataset {
  uint32_t key_type = 0;
  uint32_t element_size = 0;
  uint64_t element_count = 0;
  /// Reads `count` elements starting at `first` into `out` (already
  /// bounds-checked by the server against `element_count`).
  std::function<Status(uint64_t first, uint64_t count, void* out)> read;
  /// Compute hooks: run the paper's sample phase / §4 filter scan over this
  /// dataset's runs and return the complete response payload (see
  /// node_compute.h). Every `Export` overload binds them
  /// (`ProviderExport`); a hand-built export that leaves them empty gets
  /// Unimplemented for compute requests, which the client surfaces as the
  /// error it is. `max_run_bytes` is the server's `max_compute_run_bytes`
  /// bound.
  std::function<Result<std::vector<uint8_t>>(
      const WireSampleRunsRequest& request, uint64_t max_run_bytes)>
      sample_runs;
  /// `brackets` is positioned at the request's bracket bounds.
  std::function<Result<std::vector<uint8_t>>(
      const WireExactPassRequest& request, PayloadReader& brackets,
      uint64_t max_run_bytes)>
      exact_pass;
  /// Optional extent hooks, bound when the export is stored as
  /// compressed extents (io/extent.h): the geometry `kOpenExtents`
  /// discloses, the stored size of one logical extent, and a reader of its
  /// stored (packed) bytes into `out`, which holds that many — shipped
  /// verbatim, decoded client-side.
  /// `extent_elements == 0` means "not an extent export"; the node then
  /// answers `kOpenExtents` with Unimplemented and the client falls back
  /// to `kReadRange` streaming (extent exports keep a `read` hook too, so
  /// a client may still ask for decoded ranges).
  uint64_t extent_elements = 0;
  uint64_t num_extents = 0;
  uint16_t extent_codec = 0;
  std::function<uint64_t(uint64_t extent)> stored_extent_bytes;
  std::function<Status(uint64_t extent, void* out)> read_stored_extent;
  /// Optional ingest hooks, bound for live (appendable) dataset exports
  /// (`opaq_noded --live`). `append` durably commits `count` elements as
  /// one new segment and returns the dataset's new totals (the ack IS the
  /// commit receipt); empty means the export is static and the node
  /// answers `kAppend` with Unimplemented. `live_count` reports the
  /// current logical element count — live exports grow, so the static
  /// `element_count` snapshot above would go stale; when bound, it
  /// overrides `element_count` for `kOpenDataset`/`kReadRange` bounds.
  /// Both must be safe to call from concurrent connection threads (the
  /// live bundle in `opaq_noded` serializes internally).
  std::function<Result<WireAppendAck>(const uint8_t* elements,
                                      uint64_t count)>
      append;
  std::function<uint64_t()> live_count;
  /// Optional ownership hook: keeps backing objects (devices, files, the
  /// `Source` of a `MakeExport`) alive for as long as the export is
  /// served.
  std::shared_ptr<void> owner;
};

/// A typed export whose `read` and compute hooks (`sample_runs`,
/// `exact_pass` — the paper's sample phase and §4 filter scan, run
/// node-side) go through the `RunProvider<K>` that `current()` returns when
/// each request arrives: one fixed provider for a static export, the newest
/// snapshot for a live one. `current()` may return a raw or shared pointer.
template <typename K, typename Current>
ExportedDataset ProviderExport(Current current) {
  ExportedDataset dataset;
  dataset.key_type = static_cast<uint32_t>(KeyTraits<K>::kType);
  dataset.element_size = sizeof(K);
  dataset.element_count = current()->size();
  dataset.read = [current](uint64_t first, uint64_t count, void* out) {
    return current()->Read(first, count, static_cast<K*>(out));
  };
  dataset.sample_runs = [current](const WireSampleRunsRequest& request,
                                  uint64_t max_run_bytes) {
    return NodeSampleRuns<K>(*current(), request, max_run_bytes);
  };
  dataset.exact_pass = [current](const WireExactPassRequest& request,
                                 PayloadReader& brackets,
                                 uint64_t max_run_bytes) {
    return NodeExactPass<K>(*current(), request, brackets, max_run_bytes);
  };
  return dataset;
}

/// Binds `source` as a typed export over its provider (`ProviderExport`);
/// a source on a local extent file also gets the extent hooks, so
/// packed extents ship verbatim and the client decodes. The export keeps
/// the source (and whatever it owns) alive in `owner`.
template <typename K>
ExportedDataset MakeExport(Source<K> source) {
  auto owned = std::make_shared<Source<K>>(std::move(source));
  const RunProvider<K>* provider = &owned->provider();
  ExportedDataset dataset = ProviderExport<K>([provider] { return provider; });
  if (const ExtentFile* file = owned->extent_file()) {
    dataset.extent_elements = file->extent_elements();
    dataset.num_extents = file->num_extents();
    dataset.extent_codec = static_cast<uint16_t>(file->default_codec());
    dataset.stored_extent_bytes = [file](uint64_t extent) {
      return file->StoredExtentBytes(extent);
    };
    dataset.read_stored_extent = [file](uint64_t extent, void* out) {
      return file->ReadStoredExtent(extent, out);
    };
  }
  dataset.owner = std::move(owned);
  return dataset;
}

/// The transport options (bind address, port, response delay, metrics
/// registry) come from `FrameServerOptions`.
struct NodeServerOptions : FrameServerOptions {
  /// Per-request read bound: a `kReadRange` may ask for at most this many
  /// bytes of elements (at least one element is always readable, so tiny
  /// bounds degrade throughput, never availability). Bounds both the
  /// node's buffer and the client's pipelining grain (disclosed as
  /// `WireDatasetInfo::max_read_elements`). Must not exceed
  /// `kMaxWirePayload` — `Start` rejects configs whose responses could
  /// not be framed.
  uint64_t max_read_bytes = 4u << 20;
  /// Per-request bound on the node-side run buffer a `kSampleRuns` /
  /// `kExactPass` may ask for (`run_size * element_size`). Compute runs
  /// node-side, so this is a memory bound, not a frame bound — hence far
  /// above `max_read_bytes`.
  uint64_t max_compute_run_bytes = 256u << 20;
};

/// `opaq_noded`'s engine: serves exported datasets over the wire protocol
/// (range and extent streaming, and the compute ops) with
/// one thread per connection (the paper's workload is few long sequential
/// streams per node, not thousands of short ones). The transport half —
/// accept loop, frame validation, counters, ordered shutdown — lives in
/// `FrameServer`; this class is the dataset registry plus the per-op
/// handlers.
///
/// Lifecycle: construct, `Export` every dataset, `Start()`, eventually
/// `Stop()` (idempotent; the destructor calls it). Exports are frozen at
/// `Start` — the map is read concurrently by connection threads without
/// locking afterwards. Per-request failures (unknown dataset, out-of-range
/// or oversized reads, a dying disk) answer with an error frame and keep
/// the connection open; protocol violations (bad magic/version/CRC) answer
/// with an error frame and close, since the byte stream can no longer be
/// trusted.
class NodeServer : public FrameServer {
 public:
  explicit NodeServer(NodeServerOptions options = NodeServerOptions());
  ~NodeServer() override;

  /// Registers `dataset` under `name` (before `Start` only).
  void Export(const std::string& name, ExportedDataset dataset);

  /// Exports a typed plain data file, borrowed (caller keeps it alive).
  /// Typed exports are full compute nodes (see `MakeExport`).
  template <typename K>
  void Export(const std::string& name, const TypedDataFile<K>* file) {
    Export(name, MakeExport(Source<K>::FromFile(file)));
  }

  /// Exports a striped multi-disk data file, borrowed. The node gathers
  /// across stripes locally and serves one flat logical element space — a
  /// client cannot tell (and need not care) how a node lays its data out.
  template <typename K>
  void Export(const std::string& name, const StripedDataFile<K>* file) {
    Export(name, MakeExport(Source<K>::FromFile(file)));
  }

  /// Exports a compressed extent file of key type `K`, borrowed; it also
  /// answers `kReadExtents` with the stored extents.
  template <typename K>
  void Export(const std::string& name, const ExtentFile* file) {
    auto source = Source<K>::FromFile(file);
    OPAQ_CHECK(source.ok()) << source.status().ToString();
    Export(name, MakeExport(std::move(source).value()));
  }

 protected:
  Status ValidateStart() override;
  /// Sends `Answer`'s response or error frame; returns false when the
  /// connection must close (protocol violation or transport failure).
  bool HandleFrame(TcpConnection* conn, const WireFrame& frame) override;
  /// Base `net.*` counters plus `node.exports`.
  void PublishMetrics(MetricsRegistry* registry) override;

 private:
  /// Per-request `kReadExtents` bound for one extent export: as many
  /// extents as fit `max_read_bytes` at the worst-case stored size (header
  /// + unpacked payload — the no-expansion invariant's ceiling), never
  /// exceeding the frame cap, and at least one so tiny bounds degrade
  /// throughput, never availability (one extent always fits a frame:
  /// kMaxExtentBytes < kMaxWirePayload).
  uint64_t MaxExtentsPerRead(const ExportedDataset& dataset) const;

  /// The export named `name`, or NotFound.
  Result<const ExportedDataset*> Find(const std::string& name) const;

  /// The one per-op dispatch: fills `*response` with the response frame to
  /// `request`, or returns the error to answer it with. Element ranges and
  /// stored extents are read straight into the response's pooled read
  /// buffer, which the caller keeps across requests. `*close` is set when
  /// the request's framing (its fixed prefix or dataset name) does not fit
  /// the payload, or the op is unknown: the byte stream can no longer be
  /// trusted.
  Status Answer(const WireFrame& request, bool* close,
                NodeResponse* response) const;

  NodeServerOptions options_;
  std::map<std::string, ExportedDataset> exports_;
  /// The connections' READ_RANGE / READ_EXTENTS payload buffers: each
  /// connection takes one here and gives it back when it ends, so the next
  /// connection's fresh thread reuses it instead of allocating its own.
  /// The server's own pool, not the shared one, so a client in the same
  /// process never sees a closing connection's buffer in flight.
  RunBufferPool read_buffers_;
};

}  // namespace opaq

#endif  // OPAQ_NET_NODE_SERVER_H_
