#ifndef OPAQ_INCLUDE_OPAQ_SOURCE_H_
#define OPAQ_INCLUDE_OPAQ_SOURCE_H_

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "ingest/live_dataset.h"
#include "io/async_run_reader.h"
#include "io/block_device.h"
#include "io/data_file.h"
#include "io/extent.h"
#include "io/file_backend.h"
#include "io/run_reader.h"
#include "io/striped_data_file.h"
#include "io/striped_run_source.h"
#include "net/remote_compute.h"
#include "net/remote_extent_source.h"
#include "net/remote_source.h"
#include "util/status.h"

namespace opaq {

/// The unified dataset handle of the public API: one type that stands for a
/// plain disk file, a striped multi-disk file, a compressed extent file, a
/// live dataset, a remote data node's shard, an arbitrary user-supplied
/// `RunProvider` backend, an in-memory vector, or a synthetic generator —
/// anything the sample phase can read as runs.
///
/// A `Source` is a cheap copyable value (a shared handle). The `From*`
/// factories *borrow* the underlying object — the caller keeps it alive for
/// the lifetime of every copy of the source; the `Open*`/`FromVector`/
/// `FromSpec` factories *own* everything they create (devices, files,
/// buffers), so the source is self-contained.
///
/// Every backend delivers the exact same logical run sequence over the same
/// logical data, so downstream sketches are byte-identical regardless of
/// which factory produced the source (enforced by
/// `tests/backend_conformance_test.cc`).
template <typename K>
class Source {
 public:
  /// A plain single-device data file, borrowed.
  static Source FromFile(const TypedDataFile<K>* file) {
    Source s;
    s.provider_ = std::make_shared<FileRunProvider<K>>(file);
    return s;
  }

  /// A striped multi-disk data file, borrowed.
  static Source FromFile(const StripedDataFile<K>* file) {
    Source s;
    s.provider_ = std::make_shared<StripedFileProvider<K>>(file);
    s.stripes_ = file->num_stripes();
    return s;
  }

  /// A compressed extent file (plain or striped — an `ExtentFile` covers
  /// both), borrowed. Decode rides the prefetch threads; the pack/unpack
  /// accounting surfaces through `Engine`'s stats.
  static Result<Source> FromFile(const ExtentFile* file) {
    OPAQ_CHECK(file != nullptr);
    OPAQ_RETURN_IF_ERROR(CheckExtentKeyType<K>(*file));
    Source s;
    s.provider_ = std::make_shared<ExtentFileProvider<K>>(file);
    s.stripes_ = file->num_stripes();
    s.extent_ = file;
    return s;
  }

  /// Any storage backend, borrowed — the extension point for custom
  /// backends (io_uring, networked block devices, ...): implement
  /// `RunProvider<K>` and every consumer of `Source` works unchanged.
  static Source FromProvider(const RunProvider<K>* provider) {
    OPAQ_CHECK(provider != nullptr);
    Source s;
    s.provider_ = std::shared_ptr<const RunProvider<K>>(
        provider, [](const RunProvider<K>*) {});
    return s;
  }

  /// An in-memory dataset; the source owns the vector.
  static Source FromVector(std::vector<K> data) {
    Source s;
    s.provider_ = std::make_shared<MemoryRunProvider<K>>(std::move(data));
    return s;
  }

  /// A synthetic dataset: generates `spec` deterministically (one spec + one
  /// seed => bit-identical data everywhere) and owns the result.
  static Source FromSpec(const DatasetSpec& spec) {
    return FromVector(GenerateDataset<K>(spec));
  }

  /// Opens the dataset stored at `paths`, sniffing the layout from the
  /// first file's magic: a plain data file ("OPAQDAT1", one path), the
  /// stripes of a striped file ("OPAQSTP1"), or a compressed extent file of
  /// one or more stripes ("OPAQEXT1"); one path naming a directory opens as
  /// a live dataset (`OpenLive`). Readers never need to be told how a
  /// dataset is stored. Files open read-only; the source owns every device
  /// and file handle.
  static Result<Source> Open(const std::vector<std::string>& paths) {
    std::error_code error;
    if (paths.size() == 1 && std::filesystem::is_directory(paths[0], error)) {
      return OpenLive(paths[0]);
    }
    OPAQ_ASSIGN_OR_RETURN(auto devices, OpenReadOnlyDevices(paths));
    OPAQ_ASSIGN_OR_RETURN(uint64_t magic, ReadMagic(devices[0].get()));
    OPAQ_ASSIGN_OR_RETURN(FileBackend<K> backend,
                          OpenFileBackend<K>(std::move(devices), magic));
    auto owned = std::make_shared<const FileBackend<K>>(std::move(backend));
    Source s;
    // Aliasing handle: shares ownership of the whole backend while pointing
    // at its provider.
    s.provider_ =
        std::shared_ptr<const RunProvider<K>>(owned, owned->provider.get());
    s.stripes_ = owned->stripes;
    s.extent_ = owned->extent.get();
    return s;
  }

  /// `Open({path})`: one file, or a live dataset directory.
  static Result<Source> Open(const std::string& path) {
    return Open(std::vector<std::string>{path});
  }

  /// Opens a read snapshot of the live (appendable) dataset directory at
  /// `dir` (see `ingest/live_dataset.h`): the source binds the segments
  /// whose manifest records were durable at open time and never sees later
  /// appends. `first_element > 0` restricts the source to the TAIL
  /// `[first_element, end)` — the unabsorbed delta an incremental
  /// refresher sketches and hands to `QuerySession::Absorb` (on a segment
  /// boundary, which whole-segment absorption always is, the tail's run
  /// grid matches sketching those segments alone, so the merge is
  /// byte-identical to a full rebuild). The source owns the snapshot.
  static Result<Source> OpenLive(const std::string& dir,
                                 uint64_t first_element = 0) {
    OPAQ_ASSIGN_OR_RETURN(LiveDatasetReader<K> reader,
                          LiveDatasetReader<K>::Open(dir));
    auto live =
        std::make_shared<const LiveDatasetReader<K>>(std::move(reader));
    Source s;
    s.provider_ = live;
    if (first_element > 0) {
      s.provider_ = std::make_shared<LiveTailProvider<K>>(live, first_element);
    }
    return s;
  }

  /// Connects to the dataset a remote data node (`opaq_noded` /
  /// `NodeServer`) serves as "host:port/dataset"; the source owns the
  /// client backend. Reading streams runs over TCP behind the same
  /// `RunProvider` seam as every local backend — under `IoMode::kAsync`
  /// with pipelined request-ahead — so engines, exact passes and parallel
  /// harnesses consume remote shards unchanged.
  ///
  /// With `options.node_compute` (the default) the source also carries a
  /// `RemoteComputeClient`, and engines / exact passes push the sample
  /// phase and §4 filter scan to the node instead of streaming raw runs —
  /// same results, O(s) instead of O(n) bytes on the wire. Without it the
  /// source streams every run.
  static Result<Source> OpenRemote(
      const std::string& spec,
      const NodeClientOptions& options = NodeClientOptions()) {
    OPAQ_ASSIGN_OR_RETURN(const RemoteSpec parsed, ParseRemoteSpec(spec));
    // One connection carries both opening requests.
    OPAQ_ASSIGN_OR_RETURN(
        NodeClient client,
        NodeClient::Connect(parsed.host, parsed.port, options));
    auto provider = RemoteRunProvider<K>::Connect(parsed, options, client);
    if (!provider.ok()) return provider.status();
    Source s;
    // Probe for an extent export: when the dataset is stored as compressed
    // extents, every stream from this source ships PACKED extents decoded
    // client-side (RemoteExtentProvider). A node answering Unimplemented
    // stores it uncompressed — range streaming.
    auto extents = RemoteExtentProvider<K>::Connect(parsed, options, client);
    if (extents.ok()) {
      s.provider_ = std::make_shared<RemoteExtentProvider<K>>(
          std::move(extents).value());
    } else if (extents.status().code() == StatusCode::kUnimplemented) {
      s.provider_ = std::make_shared<RemoteRunProvider<K>>(
          std::move(provider).value());
    } else {
      return extents.status();
    }
    if (options.node_compute) {
      s.compute_ = std::make_shared<const RemoteComputeClient<K>>(parsed,
                                                                  options);
    }
    return s;
  }

  /// Logical element count of the dataset.
  uint64_t size() const { return provider_->size(); }

  /// Stripe count of the underlying layout (1 for everything non-striped) —
  /// what `OpaqConfig::stripes` should be set to for this source.
  uint64_t stripes() const { return stripes_; }

  /// The backend-independent view every run consumer is written against.
  const RunProvider<K>& provider() const { return *provider_; }

  /// The compute handle of a remote source opened with
  /// `NodeClientOptions::node_compute`; nullptr for every local backend and
  /// for remote sources that stream. Consumers (Engine, QuerySession) push
  /// their sample phase and §4 scan through it when present, and a node's
  /// error on it surfaces as the `Status` it is.
  const RemoteComputeClient<K>* remote_compute() const {
    return compute_.get();
  }

  /// Opens a run stream over `[first, first + count)` (clamped to EOF) —
  /// the single factory that subsumed the old per-backend `MakeRunSource`
  /// overload set.
  std::unique_ptr<RunSource<K>> OpenRuns(const ReadOptions& options,
                                         uint64_t first = 0,
                                         uint64_t count = UINT64_MAX) const {
    return provider_->OpenRuns(options, first, count);
  }

  /// Pack/unpack accounting of a compressed backend; nullptr for
  /// uncompressed ones (see RunProvider::pack_stats).
  const ExtentStats* pack_stats() const { return provider_->pack_stats(); }

  /// The local extent file this source reads (opened or borrowed); nullptr
  /// for every other backend. A data node ships its stored extents
  /// verbatim (`MakeExport`).
  const ExtentFile* extent_file() const { return extent_; }

 private:
  std::shared_ptr<const RunProvider<K>> provider_;
  std::shared_ptr<const RemoteComputeClient<K>> compute_;
  uint64_t stripes_ = 1;
  const ExtentFile* extent_ = nullptr;
};

/// The key type of the dataset stored at `paths` — what untyped callers
/// (the daemons) pass to `VisitKeyType` before `Source<K>::Open(paths)`.
/// One path naming a directory reads its live manifest; otherwise the
/// first file's magic must be "OPAQDAT1", "OPAQSTP1" or "OPAQEXT1", and the
/// tag comes from the header that magic names. Only headers are read:
/// `Source<K>::Open` still validates everything.
inline Result<KeyType> ProbeKeyType(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return Status::InvalidArgument("a dataset needs at least one path");
  }
  std::error_code error;
  if (paths.size() == 1 && std::filesystem::is_directory(paths[0], error)) {
    OPAQ_ASSIGN_OR_RETURN(LiveManifestInfo info,
                          ReadLiveManifestInfo(paths[0]));
    return info.key_type;
  }
  OPAQ_ASSIGN_OR_RETURN(auto devices, OpenReadOnlyDevices({paths[0]}));
  auto tag = ReadKeyTypeTag(devices[0].get());
  if (!tag.ok()) {
    return Status(tag.status().code(),
                  paths[0] + ": " + tag.status().message());
  }
  return static_cast<KeyType>(*tag);
}

}  // namespace opaq

#endif  // OPAQ_INCLUDE_OPAQ_SOURCE_H_
