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
#include "io/run_reader.h"
#include "io/striped_data_file.h"
#include "io/striped_run_source.h"
#include "net/remote_compute.h"
#include "net/remote_extent_source.h"
#include "net/remote_source.h"
#include "util/status.h"

namespace opaq {

/// The unified dataset handle of the public API: one type that stands for a
/// plain disk file, a striped multi-disk file, an arbitrary user-supplied
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
    OPAQ_RETURN_IF_ERROR(CheckExtentKeyType(*file));
    Source s;
    s.provider_ = std::make_shared<ExtentFileProvider<K>>(file);
    s.stripes_ = file->num_stripes();
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

  /// Opens the data file at `path`, sniffing the on-disk format from its
  /// magic: plain data files ("OPAQDAT1") and compressed extent files
  /// ("OPAQEXT1") both open through here, so readers never need to be told
  /// whether a dataset is compressed. A directory is opened as a live
  /// dataset (`OpenLive`). The source owns the device and file handles.
  static Result<Source> Open(const std::string& path) {
    std::error_code error;
    if (std::filesystem::is_directory(path, error)) return OpenLive(path);
    auto owned = std::make_shared<OwnedBackend>();
    auto device = FileBlockDevice::Make(path, FileBlockDevice::Mode::kOpen);
    if (!device.ok()) return device.status();
    owned->devices.push_back(std::move(device).value());
    auto magic = SniffMagic(owned->devices.back().get());
    if (!magic.ok()) return magic.status();
    if (*magic == ExtentFileHeader::kMagic) {
      return OpenExtentOwned(std::move(owned));
    }
    auto file = TypedDataFile<K>::Open(owned->devices.back().get());
    if (!file.ok()) return file.status();
    owned->plain =
        std::make_unique<TypedDataFile<K>>(std::move(file).value());
    owned->provider =
        std::make_unique<FileRunProvider<K>>(owned->plain.get());
    return FromOwned(std::move(owned), 1);
  }

  /// Opens the striped data file whose stripes live at `stripe_paths` (one
  /// per disk, logical order); the source owns all devices and handles.
  /// Format-sniffing like `Open`: striped plain files ("OPAQSTP1") and
  /// striped extent files ("OPAQEXT1") both open through here.
  static Result<Source> OpenStriped(
      const std::vector<std::string>& stripe_paths) {
    if (stripe_paths.empty()) {
      return Status::InvalidArgument("OpenStriped needs at least one path");
    }
    auto owned = std::make_shared<OwnedBackend>();
    std::vector<BlockDevice*> raw;
    for (const std::string& path : stripe_paths) {
      auto device = FileBlockDevice::Make(path, FileBlockDevice::Mode::kOpen);
      if (!device.ok()) return device.status();
      owned->devices.push_back(std::move(device).value());
      raw.push_back(owned->devices.back().get());
    }
    auto magic = SniffMagic(owned->devices.front().get());
    if (!magic.ok()) return magic.status();
    if (*magic == ExtentFileHeader::kMagic) {
      return OpenExtentOwned(std::move(owned));
    }
    auto file = StripedDataFile<K>::Open(std::move(raw));
    if (!file.ok()) return file.status();
    owned->striped =
        std::make_unique<StripedDataFile<K>>(std::move(file).value());
    owned->provider =
        std::make_unique<StripedFileProvider<K>>(owned->striped.get());
    const uint64_t stripes = owned->striped->num_stripes();
    return FromOwned(std::move(owned), stripes);
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
    auto reader = LiveDatasetReader<K>::Open(dir);
    if (!reader.ok()) return reader.status();
    auto owned = std::make_shared<OwnedBackend>();
    owned->live = std::make_shared<const LiveDatasetReader<K>>(
        std::move(reader).value());
    if (first_element == 0) {
      const RunProvider<K>* provider = owned->live.get();
      return FromOwned(std::move(owned), 1, provider);
    }
    owned->provider =
        std::make_unique<LiveTailProvider<K>>(owned->live, first_element);
    return FromOwned(std::move(owned), 1);
  }

  /// Connects to the dataset a remote data node (`opaq_noded` /
  /// `NodeServer`) serves as "host:port/dataset"; the source owns the
  /// client backend. Reading streams runs over TCP behind the same
  /// `RunProvider` seam as every local backend — under `IoMode::kAsync`
  /// with pipelined request-ahead — so engines, exact passes and parallel
  /// harnesses consume remote shards unchanged.
  ///
  /// After the handshake the wire version is negotiated (one `kHello`
  /// round trip, skipped when `options.max_wire_version <= 1`): against a
  /// v2 node the source also carries a `RemoteComputeClient`, and engines /
  /// exact passes push the sample phase and §4 filter scan to the node
  /// instead of streaming raw runs — same results, O(s) instead of O(n)
  /// bytes on the wire. Against a v1 node (or when forced to v1) the
  /// source works exactly as before.
  static Result<Source> OpenRemote(
      const std::string& spec,
      const NodeClientOptions& options = NodeClientOptions()) {
    auto provider = RemoteRunProvider<K>::Connect(spec, options);
    if (!provider.ok()) return provider.status();
    auto negotiated = NegotiateWireVersion(provider->spec(), options);
    if (!negotiated.ok()) return negotiated.status();
    const RemoteSpec parsed = provider->spec();
    auto owned = std::make_shared<OwnedBackend>();
    // Against a v4 node, probe for an extent export: when the dataset is
    // stored as compressed extents, every stream from this source ships
    // PACKED extents decoded client-side (RemoteExtentProvider). A node
    // answering Unimplemented stores it uncompressed — range streaming as
    // always.
    if (*negotiated >= kExtentWireVersion) {
      auto extents = RemoteExtentProvider<K>::Connect(parsed, options);
      if (extents.ok()) {
        owned->provider = std::make_unique<RemoteExtentProvider<K>>(
            std::move(extents).value());
      } else if (extents.status().code() != StatusCode::kUnimplemented) {
        return extents.status();
      }
    }
    if (owned->provider == nullptr) {
      owned->provider = std::make_unique<RemoteRunProvider<K>>(
          std::move(provider).value());
    }
    Source s = FromOwned(std::move(owned), 1);
    if (*negotiated >= 2 && options.node_compute) {
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

  /// The v2 compute handle of a remote source whose node negotiated
  /// version >= 2; nullptr for every local backend and for remote sources
  /// speaking v1. Consumers (Engine, QuerySession) try this first and fall
  /// back to streaming `provider()` when the node answers Unimplemented
  /// for the dataset (e.g. an untyped export).
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

 private:
  /// Ownership closure for the `Open*` factories.
  struct OwnedBackend {
    std::vector<std::unique_ptr<FileBlockDevice>> devices;
    std::unique_ptr<TypedDataFile<K>> plain;
    std::unique_ptr<StripedDataFile<K>> striped;
    std::unique_ptr<ExtentFile> extent;
    std::shared_ptr<const LiveDatasetReader<K>> live;
    std::unique_ptr<RunProvider<K>> provider;
  };

  static Status CheckExtentKeyType(const ExtentFile& file) {
    if (file.key_type() != static_cast<uint32_t>(KeyTraits<K>::kType)) {
      return Status::InvalidArgument(
          std::string("extent file holds a different key type than ") +
          KeyTraits<K>::kName);
    }
    return Status::OK();
  }

  /// First 8 bytes of the device (0 when shorter) — enough to dispatch on
  /// every OPAQ on-disk magic; full validation happens in the format's own
  /// Open.
  static Result<uint64_t> SniffMagic(BlockDevice* device) {
    auto size = device->Size();
    if (!size.ok()) return size.status();
    uint64_t magic = 0;
    if (*size >= sizeof(magic)) {
      OPAQ_RETURN_IF_ERROR(device->ReadAt(0, &magic, sizeof(magic)));
    }
    return magic;
  }

  /// Finishes `Open`/`OpenStriped` for the extent format: the devices are
  /// already in `owned`, in stripe order.
  static Result<Source> OpenExtentOwned(std::shared_ptr<OwnedBackend> owned) {
    std::vector<BlockDevice*> raw;
    raw.reserve(owned->devices.size());
    for (auto& device : owned->devices) raw.push_back(device.get());
    auto file = ExtentFile::Open(std::move(raw));
    if (!file.ok()) return file.status();
    OPAQ_RETURN_IF_ERROR(CheckExtentKeyType(*file));
    owned->extent = std::make_unique<ExtentFile>(std::move(file).value());
    owned->provider =
        std::make_unique<ExtentFileProvider<K>>(owned->extent.get());
    const uint64_t stripes = owned->extent->num_stripes();
    return FromOwned(std::move(owned), stripes);
  }

  static Source FromOwned(std::shared_ptr<OwnedBackend> owned,
                          uint64_t stripes,
                          const RunProvider<K>* provider = nullptr) {
    Source s;
    // Aliasing handle: shares ownership of the whole backend closure while
    // pointing at its provider (or the caller's choice of provider inside
    // the closure, e.g. the live reader itself).
    if (provider == nullptr) provider = owned->provider.get();
    s.provider_ = std::shared_ptr<const RunProvider<K>>(owned, provider);
    s.stripes_ = stripes;
    return s;
  }

  std::shared_ptr<const RunProvider<K>> provider_;
  std::shared_ptr<const RemoteComputeClient<K>> compute_;
  uint64_t stripes_ = 1;
};

}  // namespace opaq

#endif  // OPAQ_INCLUDE_OPAQ_SOURCE_H_
