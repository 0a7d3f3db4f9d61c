#ifndef OPAQ_INGEST_LIVE_DATASET_H_
#define OPAQ_INGEST_LIVE_DATASET_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "io/block_device.h"
#include "io/codec.h"
#include "io/data_file.h"
#include "io/extent.h"
#include "io/file_backend.h"
#include "io/run_reader.h"
#include "util/status.h"

namespace opaq {

/// Live (appendable) datasets: the streaming-ingest counterpart of the
/// static data files every other backend reads.
///
/// A live dataset is a DIRECTORY: a `MANIFEST` file (64-byte header plus
/// fixed 32-byte CRC'd records, strictly appended) and one immutable
/// segment file per appended batch (`seg-000001.opaq`, ... — plain data
/// files, or extent-packed files when the writer compresses). The commit
/// protocol is write-ahead-of-manifest:
///
///   1. write + fsync the new segment file,
///   2. fsync the directory (the new name is durable),
///   3. append + fsync the segment's manifest record.
///
/// A segment EXISTS exactly when its manifest record is durable, so a
/// crashed writer can only leave (a) an orphan segment file no record
/// names — invisible to readers, truncated and rewritten by the next
/// append — or (b) a torn/garbage manifest tail, which `ReadLiveManifest`
/// cuts back to the longest valid record prefix. Truncate the manifest at
/// ANY byte length and what remains is a readable dataset prefix; that is
/// the crash-consistency contract `ingest_test` sweeps.
///
/// Reads snapshot: `LiveDatasetReader::Open` binds the record prefix it
/// found and never sees later appends — exactly the epoch semantics the
/// query daemon's refresh path wants. Run boundaries are PER SEGMENT
/// (each segment chunks into `run_size` runs independently, ragged tail
/// and all), which makes them append-stable: sketching segments 1..k then
/// merging a sketch of segments k+1..n via `SampleList::Merge` is
/// byte-identical to sketching 1..n in one pass — the invariant behind
/// `QuerySession::Absorb` and the ingest conformance rows.

/// Fixed 64-byte header at offset 0 of a live-dataset MANIFEST.
struct LiveManifestHeader {
  static constexpr uint64_t kMagic = 0x4f5041514c495631ULL;  // "OPAQLIV1"
  uint64_t magic = kMagic;
  uint32_t version = 1;
  uint32_t key_type = 0;
  uint32_t element_size = 0;
  uint32_t flags = 0;  // reserved, must be 0
  uint8_t reserved[40] = {};
};
static_assert(sizeof(LiveManifestHeader) == 64);
static_assert(std::is_trivially_copyable_v<LiveManifestHeader>);

/// One durable segment: a fixed 32-byte record appended to the MANIFEST
/// after the segment file is fsync'd. `total_elements` is cumulative
/// (redundant with the sum of counts — cheap corruption tripwire and what
/// an incremental refresher reads to size the unabsorbed tail). The CRC
/// covers the first 28 bytes, so a torn append never validates.
struct LiveManifestRecord {
  static constexpr uint32_t kFlagPacked = 1;  // segment is extent-packed

  uint64_t element_count = 0;   // elements in this segment (> 0)
  uint64_t total_elements = 0;  // cumulative, including this segment
  uint32_t sequence = 0;        // 1-based, dense
  uint32_t flags = 0;           // kFlagPacked only
  uint32_t reserved = 0;
  uint32_t crc = 0;             // CRC-32 (IEEE) of the 28 bytes above
};
static_assert(sizeof(LiveManifestRecord) == 32);
static_assert(std::is_trivially_copyable_v<LiveManifestRecord>);

/// CRC over everything before the `crc` field.
uint32_t LiveRecordCrc(const LiveManifestRecord& record);

/// Segment file name for 1-based `sequence`: "seg-000001.opaq".
std::string LiveSegmentFileName(uint32_t sequence);

/// True when `path` exists (any file type).
bool LivePathExists(const std::string& path);

/// True when `dir` holds a live-dataset MANIFEST.
bool LiveDatasetExists(const std::string& dir);

/// Creates `dir` if missing (parent must exist); EEXIST is success.
Status EnsureLiveDirectory(const std::string& dir);

/// fsyncs `dir` itself so freshly created names in it are durable.
Status SyncLiveDirectory(const std::string& dir);

/// The validated durable state of a manifest: header fields plus the
/// longest valid record prefix (scanning stops at the first torn,
/// CRC-failing, or inconsistent record; trailing bytes are ignored).
struct LiveManifestInfo {
  KeyType key_type = KeyType::kU64;
  uint32_t element_size = 0;
  std::vector<LiveManifestRecord> records;
  uint64_t total_elements = 0;  // == records.back().total_elements, or 0
};

/// Reads and validates a MANIFEST from `device`. Fails only when the
/// header itself is missing/foreign/corrupt — record-level damage is
/// recovered as a shorter prefix, never an error.
Result<LiveManifestInfo> ReadLiveManifest(BlockDevice* device);

/// Convenience: opens `dir`'s MANIFEST read-only and reads it. NotFound
/// when `dir` is not a live dataset. Untyped on purpose — the daemons use
/// it to learn the key type before dispatching to the typed reader.
Result<LiveManifestInfo> ReadLiveManifestInfo(const std::string& dir);

/// Writer handle options.
struct LiveDatasetOptions {
  /// Store segments as compressed extent files instead of plain data
  /// files. Readers take each segment's layout from its manifest record,
  /// so packed and plain segments mix freely in one dataset.
  bool pack = false;
  /// Codec and extent size for packed segments.
  ExtentCodec codec = ExtentCodec::kDelta;
  uint64_t extent_elements = 64u << 10;
  /// Issue the fsync barriers of the commit protocol. Leave on anywhere
  /// durability matters; benches measuring pure append rate may opt out.
  bool durable_sync = true;
};

/// Single-writer append handle. One `Append` call = one durable segment =
/// one (or more) sorted runs at sketch time. Readers are lock-free of the
/// writer — they bind the durable record prefix at open.
template <typename K>
class LiveDataset {
 public:
  LiveDataset(LiveDataset&&) = default;
  LiveDataset& operator=(LiveDataset&&) = default;

  /// Creates a fresh live dataset in `dir` (created if missing; parent
  /// must exist). AlreadyExists when a MANIFEST is already there.
  static Result<LiveDataset<K>> Create(
      const std::string& dir,
      const LiveDatasetOptions& options = LiveDatasetOptions()) {
    if (LiveDatasetExists(dir)) {
      return Status::AlreadyExists("live dataset already exists in " + dir);
    }
    OPAQ_RETURN_IF_ERROR(EnsureLiveDirectory(dir));
    auto manifest =
        FileBlockDevice::Make(dir + "/MANIFEST", FileBlockDevice::Mode::kCreate);
    if (!manifest.ok()) return manifest.status();
    LiveManifestHeader header;
    header.key_type = static_cast<uint32_t>(KeyTraits<K>::kType);
    header.element_size = sizeof(K);
    OPAQ_RETURN_IF_ERROR(
        (*manifest)->WriteAt(0, &header, sizeof(header)));
    if (options.durable_sync) {
      OPAQ_RETURN_IF_ERROR((*manifest)->Sync());
      OPAQ_RETURN_IF_ERROR(SyncLiveDirectory(dir));
    }
    return LiveDataset<K>(dir, options, std::move(*manifest), {}, 0);
  }

  /// Opens an existing live dataset for appending, recovering the durable
  /// record prefix (a crashed writer's torn tail is discarded and will be
  /// overwritten by the next append).
  static Result<LiveDataset<K>> Open(
      const std::string& dir,
      const LiveDatasetOptions& options = LiveDatasetOptions()) {
    auto manifest = FileBlockDevice::Make(dir + "/MANIFEST",
                                          FileBlockDevice::Mode::kReadWrite);
    if (!manifest.ok()) {
      return Status::NotFound("no live dataset in " + dir + ": " +
                              manifest.status().message());
    }
    auto info = ReadLiveManifest(manifest->get());
    if (!info.ok()) return info.status();
    OPAQ_RETURN_IF_ERROR(
        CheckKeyType<K>(info->key_type, "live dataset in " + dir));
    return LiveDataset<K>(dir, options, std::move(*manifest),
                          std::move(info->records), info->total_elements);
  }

  /// Open-if-present, Create-if-not.
  static Result<LiveDataset<K>> OpenOrCreate(
      const std::string& dir,
      const LiveDatasetOptions& options = LiveDatasetOptions()) {
    if (LiveDatasetExists(dir)) return Open(dir, options);
    return Create(dir, options);
  }

  /// Durably appends `values` as one new segment. On return (with
  /// durable_sync on) the segment is crash-safe: fsync'd file, fsync'd
  /// directory entry, fsync'd manifest record — in that order.
  Status Append(const std::vector<K>& values) {
    if (values.empty()) {
      return Status::InvalidArgument(
          "refusing to append an empty segment to a live dataset");
    }
    const uint32_t sequence = static_cast<uint32_t>(records_.size()) + 1;
    const std::string path = dir_ + "/" + LiveSegmentFileName(sequence);
    auto device = FileBlockDevice::Make(path, FileBlockDevice::Mode::kCreate);
    if (!device.ok()) return device.status();
    uint32_t flags = 0;
    if (options_.pack) {
      flags |= LiveManifestRecord::kFlagPacked;
      ExtentWriterOptions extent_options;
      extent_options.extent_elements = options_.extent_elements;
      extent_options.codec = options_.codec;
      auto writer = ExtentWriter::Create({device->get()}, KeyTraits<K>::kType,
                                         sizeof(K), extent_options);
      if (!writer.ok()) return writer.status();
      OPAQ_RETURN_IF_ERROR(writer->Append(values.data(), values.size()));
      OPAQ_RETURN_IF_ERROR(writer->Finish());
    } else {
      auto file =
          TypedDataFile<K>::Create(device->get(), /*element_count=*/0);
      if (!file.ok()) return file.status();
      OPAQ_RETURN_IF_ERROR(file->Append(values));
    }
    if (options_.durable_sync) {
      OPAQ_RETURN_IF_ERROR((*device)->Sync());
      OPAQ_RETURN_IF_ERROR(SyncLiveDirectory(dir_));
    }

    LiveManifestRecord record;
    record.element_count = values.size();
    record.total_elements = total_ + values.size();
    record.sequence = sequence;
    record.flags = flags;
    record.crc = LiveRecordCrc(record);
    const uint64_t offset = sizeof(LiveManifestHeader) +
                            static_cast<uint64_t>(records_.size()) *
                                sizeof(LiveManifestRecord);
    OPAQ_RETURN_IF_ERROR(manifest_->WriteAt(offset, &record, sizeof(record)));
    if (options_.durable_sync) {
      OPAQ_RETURN_IF_ERROR(manifest_->Sync());
    }
    records_.push_back(record);
    total_ = record.total_elements;
    return Status::OK();
  }

  uint64_t total_elements() const { return total_; }
  uint64_t num_segments() const { return records_.size(); }
  const std::string& dir() const { return dir_; }

 private:
  LiveDataset(std::string dir, LiveDatasetOptions options,
              std::unique_ptr<FileBlockDevice> manifest,
              std::vector<LiveManifestRecord> records, uint64_t total)
      : dir_(std::move(dir)),
        options_(options),
        manifest_(std::move(manifest)),
        records_(std::move(records)),
        total_(total) {}

  std::string dir_;
  LiveDatasetOptions options_;
  std::unique_ptr<FileBlockDevice> manifest_;
  std::vector<LiveManifestRecord> records_;
  uint64_t total_ = 0;
};

/// Streams runs across segment boundaries: each segment's sub-range is
/// served by that segment's own backend source, re-chunking at `run_size`
/// from the segment's (sub-range) start — the append-stable run grid.
/// Sticky: after any inner error every later NextRun returns it.
template <typename K>
class LiveRunSource : public RunSource<K> {
 public:
  struct Span {
    const RunProvider<K>* provider = nullptr;
    uint64_t first = 0;  // element offset within the segment
    uint64_t count = 0;
  };

  LiveRunSource(std::vector<Span> spans, const ReadOptions& options)
      : spans_(std::move(spans)), options_(options) {}

  Result<bool> NextRun(std::vector<K>* buffer) override {
    buffer->clear();
    if (!status_.ok()) return status_;
    while (true) {
      if (current_ == nullptr) {
        if (next_span_ == spans_.size()) return false;
        const Span& span = spans_[next_span_++];
        current_ = span.provider->OpenRuns(options_, span.first, span.count);
      }
      auto more = current_->NextRun(buffer);
      if (!more.ok()) {
        status_ = more.status();
        return status_;
      }
      if (*more) return true;
      current_.reset();  // segment exhausted; move to the next
    }
  }

 private:
  std::vector<Span> spans_;
  ReadOptions options_;
  size_t next_span_ = 0;
  std::unique_ptr<RunSource<K>> current_;
  Status status_;
};

/// Read snapshot of a live dataset: binds the durable record prefix found
/// at Open (later appends are invisible — readers and the writer never
/// share state) and serves it through the standard `RunProvider` seam, so
/// sketches, the §4 exact pass, the Engine and the daemons all consume
/// live data unchanged. Segment files open eagerly and are validated
/// against their manifest records, so damage surfaces here as a clean
/// `Status`, not mid-stream.
template <typename K>
class LiveDatasetReader : public RunProvider<K> {
 public:
  static Result<LiveDatasetReader<K>> Open(const std::string& dir) {
    OPAQ_ASSIGN_OR_RETURN(LiveManifestInfo info, ReadLiveManifestInfo(dir));
    OPAQ_RETURN_IF_ERROR(
        CheckKeyType<K>(info.key_type, "live dataset in " + dir));
    LiveDatasetReader<K> reader;
    uint64_t flat = 0;
    for (const LiveManifestRecord& record : info.records) {
      const std::string path = dir + "/" + LiveSegmentFileName(record.sequence);
      auto devices = OpenReadOnlyDevices({path});
      if (!devices.ok()) {
        return Status::IoError("live dataset segment " + path +
                               " named by a durable manifest record is "
                               "unreadable: " + devices.status().message());
      }
      // The manifest names each segment's layout; no magic read needed.
      const bool packed = (record.flags & LiveManifestRecord::kFlagPacked) != 0;
      Segment segment;
      segment.first = flat;
      segment.count = record.element_count;
      OPAQ_ASSIGN_OR_RETURN(
          segment.files,
          OpenFileBackend<K>(std::move(devices).value(),
                             packed ? ExtentFileHeader::kMagic
                                    : DataFileHeader::kMagic));
      const uint64_t stored = segment.files.provider->size();
      if (stored != record.element_count) {
        return Status::IoError(
            "live dataset segment " + path + " holds " +
            std::to_string(stored) + " elements but its manifest record "
            "promises " + std::to_string(record.element_count));
      }
      flat += record.element_count;
      reader.segments_.push_back(std::move(segment));
    }
    reader.total_ = flat;
    return reader;
  }

  LiveDatasetReader(LiveDatasetReader&&) = default;
  LiveDatasetReader& operator=(LiveDatasetReader&&) = default;

  uint64_t size() const override { return total_; }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    first = std::min(first, total_);
    count = std::min(count, total_ - first);
    const uint64_t end = first + count;
    std::vector<typename LiveRunSource<K>::Span> spans;
    for (const Segment& segment : segments_) {
      const uint64_t seg_end = segment.first + segment.count;
      if (seg_end <= first || segment.first >= end) continue;
      typename LiveRunSource<K>::Span span;
      span.provider = segment.files.provider.get();
      span.first = std::max(first, segment.first) - segment.first;
      span.count = std::min(end, seg_end) - (segment.first + span.first);
      spans.push_back(span);
    }
    return std::make_unique<LiveRunSource<K>>(std::move(spans), options);
  }

  /// Random-access read of `[first, first + count)` across segments (the
  /// node daemon's kReadRange path). OutOfRange past the end, like every
  /// `RunProvider::Read`.
  Status Read(uint64_t first, uint64_t count, K* out) const override {
    if (first > total_ || count > total_ - first) {
      return Status::OutOfRange("live dataset read past the end");
    }
    const uint64_t end = first + count;
    for (const Segment& segment : segments_) {
      const uint64_t seg_end = segment.first + segment.count;
      if (seg_end <= first || segment.first >= end) continue;
      const uint64_t begin = std::max(first, segment.first);
      OPAQ_RETURN_IF_ERROR(segment.files.provider->Read(
          begin - segment.first, std::min(end, seg_end) - begin,
          out + (begin - first)));
    }
    return Status::OK();
  }

  uint64_t num_segments() const { return segments_.size(); }

  std::vector<uint64_t> segment_sizes() const {
    std::vector<uint64_t> sizes;
    sizes.reserve(segments_.size());
    for (const Segment& segment : segments_) sizes.push_back(segment.count);
    return sizes;
  }

 private:
  LiveDatasetReader() = default;

  struct Segment {
    uint64_t first = 0;  // flat offset of this segment's first element
    uint64_t count = 0;
    FileBackend<K> files;
  };

  std::vector<Segment> segments_;
  uint64_t total_ = 0;
};

/// The tail `[first_element, end)` of a live snapshot as a provider of its
/// own — what an incremental refresher sketches to build the delta sample
/// list it `Absorb`s. When `first_element` sits on a segment boundary
/// (always true when whole segments are absorbed), the tail's run grid is
/// identical to sketching those segments alone — the byte-identity
/// precondition.
template <typename K>
class LiveTailProvider : public RunProvider<K> {
 public:
  LiveTailProvider(std::shared_ptr<const LiveDatasetReader<K>> reader,
                   uint64_t first_element)
      : reader_(std::move(reader)),
        first_(std::min(first_element, reader_->size())) {}

  uint64_t size() const override { return reader_->size() - first_; }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    first = std::min(first, size());
    count = std::min(count, size() - first);
    return reader_->OpenRuns(options, first_ + first, count);
  }

  Status Read(uint64_t first, uint64_t count, K* out) const override {
    if (first > size() || count > size() - first) {
      return Status::OutOfRange("live dataset tail read past the end");
    }
    return reader_->Read(first_ + first, count, out);
  }

  const LiveDatasetReader<K>& reader() const { return *reader_; }

 private:
  std::shared_ptr<const LiveDatasetReader<K>> reader_;
  uint64_t first_ = 0;
};

}  // namespace opaq

#endif  // OPAQ_INGEST_LIVE_DATASET_H_
