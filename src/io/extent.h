#ifndef OPAQ_IO_EXTENT_H_
#define OPAQ_IO_EXTENT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "io/block_device.h"
#include "io/chunk_pipeline.h"
#include "io/codec.h"
#include "io/data_file.h"
#include "io/extent_stats.h"
#include "io/io_mode.h"
#include "io/run_reader.h"
#include "util/status.h"

namespace opaq {

/// The compressed extent format: a dataset stored as fixed-size,
/// independently compressed, self-describing extents (the DataSeries idea),
/// optionally striped round-robin across D devices exactly like
/// `StripedDataFile` stripes chunks — logical extent e lives on stripe
/// e % D. Each stripe file is laid out as
///
///   ExtentFileHeader (64 bytes, offset 0)
///   extent: ExtentHeader (40 bytes) + packed payload   } repeated, in
///   extent: ExtentHeader + packed payload              } ascending local
///   ...                                                } order
///   directory: u64 byte offset of each local extent's header,
///              then CRC-32 of those offset bytes (4 bytes)
///
/// Every layer is independently verifiable: the file header pins the
/// geometry (validated across stripes on open), the directory pins where
/// every extent starts (CRC'd, bounds-checked on open — which also bounds
/// every later read, so a corrupt directory cannot become an allocation
/// bomb), and each extent header pins its own codec, lengths, logical index
/// and payload CRC (validated on every read). Because extents compress
/// independently, decode parallelizes per extent and rides the existing
/// prefetch threads — the sampling thread only ever touches decoded runs.

/// Fixed 64-byte header at offset 0 of EVERY stripe of an extent file.
struct ExtentFileHeader {
  static constexpr uint64_t kMagic = 0x4f50415145585431ULL;  // "OPAQEXT1"
  uint64_t magic = kMagic;
  uint32_t version = 1;
  uint32_t key_type = 0;
  uint32_t element_size = 0;
  uint32_t num_stripes = 0;
  uint32_t stripe_index = 0;
  uint32_t default_codec = 0;    // ExtentCodec the writer was configured with
  uint64_t extent_elements = 0;  // logical elements per full extent
  uint64_t total_elements = 0;   // whole dataset, across all stripes
  uint64_t num_extents = 0;      // global: ceil(total / extent_elements)
  uint64_t directory_offset = 0; // byte offset of THIS stripe's directory
};
static_assert(sizeof(ExtentFileHeader) == 64);
static_assert(std::is_trivially_copyable_v<ExtentFileHeader>);

/// Fixed 40-byte header in front of every stored extent payload. Fully
/// self-describing: a reader can validate codec, lengths, position and
/// payload integrity without consulting anything but trusted geometry.
struct ExtentHeader {
  static constexpr uint32_t kMagic = 0x54584f45u;  // "EOXT"
  uint32_t magic = kMagic;
  uint16_t version = 1;
  uint16_t codec = 0;        // ExtentCodec tag of THIS extent
  uint32_t payload_crc = 0;  // CRC-32 of the packed payload bytes
  uint32_t reserved = 0;
  uint64_t extent_index = 0; // global logical index (catches misdirected reads)
  uint64_t unpacked_len = 0; // payload bytes after decode
  uint64_t packed_len = 0;   // payload bytes stored on disk
};
static_assert(sizeof(ExtentHeader) == 40);
static_assert(std::is_trivially_copyable_v<ExtentHeader>);

/// Validates one stored extent (`len` bytes at `data`: ExtentHeader + packed
/// payload) and decodes its payload into `out` (exactly `expected_unpacked`
/// bytes). `expected_index` and `expected_unpacked` come from TRUSTED
/// geometry — the caller's directory or negotiated stream position — never
/// from the stored header, which is what turns a lying length field into a
/// clean error instead of an allocation bomb: nothing here allocates from
/// header-claimed sizes. `verify_crc` = false skips only the payload CRC
/// (ReadOptions::verify_checksums); structural validation always runs.
/// Records one unpack into `stats` on success (may be null). Shared by the
/// local extent readers and the remote client's extent stream decode.
Status DecodeStoredExtent(const uint8_t* data, size_t len,
                          uint64_t expected_index, uint64_t expected_unpacked,
                          uint32_t element_size, bool verify_crc, void* out,
                          ExtentStats* stats);

/// Writer knobs (the CLI's `--compress` / `--extent-size`).
struct ExtentWriterOptions {
  /// Logical elements per extent. The extent is the unit of compression,
  /// prefetch and wire streaming; 64Ki elements = 512 KiB of u64 unpacked.
  uint64_t extent_elements = 64u << 10;
  /// Codec to pack extents with. Per extent, the writer falls back to raw
  /// whenever the codec fails to shrink that extent, so stored payloads are
  /// never larger than unpacked ones (readers enforce this bound).
  ExtentCodec codec = ExtentCodec::kRaw;
};

/// Streams a dataset into an extent file (or the stripes of one — one
/// writer covers both, exactly like `StripedDataFile` vs `DataFile`).
/// Untyped so tools can write any key type without template dispatch; the
/// typed `WriteExtents<K>` below is what tests and benches use.
///
/// Lifecycle: Create (writes provisional headers), Append elements in any
/// batch sizes, Finish (flushes the ragged tail extent, writes the per-
/// stripe directories, then the final headers). An unfinished file fails
/// `ExtentFile::Open` — directory_offset stays 0 until Finish commits it.
class ExtentWriter {
 public:
  static Result<ExtentWriter> Create(std::vector<BlockDevice*> devices,
                                     KeyType key_type, uint32_t element_size,
                                     const ExtentWriterOptions& options);

  ExtentWriter(ExtentWriter&&) = default;
  ExtentWriter& operator=(ExtentWriter&&) = default;

  /// Appends `count` elements (buffered; full extents flush as they fill).
  Status Append(const void* data, uint64_t count);

  /// Flushes the tail extent and commits directories + final headers.
  Status Finish();

  /// Pack accounting so far (unpacked vs stored bytes, per-codec extents).
  ExtentStatsSnapshot stats() const { return stats_->Snapshot(); }

  uint64_t total_elements() const { return total_elements_; }

 private:
  ExtentWriter(std::vector<BlockDevice*> devices, KeyType key_type,
               uint32_t element_size, const ExtentWriterOptions& options);

  ExtentFileHeader MakeHeader(uint32_t stripe, bool finished) const;

  /// Packs and stores `payload_len` unpacked bytes as the next extent.
  Status FlushExtent(const uint8_t* payload, uint64_t payload_len);

  std::vector<BlockDevice*> devices_;
  KeyType key_type_;
  uint32_t element_size_;
  ExtentWriterOptions options_;
  uint64_t extent_bytes_ = 0;          // unpacked bytes of one full extent
  std::vector<uint64_t> write_offset_; // per stripe: next free byte
  std::vector<std::vector<uint64_t>> directory_;  // per stripe: local offsets
  std::vector<uint8_t> buffer_;        // pending unpacked tail (< one extent)
  std::vector<uint8_t> packed_;        // scratch for codec output
  uint64_t total_elements_ = 0;
  uint64_t next_extent_ = 0;
  bool finished_ = false;
  std::unique_ptr<ExtentStats> stats_;
};

/// A validated, opened extent file (all stripes): trusted geometry plus the
/// per-stripe directories. Read-only; devices are borrowed and must outlive
/// the file. Thread-safe after Open — readers only call const methods, and
/// the unpack counters are atomics — which is what lets one `ExtentFile`
/// feed a reader thread per stripe.
class ExtentFile {
 public:
  /// Opens and fully validates: every stripe header (magic, version,
  /// geometry consistency, order), every directory (CRC, monotonic offsets,
  /// per-extent size bounds against the no-expansion invariant, termination
  /// at the directory itself). After Open, every read is bounds-checked
  /// against this validated map.
  static Result<ExtentFile> Open(std::vector<BlockDevice*> devices);

  ExtentFile(ExtentFile&&) = default;
  ExtentFile& operator=(ExtentFile&&) = default;

  uint64_t size() const { return header_.total_elements; }
  uint32_t key_type() const { return header_.key_type; }
  uint32_t element_size() const { return header_.element_size; }
  uint32_t num_stripes() const {
    return static_cast<uint32_t>(devices_.size());
  }
  uint64_t extent_elements() const { return header_.extent_elements; }
  uint64_t num_extents() const { return header_.num_extents; }
  ExtentCodec default_codec() const {
    return static_cast<ExtentCodec>(header_.default_codec);
  }

  /// Elements of logical extent `e` (only the last extent may be ragged).
  uint64_t ExtentLength(uint64_t e) const {
    const uint64_t start = e * header_.extent_elements;
    OPAQ_CHECK_LT(start, header_.total_elements);
    return std::min(header_.extent_elements, header_.total_elements - start);
  }

  /// Bytes extent `e` occupies on disk (header + packed payload), from the
  /// validated directory.
  uint64_t StoredExtentBytes(uint64_t e) const;

  /// Reads extent `e` exactly as stored (ExtentHeader + packed payload) —
  /// what a data node ships over the wire without decoding.
  Status ReadStoredExtent(uint64_t e, std::vector<uint8_t>* out) const;

  /// Reads, validates and decodes extent `e` into `out` (ExtentLength(e) *
  /// element_size bytes). `scratch` is caller-owned reusable packed-byte
  /// storage so concurrent readers do not share buffers.
  Status DecodeExtent(uint64_t e, bool verify_checksums,
                      std::vector<uint8_t>* scratch, void* out) const;

  /// Random-access element read (bounds-checked): decodes the covering
  /// extents and copies out `[first, first + count)` — how a data node
  /// serves v1 `kReadRange` clients from an extent export. O(count +
  /// extent_elements) work per call; sequential consumers should stream
  /// through `ExtentFileProvider` instead.
  Status ReadElements(uint64_t first, uint64_t count, void* out) const;

  /// Cumulative unpack accounting across all readers of this file.
  const ExtentStats& stats() const { return *stats_; }

 private:
  ExtentFile(std::vector<BlockDevice*> devices, ExtentFileHeader header)
      : devices_(std::move(devices)), header_(header),
        stats_(std::make_unique<ExtentStats>()) {}

  std::vector<BlockDevice*> devices_;
  ExtentFileHeader header_;  // stripe 0's (stripe_index/directory_offset vary)
  std::vector<uint64_t> directory_end_;            // per stripe
  std::vector<std::vector<uint64_t>> directory_;   // per stripe local offsets
  std::unique_ptr<ExtentStats> stats_;
};

/// Writes `values` as an extent file over `devices` in bounded slices — the
/// extent sibling of `WriteDataset` / `WriteStriped`. Returns the writer's
/// pack accounting.
template <typename K>
Result<ExtentStatsSnapshot> WriteExtents(const std::vector<K>& values,
                                         std::vector<BlockDevice*> devices,
                                         const ExtentWriterOptions& options) {
  auto writer = ExtentWriter::Create(std::move(devices), KeyTraits<K>::kType,
                                     sizeof(K), options);
  if (!writer.ok()) return writer.status();
  constexpr uint64_t kSlice = 1 << 20;
  for (uint64_t first = 0; first < values.size(); first += kSlice) {
    const uint64_t len = std::min<uint64_t>(kSlice, values.size() - first);
    OPAQ_RETURN_IF_ERROR(writer->Append(values.data() + first, len));
  }
  OPAQ_RETURN_IF_ERROR(writer->Finish());
  return writer->stats();
}

/// Decodes the part `[start, start + len)` of the extent that covers
/// `[extent_start, extent_start + extent_len)` into `out`. `decode` writes
/// the whole extent to its argument: straight into `out` when the whole
/// extent is wanted, else into the caller's reusable `extent_buf`.
template <typename K, typename Decode>
Status DecodeExtentSlice(uint64_t extent_start, uint64_t extent_len,
                         uint64_t start, uint64_t len, K* out,
                         std::vector<K>* extent_buf, const Decode& decode) {
  if (start == extent_start && len == extent_len) return decode(out);
  extent_buf->resize(extent_len);
  OPAQ_RETURN_IF_ERROR(decode(extent_buf->data()));
  std::copy_n(extent_buf->begin() + static_cast<size_t>(start - extent_start),
              static_cast<size_t>(len), out);
  return Status::OK();
}

/// The extent backend's lane: reads, validates and decodes extent `e`, so
/// under `IoMode::kAsync` the payload CRC check and the codec work both run
/// on the stripe's lane thread, off the sampling thread.
template <typename K>
class ExtentDecodeLane : public ChunkLane<K> {
 public:
  ExtentDecodeLane(const ExtentFile* file, bool verify_checksums)
      : file_(file), verify_checksums_(verify_checksums) {}

  Status Produce(uint64_t e, uint64_t start, uint64_t len, K* out) override {
    return DecodeExtentSlice(
        e * file_->extent_elements(), file_->ExtentLength(e), start, len, out,
        &extent_buf_, [&](K* dest) {
          return file_->DecodeExtent(e, verify_checksums_, &scratch_, dest);
        });
  }

 private:
  const ExtentFile* file_;
  bool verify_checksums_;
  std::vector<uint8_t> scratch_;  // packed bytes
  std::vector<K> extent_buf_;     // a whole decoded extent, for clipped ones
};

/// The compressed storage backend as a `RunProvider`: a `ChunkPipeline`
/// with the extent as the chunk and one lane per stripe — under
/// `IoMode::kAsync` one read+decode thread per stripe, under `IoMode::kSync`
/// inline decode. Like every other backend it delivers the exact logical
/// run order, so sketches are byte-identical to the uncompressed backends —
/// that is the conformance contract compression must not bend.
template <typename K>
class ExtentFileProvider : public RunProvider<K> {
 public:
  explicit ExtentFileProvider(const ExtentFile* file) : file_(file) {
    OPAQ_CHECK(file != nullptr);
    // Key-type mismatches are caught with a clean Status by the facade
    // (Source::Open) before a provider is ever constructed.
    OPAQ_CHECK_EQ(static_cast<uint32_t>(KeyTraits<K>::kType),
                  file->key_type());
    OPAQ_CHECK_EQ(sizeof(K), file->element_size());
  }

  uint64_t size() const override { return file_->size(); }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    ChunkGrid grid;
    grid.chunk = file_->extent_elements();
    grid.lanes = file_->num_stripes();
    grid.lane_depth = options.prefetch_depth + 1;
    return std::make_unique<ChunkPipeline<K>>(
        file_->size(), first, count, grid, options,
        LanesOf<K, ExtentDecodeLane<K>>(file_, options.verify_checksums));
  }

  const ExtentStats* pack_stats() const override { return &file_->stats(); }

  const ExtentFile* file() const { return file_; }

 private:
  const ExtentFile* file_;
};

}  // namespace opaq

#endif  // OPAQ_IO_EXTENT_H_
