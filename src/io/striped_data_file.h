#ifndef OPAQ_IO_STRIPED_DATA_FILE_H_
#define OPAQ_IO_STRIPED_DATA_FILE_H_

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "io/block_device.h"
#include "io/data_file.h"
#include "io/io_mode.h"
#include "util/math.h"
#include "util/status.h"

namespace opaq {

/// Fixed 48-byte header at offset 0 of EVERY stripe of a striped data file.
///
/// A striped data file partitions one logical dataset round-robin across D
/// independent `BlockDevice`s in fixed-size chunks of `chunk_elements`
/// elements: logical chunk c lives on stripe c % D, at local chunk slot
/// c / D. Each stripe is self-describing — the header repeats the shared
/// geometry plus the stripe's own index — so opening validates both that
/// all stripes belong to the same dataset and that the caller passed them
/// in the right order.
struct StripeFileHeader {
  static constexpr uint64_t kMagic = 0x4f50415153545031ULL;  // "OPAQSTP1"
  uint64_t magic = kMagic;
  uint32_t version = 1;
  uint32_t key_type = 0;
  uint32_t element_size = 0;
  uint32_t num_stripes = 0;
  uint32_t stripe_index = 0;
  uint32_t reserved = 0;
  uint64_t chunk_elements = 0;
  uint64_t total_elements = 0;
};
static_assert(sizeof(StripeFileHeader) == 48);
static_assert(std::is_trivially_copyable_v<StripeFileHeader>);

/// A dataset striped round-robin across D block devices — the multi-disk
/// storage backend. Same role as `TypedDataFile<K>` (a typed, bounds-checked
/// view of `header | records` per stripe), but the record space is the
/// *logical* element index space: `Read`/`Write` scatter-gather across
/// stripes, and `StripedFileProvider` (striped_run_source.h) streams runs
/// with one reader thread per stripe.
///
/// Devices are borrowed and must outlive the file. All metadata updates
/// (element count) rewrite the header of every stripe so the set stays
/// mutually consistent.
template <typename K>
class StripedDataFile {
 public:
  /// Writes fresh stripe headers describing an (initially empty unless
  /// `element_count` > 0) dataset chunked every `chunk_elements` elements.
  static Result<StripedDataFile<K>> Create(std::vector<BlockDevice*> devices,
                                           uint64_t chunk_elements,
                                           uint64_t element_count = 0) {
    if (devices.empty() || devices.size() > kMaxStripes) {
      return Status::InvalidArgument(
          "striped file needs between 1 and " + std::to_string(kMaxStripes) +
          " stripe devices, got " + std::to_string(devices.size()));
    }
    if (chunk_elements == 0) {
      return Status::InvalidArgument("stripe chunk_elements must be positive");
    }
    for (BlockDevice* device : devices) {
      if (device == nullptr) {
        return Status::InvalidArgument("null stripe device");
      }
    }
    StripedDataFile<K> file(std::move(devices), chunk_elements, element_count);
    OPAQ_RETURN_IF_ERROR(file.RewriteHeaders());
    return file;
  }

  /// Opens an existing striped file, validating that every stripe carries a
  /// consistent header and sits at the position its header claims, and that
  /// no stripe is shorter than the geometry requires.
  static Result<StripedDataFile<K>> Open(std::vector<BlockDevice*> devices) {
    if (devices.empty() || devices.size() > kMaxStripes) {
      return Status::InvalidArgument(
          "striped file needs between 1 and " + std::to_string(kMaxStripes) +
          " stripe devices, got " + std::to_string(devices.size()));
    }
    StripeFileHeader first;
    for (size_t s = 0; s < devices.size(); ++s) {
      if (devices[s] == nullptr) {
        return Status::InvalidArgument("null stripe device");
      }
      StripeFileHeader header;
      OPAQ_RETURN_IF_ERROR(
          devices[s]->ReadAt(0, &header, sizeof(header)));
      if (header.magic != StripeFileHeader::kMagic) {
        return Status::InvalidArgument(
            "stripe " + std::to_string(s) +
            ": bad magic, not an OPAQ stripe file");
      }
      if (header.version != 1) {
        return Status::InvalidArgument(
            "stripe " + std::to_string(s) + ": unsupported version");
      }
      OPAQ_RETURN_IF_ERROR(
          CheckKeyType<K>(header.key_type, "stripe", header.element_size));
      if (header.num_stripes != devices.size()) {
        return Status::InvalidArgument(
            "stripe " + std::to_string(s) + " belongs to a " +
            std::to_string(header.num_stripes) + "-stripe set, but " +
            std::to_string(devices.size()) + " devices were supplied");
      }
      if (header.stripe_index != s) {
        return Status::InvalidArgument(
            "stripe devices out of order: position " + std::to_string(s) +
            " holds stripe " + std::to_string(header.stripe_index));
      }
      if (header.chunk_elements == 0) {
        return Status::InvalidArgument(
            "stripe " + std::to_string(s) + ": zero chunk size");
      }
      if (s == 0) {
        first = header;
      } else if (header.chunk_elements != first.chunk_elements ||
                 header.total_elements != first.total_elements) {
        return Status::InvalidArgument(
            "stripe " + std::to_string(s) +
            " disagrees with stripe 0 about the dataset geometry");
      }
    }
    StripedDataFile<K> file(std::move(devices), first.chunk_elements,
                            first.total_elements);
    // Guard against truncated stripes up front, mirroring DataFile::Open.
    for (uint32_t s = 0; s < file.num_stripes(); ++s) {
      auto size = file.devices_[s]->Size();
      if (!size.ok()) return size.status();
      const uint64_t needed =
          sizeof(StripeFileHeader) + file.StripeElements(s) * sizeof(K);
      if (*size < needed) {
        return Status::InvalidArgument(
            "stripe " + std::to_string(s) + " is shorter (" +
            std::to_string(*size) + " bytes) than its header promises (" +
            std::to_string(needed) + " bytes)");
      }
    }
    return file;
  }

  uint64_t size() const { return element_count_; }
  uint32_t num_stripes() const {
    return static_cast<uint32_t>(devices_.size());
  }
  uint64_t chunk_elements() const { return chunk_elements_; }
  uint64_t num_chunks() const { return DivCeil(element_count_, chunk_elements_); }
  BlockDevice* stripe_device(uint32_t s) const { return devices_[s]; }

  /// Number of elements in logical chunk `c` (only the last chunk of the
  /// dataset may be partial).
  uint64_t ChunkLength(uint64_t chunk) const {
    const uint64_t start = chunk * chunk_elements_;
    OPAQ_CHECK_LT(start, element_count_);
    return std::min(chunk_elements_, element_count_ - start);
  }

  /// Total elements resident on stripe `s`. Closed form (Open validates
  /// every stripe with this, so it must not walk the chunk list).
  uint64_t StripeElements(uint32_t s) const {
    const uint64_t chunks = num_chunks();
    if (s >= chunks) return 0;
    // Chunks owned by stripe s: s, s + D, ... below `chunks`.
    const uint64_t owned = (chunks - 1 - s) / num_stripes() + 1;
    uint64_t total = owned * chunk_elements_;
    // Only the dataset's final chunk may be partial; subtract its shortfall
    // if this stripe owns it.
    if ((chunks - 1) % num_stripes() == s) {
      total -= chunks * chunk_elements_ - element_count_;
    }
    return total;
  }

  /// Reads `count` logical elements starting at element `first` into `out`,
  /// gathering across stripes. Fails with OutOfRange past the end.
  Status Read(uint64_t first, uint64_t count, K* out) const {
    return Transfer<false>(first, count, out);
  }

  /// Writes `count` logical elements at element `first`, scattering across
  /// stripes. Does not grow the element count; use `Append` for that.
  Status Write(uint64_t first, uint64_t count, const K* in) {
    return Transfer<true>(first, count, const_cast<K*>(in));
  }

  /// Appends `values` after the current end and persists the new count in
  /// every stripe header.
  Status Append(const std::vector<K>& values) {
    const uint64_t first = element_count_;
    element_count_ += values.size();  // Transfer bounds-checks against this
    Status s = values.empty()
                   ? Status::OK()
                   : Transfer<true>(first, values.size(),
                                    const_cast<K*>(values.data()));
    if (!s.ok()) {
      element_count_ = first;
      return s;
    }
    return RewriteHeaders();
  }

  /// Reads the whole logical dataset (test/metrics helper, like
  /// `TypedDataFile::ReadAll`).
  Result<std::vector<K>> ReadAll() const {
    std::vector<K> out(element_count_);
    if (!out.empty()) {
      OPAQ_RETURN_IF_ERROR(Read(0, out.size(), out.data()));
    }
    return out;
  }

  std::string ToString() const {
    std::ostringstream os;
    os << "StripedDataFile(n=" << element_count_ << ", stripes="
       << num_stripes() << ", chunk=" << chunk_elements_ << ")";
    return os.str();
  }

 private:
  StripedDataFile(std::vector<BlockDevice*> devices, uint64_t chunk_elements,
                  uint64_t element_count)
      : devices_(std::move(devices)),
        chunk_elements_(chunk_elements),
        element_count_(element_count) {}

  /// Byte offset on chunk `c`'s stripe of the element `offset_in_chunk`
  /// positions into the chunk.
  uint64_t StripeByteOffset(uint64_t chunk, uint64_t offset_in_chunk) const {
    const uint64_t local_chunk = chunk / num_stripes();
    return sizeof(StripeFileHeader) +
           (local_chunk * chunk_elements_ + offset_in_chunk) * sizeof(K);
  }

  /// Shared scatter/gather loop: walks the chunks overlapping
  /// `[first, first + count)`, issuing one device request per chunk slice.
  template <bool kWrite>
  Status Transfer(uint64_t first, uint64_t count, K* buffer) const {
    if (first > element_count_ || count > element_count_ - first) {
      return Status::OutOfRange(
          "striped " + std::string(kWrite ? "write" : "read") + " of [" +
          std::to_string(first) + ", +" + std::to_string(count) +
          ") passes the end (" + std::to_string(element_count_) +
          " elements)");
    }
    uint64_t done = 0;
    while (done < count) {
      const uint64_t logical = first + done;
      const uint64_t chunk = logical / chunk_elements_;
      const uint64_t offset_in_chunk = logical % chunk_elements_;
      const uint64_t len = std::min(count - done,
                                    chunk_elements_ - offset_in_chunk);
      BlockDevice* device = devices_[chunk % num_stripes()];
      const uint64_t byte_offset = StripeByteOffset(chunk, offset_in_chunk);
      if constexpr (kWrite) {
        OPAQ_RETURN_IF_ERROR(
            device->WriteAt(byte_offset, buffer + done, len * sizeof(K)));
      } else {
        OPAQ_RETURN_IF_ERROR(
            device->ReadAt(byte_offset, buffer + done, len * sizeof(K)));
      }
      done += len;
    }
    return Status::OK();
  }

  Status RewriteHeaders() {
    for (uint32_t s = 0; s < num_stripes(); ++s) {
      StripeFileHeader header;
      header.key_type = static_cast<uint32_t>(KeyTraits<K>::kType);
      header.element_size = sizeof(K);
      header.num_stripes = num_stripes();
      header.stripe_index = s;
      header.chunk_elements = chunk_elements_;
      header.total_elements = element_count_;
      OPAQ_RETURN_IF_ERROR(
          devices_[s]->WriteAt(0, &header, sizeof(header)));
    }
    return Status::OK();
  }

  std::vector<BlockDevice*> devices_;
  uint64_t chunk_elements_ = 0;
  uint64_t element_count_ = 0;
};

/// Creates a striped file over `devices` and writes `values` into it in
/// bounded slices — the striped sibling of `WriteDataset`.
template <typename K>
Result<StripedDataFile<K>> WriteStriped(const std::vector<K>& values,
                                        std::vector<BlockDevice*> devices,
                                        uint64_t chunk_elements) {
  auto file = StripedDataFile<K>::Create(std::move(devices), chunk_elements,
                                         values.size());
  if (!file.ok()) return file.status();
  constexpr uint64_t kSlice = 1 << 20;
  for (uint64_t first = 0; first < values.size(); first += kSlice) {
    const uint64_t len = std::min<uint64_t>(kSlice, values.size() - first);
    OPAQ_RETURN_IF_ERROR(file->Write(first, len, values.data() + first));
  }
  return file;
}

}  // namespace opaq

#endif  // OPAQ_IO_STRIPED_DATA_FILE_H_
