#include "io/extent.h"

#include <cstring>

#include "telemetry/trace.h"
#include "util/crc32.h"
#include "util/math.h"

namespace opaq {
namespace {

/// Local extents of stripe `s` in a `num_extents`-extent, `stripes`-stripe
/// file: the extents e ≡ s (mod stripes) below num_extents.
uint64_t LocalExtents(uint64_t num_extents, uint32_t stripes, uint32_t s) {
  if (num_extents <= s) return 0;
  return (num_extents - 1 - s) / stripes + 1;
}

Status ValidateGeometry(uint32_t element_size, uint64_t extent_elements) {
  if (element_size == 0 || element_size > 16) {
    return Status::InvalidArgument("extent element size " +
                                   std::to_string(element_size) +
                                   " out of range [1, 16]");
  }
  if (extent_elements == 0 ||
      extent_elements > kMaxExtentBytes / element_size) {
    return Status::InvalidArgument(
        "extent size " + std::to_string(extent_elements) +
        " elements out of range [1, " +
        std::to_string(kMaxExtentBytes / element_size) + "] for " +
        std::to_string(element_size) + "-byte elements");
  }
  return Status::OK();
}

}  // namespace

// --------------------------------------------------------- decode ----

Status DecodeStoredExtent(const uint8_t* data, size_t len,
                          uint64_t expected_index, uint64_t expected_unpacked,
                          uint32_t element_size, bool verify_crc, void* out,
                          ExtentStats* stats) {
  TraceSpan decode_span(TraceStage::kExtentDecode);
  if (len < sizeof(ExtentHeader)) {
    return Status::IoError("truncated extent header: " + std::to_string(len) +
                           " of " + std::to_string(sizeof(ExtentHeader)) +
                           " bytes");
  }
  ExtentHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (header.magic != ExtentHeader::kMagic) {
    return Status::InvalidArgument("bad extent magic (not an OPAQ extent)");
  }
  if (header.version != 1) {
    return Status::InvalidArgument("unsupported extent version " +
                                   std::to_string(header.version));
  }
  const Codec* codec = GetCodec(static_cast<ExtentCodec>(header.codec));
  if (codec == nullptr) {
    return Status::InvalidArgument("unknown extent codec tag " +
                                   std::to_string(header.codec));
  }
  if (header.extent_index != expected_index) {
    return Status::IoError("extent " + std::to_string(header.extent_index) +
                           " stored where extent " +
                           std::to_string(expected_index) + " was expected");
  }
  // The allocation-bomb guard: the expected unpacked size comes from trusted
  // geometry, so a header claiming anything else is rejected HERE — before
  // any buffer is sized from it.
  if (header.unpacked_len != expected_unpacked) {
    return Status::IoError(
        "extent claims " + std::to_string(header.unpacked_len) +
        " unpacked bytes where geometry expects " +
        std::to_string(expected_unpacked));
  }
  if (header.packed_len != len - sizeof(ExtentHeader)) {
    return Status::IoError(
        "extent payload truncated or padded: header promises " +
        std::to_string(header.packed_len) + " packed bytes, " +
        std::to_string(len - sizeof(ExtentHeader)) + " present");
  }
  // Writers fall back to raw per extent, so stored payloads never exceed
  // unpacked ones; anything else is corruption.
  if (header.packed_len > header.unpacked_len) {
    return Status::IoError("extent packed payload (" +
                           std::to_string(header.packed_len) +
                           " bytes) larger than its unpacked size (" +
                           std::to_string(header.unpacked_len) + " bytes)");
  }
  const uint8_t* payload = data + sizeof(ExtentHeader);
  if (verify_crc) {
    const uint32_t crc = Crc32(payload, header.packed_len);
    if (crc != header.payload_crc) {
      return Status::IoError("extent payload CRC mismatch");
    }
  }
  OPAQ_RETURN_IF_ERROR(codec->Decompress(
      payload, header.packed_len, element_size, static_cast<uint8_t*>(out),
      expected_unpacked));
  if (stats != nullptr) {
    stats->Record(static_cast<ExtentCodec>(header.codec), expected_unpacked,
                  len);
  }
  return Status::OK();
}

// --------------------------------------------------------- writer ----

ExtentWriter::ExtentWriter(std::vector<BlockDevice*> devices,
                           KeyType key_type, uint32_t element_size,
                           const ExtentWriterOptions& options)
    : devices_(std::move(devices)), key_type_(key_type),
      element_size_(element_size), options_(options),
      extent_bytes_(options.extent_elements * element_size),
      write_offset_(devices_.size(), sizeof(ExtentFileHeader)),
      directory_(devices_.size()),
      stats_(std::make_unique<ExtentStats>()) {}

Result<ExtentWriter> ExtentWriter::Create(std::vector<BlockDevice*> devices,
                                          KeyType key_type,
                                          uint32_t element_size,
                                          const ExtentWriterOptions& options) {
  if (devices.empty() || devices.size() > kMaxStripes) {
    return Status::InvalidArgument(
        "extent file needs between 1 and " + std::to_string(kMaxStripes) +
        " stripe devices, got " + std::to_string(devices.size()));
  }
  for (BlockDevice* device : devices) {
    if (device == nullptr) {
      return Status::InvalidArgument("null extent stripe device");
    }
  }
  OPAQ_RETURN_IF_ERROR(ValidateGeometry(element_size,
                                        options.extent_elements));
  const Codec* codec = GetCodec(options.codec);
  if (codec == nullptr) {
    return Status::InvalidArgument("unknown extent codec tag " +
                                   std::to_string(
                                       static_cast<uint16_t>(options.codec)));
  }
  if (!CodecAvailable(options.codec)) {
    return Status::Unimplemented(std::string("codec '") + codec->name() +
                                 "' not available in this build");
  }
  if (options.codec == ExtentCodec::kDelta && element_size != 4 &&
      element_size != 8) {
    return Status::InvalidArgument(
        "delta codec supports 4- and 8-byte elements, got " +
        std::to_string(element_size));
  }
  ExtentWriter writer(std::move(devices), key_type, element_size, options);
  // Provisional headers: directory_offset stays 0 until Finish commits, so
  // a half-written file fails Open loudly instead of reading as empty.
  for (uint32_t s = 0; s < writer.devices_.size(); ++s) {
    ExtentFileHeader header = writer.MakeHeader(s, /*finished=*/false);
    OPAQ_RETURN_IF_ERROR(
        writer.devices_[s]->WriteAt(0, &header, sizeof(header)));
  }
  return writer;
}

ExtentFileHeader ExtentWriter::MakeHeader(uint32_t stripe,
                                          bool finished) const {
  ExtentFileHeader header;
  header.key_type = static_cast<uint32_t>(key_type_);
  header.element_size = element_size_;
  header.num_stripes = static_cast<uint32_t>(devices_.size());
  header.stripe_index = stripe;
  header.default_codec = static_cast<uint32_t>(options_.codec);
  header.extent_elements = options_.extent_elements;
  header.total_elements = total_elements_;
  header.num_extents = next_extent_;
  header.directory_offset = finished ? write_offset_[stripe] : 0;
  return header;
}

Status ExtentWriter::Append(const void* data, uint64_t count) {
  if (finished_) {
    return Status::FailedPrecondition("extent writer already finished");
  }
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t len = count * element_size_;
  total_elements_ += count;
  // Top the pending tail up to a full extent first, then flush whole
  // extents straight from the caller's buffer (copying only ragged edges).
  if (!buffer_.empty()) {
    const uint64_t take = std::min(extent_bytes_ - buffer_.size(),
                                   static_cast<uint64_t>(len));
    buffer_.insert(buffer_.end(), bytes, bytes + take);
    bytes += take;
    len -= take;
    if (buffer_.size() == extent_bytes_) {
      OPAQ_RETURN_IF_ERROR(FlushExtent(buffer_.data(), extent_bytes_));
      buffer_.clear();
    }
  }
  while (len >= extent_bytes_) {
    OPAQ_RETURN_IF_ERROR(FlushExtent(bytes, extent_bytes_));
    bytes += extent_bytes_;
    len -= extent_bytes_;
  }
  buffer_.insert(buffer_.end(), bytes, bytes + len);
  return Status::OK();
}

Status ExtentWriter::FlushExtent(const uint8_t* payload,
                                 uint64_t payload_len) {
  const uint64_t e = next_extent_++;
  const uint32_t s = static_cast<uint32_t>(e % devices_.size());
  const uint8_t* stored = payload;
  uint64_t stored_len = payload_len;
  ExtentCodec used = ExtentCodec::kRaw;
  if (options_.codec != ExtentCodec::kRaw) {
    OPAQ_RETURN_IF_ERROR(GetCodec(options_.codec)
                             ->Compress(payload, payload_len, element_size_,
                                        &packed_));
    // Per-extent codec choice: store raw whenever the codec failed to shrink
    // this extent, so packed payloads never exceed unpacked ones (readers
    // enforce that bound).
    if (packed_.size() < payload_len) {
      stored = packed_.data();
      stored_len = packed_.size();
      used = options_.codec;
    }
  }
  ExtentHeader header;
  header.codec = static_cast<uint16_t>(used);
  header.payload_crc = Crc32(stored, stored_len);
  header.extent_index = e;
  header.unpacked_len = payload_len;
  header.packed_len = stored_len;
  const uint64_t at = write_offset_[s];
  OPAQ_RETURN_IF_ERROR(devices_[s]->WriteAt(at, &header, sizeof(header)));
  OPAQ_RETURN_IF_ERROR(
      devices_[s]->WriteAt(at + sizeof(header), stored, stored_len));
  directory_[s].push_back(at);
  write_offset_[s] = at + sizeof(header) + stored_len;
  stats_->Record(used, payload_len, sizeof(header) + stored_len);
  return Status::OK();
}

Status ExtentWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("extent writer already finished");
  }
  if (!buffer_.empty()) {
    OPAQ_RETURN_IF_ERROR(FlushExtent(buffer_.data(), buffer_.size()));
    buffer_.clear();
  }
  finished_ = true;
  for (uint32_t s = 0; s < devices_.size(); ++s) {
    // Directory: every local extent's byte offset, then a CRC over them.
    const std::vector<uint64_t>& offsets = directory_[s];
    const size_t offset_bytes = offsets.size() * sizeof(uint64_t);
    const uint32_t crc = Crc32(offsets.data(), offset_bytes);
    const uint64_t at = write_offset_[s];
    if (offset_bytes != 0) {
      OPAQ_RETURN_IF_ERROR(
          devices_[s]->WriteAt(at, offsets.data(), offset_bytes));
    }
    OPAQ_RETURN_IF_ERROR(
        devices_[s]->WriteAt(at + offset_bytes, &crc, sizeof(crc)));
    ExtentFileHeader header = MakeHeader(s, /*finished=*/true);
    OPAQ_RETURN_IF_ERROR(devices_[s]->WriteAt(0, &header, sizeof(header)));
  }
  return Status::OK();
}

// ----------------------------------------------------------- open ----

Result<ExtentFile> ExtentFile::Open(std::vector<BlockDevice*> devices) {
  if (devices.empty() || devices.size() > kMaxStripes) {
    return Status::InvalidArgument(
        "extent file needs between 1 and " + std::to_string(kMaxStripes) +
        " stripe devices, got " + std::to_string(devices.size()));
  }
  ExtentFileHeader first;
  std::vector<uint64_t> directory_end(devices.size(), 0);
  for (size_t s = 0; s < devices.size(); ++s) {
    if (devices[s] == nullptr) {
      return Status::InvalidArgument("null extent stripe device");
    }
    ExtentFileHeader header;
    OPAQ_RETURN_IF_ERROR(devices[s]->ReadAt(0, &header, sizeof(header)));
    if (header.magic != ExtentFileHeader::kMagic) {
      return Status::InvalidArgument("stripe " + std::to_string(s) +
                                     ": bad magic, not an OPAQ extent file");
    }
    if (header.version != 1) {
      return Status::InvalidArgument(
          "stripe " + std::to_string(s) + ": unsupported extent file version " +
          std::to_string(header.version));
    }
    OPAQ_RETURN_IF_ERROR(
        ValidateGeometry(header.element_size, header.extent_elements));
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
    if (header.num_extents !=
        DivCeil(header.total_elements, header.extent_elements)) {
      return Status::InvalidArgument(
          "stripe " + std::to_string(s) + ": extent count " +
          std::to_string(header.num_extents) +
          " disagrees with its own geometry");
    }
    if (GetCodec(static_cast<ExtentCodec>(header.default_codec)) == nullptr) {
      return Status::InvalidArgument(
          "stripe " + std::to_string(s) + ": unknown default codec tag " +
          std::to_string(header.default_codec));
    }
    if (header.directory_offset < sizeof(ExtentFileHeader)) {
      return Status::InvalidArgument(
          "stripe " + std::to_string(s) +
          ": truncated or unfinished extent file (no directory)");
    }
    if (s == 0) {
      first = header;
    } else if (header.key_type != first.key_type ||
               header.element_size != first.element_size ||
               header.extent_elements != first.extent_elements ||
               header.total_elements != first.total_elements ||
               header.num_extents != first.num_extents ||
               header.default_codec != first.default_codec) {
      return Status::InvalidArgument(
          "stripe " + std::to_string(s) +
          " disagrees with stripe 0 about the dataset geometry");
    }
    directory_end[s] = header.directory_offset;
  }
  ExtentFile file(std::move(devices), first);
  file.directory_end_ = std::move(directory_end);
  file.directory_.resize(file.devices_.size());
  const uint64_t extent_bytes =
      first.extent_elements * first.element_size;
  for (uint32_t s = 0; s < file.num_stripes(); ++s) {
    const uint64_t local =
        LocalExtents(first.num_extents, file.num_stripes(), s);
    const uint64_t offset_bytes = local * sizeof(uint64_t);
    const uint64_t directory_offset = file.directory_end_[s];
    auto size = file.devices_[s]->Size();
    if (!size.ok()) return size.status();
    if (*size < directory_offset || *size - directory_offset <
                                        offset_bytes + sizeof(uint32_t)) {
      return Status::InvalidArgument(
          "stripe " + std::to_string(s) + " is shorter (" +
          std::to_string(*size) + " bytes) than its directory promises");
    }
    std::vector<uint64_t>& offsets = file.directory_[s];
    offsets.resize(local);
    if (local != 0) {
      OPAQ_RETURN_IF_ERROR(file.devices_[s]->ReadAt(
          directory_offset, offsets.data(), offset_bytes));
    }
    uint32_t stored_crc = 0;
    OPAQ_RETURN_IF_ERROR(file.devices_[s]->ReadAt(
        directory_offset + offset_bytes, &stored_crc, sizeof(stored_crc)));
    if (stored_crc != Crc32(offsets.data(), offset_bytes)) {
      return Status::IoError("stripe " + std::to_string(s) +
                             ": extent directory CRC mismatch");
    }
    // The directory is now authenticated; validate that it describes a
    // plausible layout, which bounds every later read against it.
    for (uint64_t i = 0; i < local; ++i) {
      const uint64_t start = offsets[i];
      const uint64_t end =
          i + 1 < local ? offsets[i + 1] : directory_offset;
      if (i == 0 && start != sizeof(ExtentFileHeader)) {
        return Status::IoError("stripe " + std::to_string(s) +
                               ": first extent not at the header boundary");
      }
      if (end <= start || end - start < sizeof(ExtentHeader) ||
          end - start > sizeof(ExtentHeader) + extent_bytes) {
        return Status::IoError(
            "stripe " + std::to_string(s) + ": directory entry " +
            std::to_string(i) + " describes an implausible extent size");
      }
    }
  }
  return file;
}

uint64_t ExtentFile::StoredExtentBytes(uint64_t e) const {
  OPAQ_CHECK_LT(e, header_.num_extents);
  const uint32_t s = static_cast<uint32_t>(e % num_stripes());
  const uint64_t slot = e / num_stripes();
  const std::vector<uint64_t>& offsets = directory_[s];
  const uint64_t start = offsets[slot];
  const uint64_t end =
      slot + 1 < offsets.size() ? offsets[slot + 1] : directory_end_[s];
  return end - start;
}

Status ExtentFile::ExtentPastTheEnd(uint64_t e) const {
  return Status::OutOfRange("extent " + std::to_string(e) + " past the end (" +
                            std::to_string(header_.num_extents) + " extents)");
}

Status ExtentFile::ReadStoredExtent(uint64_t e, void* out) const {
  if (e >= header_.num_extents) return ExtentPastTheEnd(e);
  const uint32_t s = static_cast<uint32_t>(e % num_stripes());
  const uint64_t slot = e / num_stripes();
  return devices_[s]->ReadAt(directory_[s][slot], out, StoredExtentBytes(e));
}

Status ExtentFile::DecodeExtent(uint64_t e, bool verify_checksums,
                                std::vector<uint8_t>* scratch,
                                void* out) const {
  if (e >= header_.num_extents) return ExtentPastTheEnd(e);
  scratch->resize(StoredExtentBytes(e));
  OPAQ_RETURN_IF_ERROR(ReadStoredExtent(e, scratch->data()));
  const uint64_t expected_unpacked =
      ExtentLength(e) * header_.element_size;
  return DecodeStoredExtent(scratch->data(), scratch->size(), e,
                            expected_unpacked, header_.element_size,
                            verify_checksums, out, stats_.get());
}

Status ExtentFile::ReadElements(uint64_t first, uint64_t count,
                                void* out) const {
  if (first > header_.total_elements ||
      count > header_.total_elements - first) {
    return Status::OutOfRange(
        "read [" + std::to_string(first) + ", +" + std::to_string(count) +
        ") passes the end (" + std::to_string(header_.total_elements) +
        " elements)");
  }
  if (count == 0) return Status::OK();
  uint8_t* dst = static_cast<uint8_t*>(out);
  std::vector<uint8_t> scratch;
  std::vector<uint8_t> extent_buf;
  const uint64_t end = first + count;
  for (uint64_t e = first / header_.extent_elements;
       e * header_.extent_elements < end; ++e) {
    const uint64_t extent_start = e * header_.extent_elements;
    const uint64_t extent_len = ExtentLength(e);
    extent_buf.resize(extent_len * header_.element_size);
    OPAQ_RETURN_IF_ERROR(DecodeExtent(e, /*verify_checksums=*/true, &scratch,
                                      extent_buf.data()));
    const uint64_t start = std::max(extent_start, first);
    const uint64_t stop = std::min(extent_start + extent_len, end);
    std::memcpy(dst + (start - first) * header_.element_size,
                extent_buf.data() + (start - extent_start) *
                                        header_.element_size,
                (stop - start) * header_.element_size);
  }
  return Status::OK();
}

}  // namespace opaq
