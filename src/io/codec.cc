#include "io/codec.h"

#include <cstring>

#ifdef OPAQ_HAVE_ZLIB
#include <zlib.h>
#endif

namespace opaq {
namespace {

// ------------------------------------------------------------ raw ----

class RawCodec : public Codec {
 public:
  ExtentCodec id() const override { return ExtentCodec::kRaw; }
  const char* name() const override { return "raw"; }

  Status Compress(const uint8_t* data, size_t len, uint32_t /*element_size*/,
                  std::vector<uint8_t>* out) const override {
    out->assign(data, data + len);
    return Status::OK();
  }

  Status Decompress(const uint8_t* data, size_t len,
                    uint32_t /*element_size*/, uint8_t* out,
                    size_t out_len) const override {
    if (len != out_len) {
      return Status::IoError("raw extent holds " + std::to_string(len) +
                             " bytes where " + std::to_string(out_len) +
                             " were expected");
    }
    std::memcpy(out, data, len);
    return Status::OK();
  }
};

// ---------------------------------------------------------- delta ----

/// Zigzag delta + LEB128 varint over the element words. Elements are read as
/// little-endian unsigned words of `element_size` bytes (4 or 8 — every OPAQ
/// key type is one of the two; float bit patterns round-trip losslessly),
/// the running difference is zigzag-folded so small negative deltas stay
/// small, and each folded delta is LEB128-encoded. Sorted and clustered
/// integer data — the paper's workloads — collapse to 1-2 bytes/element.
///
/// Decode has two varint readers:
///   - `LoadVarints`: the varints whose terminators fall in one 8-byte load,
///     two at a time when both do (the common case at 1-3 bytes/element),
///     else one;
///   - `ByteVarint`: a byte at a time, the only reader that reports a
///     malformed or truncated varint.
/// `LoadVarints` declines, consuming nothing, on anything irregular, so
/// every error code and message comes from `ByteVarint` alone.
class DeltaCodec : public Codec {
 public:
  ExtentCodec id() const override { return ExtentCodec::kDelta; }
  const char* name() const override { return "delta"; }

  Status Compress(const uint8_t* data, size_t len, uint32_t element_size,
                  std::vector<uint8_t>* out) const override {
    OPAQ_RETURN_IF_ERROR(CheckGeometry(len, element_size));
    out->clear();
    out->reserve(len + len / 4);  // worst case is 10/8 bytes per word
    const uint64_t sign_shift = element_size * 8 - 1;
    const uint64_t mask =
        element_size == 8 ? ~uint64_t{0} : (uint64_t{1} << (element_size * 8)) - 1;
    uint64_t prev = 0;
    for (size_t i = 0; i < len; i += element_size) {
      uint64_t v = 0;
      std::memcpy(&v, data + i, element_size);
      const uint64_t diff = (v - prev) & mask;
      prev = v;
      // Zigzag within the element width: sign-extend the wrapped difference,
      // then fold so both +1 and -1 encode as one byte.
      const uint64_t sign = (diff >> sign_shift) & 1;
      uint64_t folded = ((diff << 1) & mask) ^ (sign ? mask : 0);
      do {
        uint8_t byte = folded & 0x7f;
        folded >>= 7;
        if (folded != 0) byte |= 0x80;
        out->push_back(byte);
      } while (folded != 0);
    }
    return Status::OK();
  }

  Status Decompress(const uint8_t* data, size_t len, uint32_t element_size,
                    uint8_t* out, size_t out_len) const override {
    OPAQ_RETURN_IF_ERROR(CheckGeometry(out_len, element_size));
    return element_size == 8 ? DecodeWords<uint64_t>(data, len, out, out_len)
                             : DecodeWords<uint32_t>(data, len, out, out_len);
  }

 private:
  /// Decodes the varints of `Word`-wide elements, then unfolds the zigzag
  /// and undoes the delta (both wrap within the width).
  template <typename Word>
  static Status DecodeWords(const uint8_t* data, size_t len, uint8_t* out,
                            size_t out_len) {
    size_t pos = 0;
    Word prev = 0;
    const auto emit = [&prev](uint64_t folded, uint8_t* to) {
      const Word f = static_cast<Word>(folded);
      prev = static_cast<Word>(prev + ((f >> 1) ^ (Word{0} - (f & 1))));
      std::memcpy(to, &prev, sizeof(Word));
    };
    size_t i = 0;
    while (i < out_len) {
      uint64_t folded[2];
      const bool two_left = out_len - i >= 2 * sizeof(Word);
      size_t count = LoadVarints<Word>(data, len, two_left, &pos, folded);
      if (count == 0) {
        OPAQ_RETURN_IF_ERROR(ByteVarint<Word>(data, len, &pos, folded));
        count = 1;
      }
      for (size_t k = 0; k < count; ++k, i += sizeof(Word)) {
        emit(folded[k], out + i);
      }
    }
    if (pos != len) {
      return Status::IoError("delta extent has " + std::to_string(len - pos) +
                             " trailing bytes after the last element");
    }
    return Status::OK();
  }

  /// Packs the 7-bit groups of one varint's bytes (the word holds only
  /// them, low byte first) together in three mask-and-shift steps.
  static uint64_t PackGroups(uint64_t v) {
    v = (v & 0x007f007f007f007fu) | ((v & 0x7f007f007f007f00u) >> 1);
    v = (v & 0x00003fff00003fffu) | ((v & 0x3fff00003fff0000u) >> 2);
    return (v & 0x000000000fffffffu) | ((v & 0x0fffffff00000000u) >> 4);
  }

  /// Whether a packed varint of `bytes` bytes is one `Word` may hold.
  template <typename Word>
  static bool FitsWord(size_t bytes, uint64_t packed) {
    if (bytes > MaxVarintBytes<Word>()) return false;
    if constexpr (sizeof(Word) < 8) {
      if ((packed >> (sizeof(Word) * 8)) != 0) return false;
    }
    return true;
  }

  /// Decodes the varints ending in one 8-byte load, with no per-byte
  /// branch: the lowest clear continuation bit ends the first, the next one
  /// the second. Returns 2 when `two` allows and both varints fit the
  /// width, 1 when only the first is taken, and 0, consuming nothing, for
  /// anything irregular — fewer than 8 bytes left, no terminator among
  /// them, more bytes than the width allows, or bits above the width —
  /// which `ByteVarint` then decodes or rejects.
  template <typename Word>
  static size_t LoadVarints(const uint8_t* data, size_t len, bool two,
                            size_t* pos, uint64_t folded[2]) {
    if (len - *pos < 8) return 0;
    const uint8_t* p = data + *pos;
    const uint64_t word =
        uint64_t{p[0]} | uint64_t{p[1]} << 8 | uint64_t{p[2]} << 16 |
        uint64_t{p[3]} << 24 | uint64_t{p[4]} << 32 | uint64_t{p[5]} << 40 |
        uint64_t{p[6]} << 48 | uint64_t{p[7]} << 56;
    const uint64_t stops = ~word & 0x8080808080808080u;
    if (stops == 0) return 0;
    // The varint's bytes (up to the terminator's top bit); `PackGroups`
    // keeps only their 7-bit groups.
    const size_t first_bytes =
        static_cast<size_t>(__builtin_ctzll(stops) / 8 + 1);
    folded[0] = PackGroups(word & (stops ^ (stops - 1)));
    if (!FitsWord<Word>(first_bytes, folded[0])) return 0;
    const uint64_t second_stop = stops & (stops - 1);
    if (two && second_stop != 0) {
      // A second terminator means first_bytes <= 7, so the shift that drops
      // the first varint's bytes stays below the word width.
      const size_t bytes =
          static_cast<size_t>(__builtin_ctzll(second_stop) / 8 + 1);
      folded[1] = PackGroups((word & (second_stop ^ (second_stop - 1))) >>
                             (8 * first_bytes));
      if (FitsWord<Word>(bytes - first_bytes, folded[1])) {
        *pos += bytes;
        return 2;
      }
    }
    *pos += first_bytes;
    return 1;
  }

  /// Decodes one LEB128 varint a byte at a time: the fallback for whatever
  /// `LoadVarints` declines, and the only path that reports a malformed one.
  template <typename Word>
  static Status ByteVarint(const uint8_t* data, size_t len, size_t* pos,
                           uint64_t* folded) {
    constexpr uint32_t kBits = sizeof(Word) * 8;
    uint64_t value = 0;
    uint32_t shift = 0;
    for (size_t n = 1;; ++n, shift += 7) {
      if (*pos >= len) {
        return Status::IoError("delta extent truncated mid-varint");
      }
      const uint8_t byte = data[(*pos)++];
      const uint64_t group = byte & 0x7f;
      const bool last = n == MaxVarintBytes<Word>();
      // Only the last allowed byte can reach past the width.
      if (last && (group >> (kBits - shift)) != 0) return Overflow();
      value |= group << shift;
      if ((byte & 0x80) == 0) break;
      if (last) return Overflow();
    }
    *folded = value;
    return Status::OK();
  }

  template <typename Word>
  static constexpr size_t MaxVarintBytes() {
    return (sizeof(Word) * 8 + 6) / 7;
  }

  static Status Overflow() {
    return Status::IoError("delta extent varint overflows the element width");
  }

  static Status CheckGeometry(size_t len, uint32_t element_size) {
    if (element_size != 4 && element_size != 8) {
      return Status::InvalidArgument(
          "delta codec supports 4- and 8-byte elements, got " +
          std::to_string(element_size));
    }
    if (len % element_size != 0) {
      return Status::InvalidArgument(
          "delta codec payload is not a whole number of elements");
    }
    return Status::OK();
  }
};

// ----------------------------------------------------------- zlib ----

#ifdef OPAQ_HAVE_ZLIB

class ZlibCodec : public Codec {
 public:
  ExtentCodec id() const override { return ExtentCodec::kZlib; }
  const char* name() const override { return "zlib"; }

  Status Compress(const uint8_t* data, size_t len, uint32_t /*element_size*/,
                  std::vector<uint8_t>* out) const override {
    uLongf bound = compressBound(static_cast<uLong>(len));
    out->resize(bound);
    // Level 1: the codec exists to trade prefetch-thread CPU for disk
    // bandwidth, so encode speed beats a few percent of ratio.
    const int rc = compress2(out->data(), &bound, data,
                             static_cast<uLong>(len), /*level=*/1);
    if (rc != Z_OK) {
      return Status::Internal("zlib compress failed (rc=" +
                              std::to_string(rc) + ")");
    }
    out->resize(bound);
    return Status::OK();
  }

  Status Decompress(const uint8_t* data, size_t len,
                    uint32_t /*element_size*/, uint8_t* out,
                    size_t out_len) const override {
    uLongf dest_len = static_cast<uLongf>(out_len);
    const int rc = uncompress(out, &dest_len, data, static_cast<uLong>(len));
    if (rc != Z_OK) {
      return Status::IoError("zlib extent does not decompress (rc=" +
                             std::to_string(rc) + ")");
    }
    if (dest_len != out_len) {
      return Status::IoError("zlib extent decompressed to " +
                             std::to_string(dest_len) + " bytes where " +
                             std::to_string(out_len) + " were expected");
    }
    return Status::OK();
  }
};

#else  // !OPAQ_HAVE_ZLIB

/// The tag is recognized even without zlib, so a corrupt codec byte and a
/// missing build dependency produce different, actionable errors.
class ZlibCodec : public Codec {
 public:
  ExtentCodec id() const override { return ExtentCodec::kZlib; }
  const char* name() const override { return "zlib"; }

  Status Compress(const uint8_t*, size_t, uint32_t,
                  std::vector<uint8_t>*) const override {
    return Unavailable();
  }
  Status Decompress(const uint8_t*, size_t, uint32_t, uint8_t*,
                    size_t) const override {
    return Unavailable();
  }

 private:
  static Status Unavailable() {
    return Status::Unimplemented(
        "zlib codec not available in this build (rebuild with zlib "
        "development headers installed)");
  }
};

#endif  // OPAQ_HAVE_ZLIB

const RawCodec kRawCodec;
const DeltaCodec kDeltaCodec;
const ZlibCodec kZlibCodec;

}  // namespace

const Codec* GetCodec(ExtentCodec id) {
  switch (id) {
    case ExtentCodec::kRaw:
      return &kRawCodec;
    case ExtentCodec::kDelta:
      return &kDeltaCodec;
    case ExtentCodec::kZlib:
      return &kZlibCodec;
  }
  return nullptr;
}

bool CodecAvailable(ExtentCodec id) {
  if (id == ExtentCodec::kZlib) {
#ifdef OPAQ_HAVE_ZLIB
    return true;
#else
    return false;
#endif
  }
  return GetCodec(id) != nullptr;
}

const char* ExtentCodecName(ExtentCodec id) {
  const Codec* codec = GetCodec(id);
  return codec != nullptr ? codec->name() : "?";
}

const char* ExtentCodecName(uint16_t id) {
  return ExtentCodecName(static_cast<ExtentCodec>(id));
}

Result<ExtentCodec> ParseExtentCodec(const std::string& name) {
  ExtentCodec id;
  if (name == "raw") {
    id = ExtentCodec::kRaw;
  } else if (name == "delta") {
    id = ExtentCodec::kDelta;
  } else if (name == "zlib") {
    id = ExtentCodec::kZlib;
  } else {
    return Status::InvalidArgument(
        "unknown codec '" + name + "' (expected raw, delta or zlib)");
  }
  if (!CodecAvailable(id)) {
    return Status::Unimplemented("codec '" + name +
                                 "' not available in this build");
  }
  return id;
}

}  // namespace opaq
