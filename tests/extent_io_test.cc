// The compressed extent format's test wall: on-disk layout pinned
// byte-for-byte, a committed golden blob that must decode forever,
// round-trips across codecs / extent sizes / stripe counts / ragged tails,
// and hostile-byte coverage — truncations, corrupt CRCs, lying lengths,
// unknown codecs, version skew — all of which must surface as clean
// `Status`, never a crash (a new on-disk format is the riskiest change
// this codebase takes: silent corruption = silently wrong quantiles).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "io/block_device.h"
#include "io/codec.h"
#include "io/extent.h"
#include "io/io_mode.h"
#include "io/run_reader.h"
#include "io/tempdir.h"
#include "opaq/source.h"
#include "util/crc32.h"

namespace opaq {
namespace {

using Key = uint64_t;

// ------------------------------------------------------------- helpers ----

std::vector<Key> Iota(uint64_t n) {
  std::vector<Key> out(n);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

/// The full contents of a device.
std::vector<uint8_t> DeviceBytes(BlockDevice* device) {
  auto size = device->Size();
  OPAQ_CHECK_OK(size.status());
  std::vector<uint8_t> bytes(*size);
  if (!bytes.empty()) {
    OPAQ_CHECK_OK(device->ReadAt(0, bytes.data(), bytes.size()));
  }
  return bytes;
}

/// A fresh memory device holding exactly `bytes`.
std::unique_ptr<MemoryBlockDevice> DeviceFrom(
    const std::vector<uint8_t>& bytes) {
  auto device = std::make_unique<MemoryBlockDevice>();
  if (!bytes.empty()) {
    OPAQ_CHECK_OK(device->WriteAt(0, bytes.data(), bytes.size()));
  }
  return device;
}

/// An extent file over fresh memory devices, kept alive together.
struct MemoryExtents {
  std::vector<std::unique_ptr<MemoryBlockDevice>> devices;
  Result<ExtentStatsSnapshot> write_stats = Status::Internal("unset");

  MemoryExtents(const std::vector<Key>& data, int stripes,
                const ExtentWriterOptions& options) {
    std::vector<BlockDevice*> raw;
    for (int s = 0; s < stripes; ++s) {
      devices.push_back(std::make_unique<MemoryBlockDevice>());
      raw.push_back(devices.back().get());
    }
    write_stats = WriteExtents(data, raw, options);
  }

  std::vector<BlockDevice*> raw() const {
    std::vector<BlockDevice*> out;
    for (const auto& device : devices) out.push_back(device.get());
    return out;
  }
};

/// Streams every element of `source`; any failure becomes the returned
/// status with the elements delivered before it.
Result<std::vector<Key>> Drain(RunSource<Key>& source) {
  std::vector<Key> out;
  std::vector<Key> run;
  while (true) {
    auto more = source.NextRun(&run);
    if (!more.ok()) return more.status();
    if (!*more) return out;
    out.insert(out.end(), run.begin(), run.end());
  }
}

/// Opens a run stream over `file` through its provider.
std::unique_ptr<RunSource<Key>> OpenExtents(const ExtentFile& file,
                                            uint64_t run_size, IoMode mode,
                                            bool verify_checksums = true,
                                            uint64_t first = 0,
                                            uint64_t count = UINT64_MAX) {
  return ExtentFileProvider<Key>(&file).OpenRuns(
      ReadOptions{run_size, mode, 2, verify_checksums}, first, count);
}

/// One valid stored extent (header + payload) packed with `codec`, for the
/// hostile-byte rows to mutate.
std::vector<uint8_t> MakeStoredExtent(const std::vector<Key>& values,
                                      ExtentCodec codec, uint64_t index) {
  const size_t unpacked = values.size() * sizeof(Key);
  std::vector<uint8_t> payload(unpacked);
  std::memcpy(payload.data(), values.data(), unpacked);
  if (codec != ExtentCodec::kRaw) {
    std::vector<uint8_t> packed;
    OPAQ_CHECK_OK(GetCodec(codec)->Compress(payload.data(), payload.size(),
                                            sizeof(Key), &packed));
    OPAQ_CHECK_LT(packed.size(), payload.size());
    payload = std::move(packed);
  }
  ExtentHeader header;
  header.codec = static_cast<uint16_t>(codec);
  header.payload_crc = Crc32(payload.data(), payload.size());
  header.extent_index = index;
  header.unpacked_len = unpacked;
  header.packed_len = payload.size();
  std::vector<uint8_t> out(sizeof(header) + payload.size());
  std::memcpy(out.data(), &header, sizeof(header));
  std::memcpy(out.data() + sizeof(header), payload.data(), payload.size());
  return out;
}

Status DecodeInto(const std::vector<uint8_t>& stored, uint64_t index,
                  std::vector<Key>* out, bool verify_crc = true) {
  return DecodeStoredExtent(stored.data(), stored.size(), index,
                            out->size() * sizeof(Key), sizeof(Key),
                            verify_crc, out->data(), nullptr);
}

// ------------------------------------------------- layout pinning ----

// The numeric layout IS the format: these tests pin every offset and tag so
// an accidental reorder/retype shows up as a test diff, not as files that
// silently stop interoperating across builds.

TEST(ExtentLayoutTest, FileHeaderLayoutIsPinned) {
  EXPECT_EQ(sizeof(ExtentFileHeader), 64u);
  EXPECT_EQ(ExtentFileHeader::kMagic, 0x4f50415145585431ULL);  // "OPAQEXT1"
  EXPECT_EQ(offsetof(ExtentFileHeader, magic), 0u);
  EXPECT_EQ(offsetof(ExtentFileHeader, version), 8u);
  EXPECT_EQ(offsetof(ExtentFileHeader, key_type), 12u);
  EXPECT_EQ(offsetof(ExtentFileHeader, element_size), 16u);
  EXPECT_EQ(offsetof(ExtentFileHeader, num_stripes), 20u);
  EXPECT_EQ(offsetof(ExtentFileHeader, stripe_index), 24u);
  EXPECT_EQ(offsetof(ExtentFileHeader, default_codec), 28u);
  EXPECT_EQ(offsetof(ExtentFileHeader, extent_elements), 32u);
  EXPECT_EQ(offsetof(ExtentFileHeader, total_elements), 40u);
  EXPECT_EQ(offsetof(ExtentFileHeader, num_extents), 48u);
  EXPECT_EQ(offsetof(ExtentFileHeader, directory_offset), 56u);
}

TEST(ExtentLayoutTest, ExtentHeaderLayoutIsPinned) {
  EXPECT_EQ(sizeof(ExtentHeader), 40u);
  EXPECT_EQ(ExtentHeader::kMagic, 0x54584f45u);  // "EOXT"
  EXPECT_EQ(offsetof(ExtentHeader, magic), 0u);
  EXPECT_EQ(offsetof(ExtentHeader, version), 4u);
  EXPECT_EQ(offsetof(ExtentHeader, codec), 6u);
  EXPECT_EQ(offsetof(ExtentHeader, payload_crc), 8u);
  EXPECT_EQ(offsetof(ExtentHeader, reserved), 12u);
  EXPECT_EQ(offsetof(ExtentHeader, extent_index), 16u);
  EXPECT_EQ(offsetof(ExtentHeader, unpacked_len), 24u);
  EXPECT_EQ(offsetof(ExtentHeader, packed_len), 32u);
}

TEST(ExtentLayoutTest, CodecTagsArePinned) {
  // On-disk tags: never renumber, only append.
  EXPECT_EQ(static_cast<uint16_t>(ExtentCodec::kRaw), 0);
  EXPECT_EQ(static_cast<uint16_t>(ExtentCodec::kDelta), 1);
  EXPECT_EQ(static_cast<uint16_t>(ExtentCodec::kZlib), 2);
  EXPECT_EQ(kNumExtentCodecs, 3u);
  EXPECT_STREQ(ExtentCodecName(ExtentCodec::kRaw), "raw");
  EXPECT_STREQ(ExtentCodecName(ExtentCodec::kDelta), "delta");
  EXPECT_STREQ(ExtentCodecName(ExtentCodec::kZlib), "zlib");
}

// ---------------------------------------------------- golden blob ----

/// The golden dataset: 14 u64 values in 4-element extents (4 extents, the
/// last ragged), packed with the in-repo delta codec so the blob round-
/// trips on every build. This function must keep producing the exact bytes
/// of tests/golden/extent_u64_v1.bin forever — that file is what deployed
/// readers of format v1 must always be able to decode.
std::vector<Key> GoldenValues() {
  return {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7};
}

std::vector<uint8_t> MakeGoldenExtentBytes() {
  MemoryBlockDevice device;
  ExtentWriterOptions options;
  options.extent_elements = 4;
  options.codec = ExtentCodec::kDelta;
  auto writer = ExtentWriter::Create({&device}, KeyType::kU64, sizeof(Key),
                                     options);
  OPAQ_CHECK_OK(writer.status());
  const std::vector<Key> values = GoldenValues();
  OPAQ_CHECK_OK(writer->Append(values.data(), values.size()));
  OPAQ_CHECK_OK(writer->Finish());
  return DeviceBytes(&device);
}

std::vector<uint8_t> GoldenBlobBytes() {
  const std::string path =
      std::string(OPAQ_GOLDEN_DIR) + "/extent_u64_v1.bin";
  std::ifstream in(path, std::ios::binary);
  OPAQ_CHECK(in.good()) << "missing golden blob: " << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

TEST(ExtentGoldenTest, WriterProducesExactGoldenBytes) {
  EXPECT_EQ(MakeGoldenExtentBytes(), GoldenBlobBytes())
      << "the extent encoding changed; files written by released builds "
         "would no longer read back. If intentional, bump the format "
         "version and commit a new golden blob.";
}

TEST(ExtentGoldenTest, GoldenBlobDecodes) {
  auto device = DeviceFrom(GoldenBlobBytes());
  auto file = ExtentFile::Open({device.get()});
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->size(), 14u);
  EXPECT_EQ(file->key_type(), static_cast<uint32_t>(KeyType::kU64));
  EXPECT_EQ(file->element_size(), sizeof(Key));
  EXPECT_EQ(file->extent_elements(), 4u);
  EXPECT_EQ(file->num_extents(), 4u);
  EXPECT_EQ(file->default_codec(), ExtentCodec::kDelta);
  EXPECT_EQ(file->ExtentLength(3), 2u) << "tail extent is ragged";
  std::vector<Key> decoded(file->size());
  ASSERT_TRUE(file->ReadElements(0, file->size(), decoded.data()).ok());
  EXPECT_EQ(decoded, GoldenValues());
}

TEST(ExtentGoldenTest, GoldenFieldsPinnedAtTheirByteOffsets) {
  const std::vector<uint8_t> blob = GoldenBlobBytes();
  ASSERT_GE(blob.size(), sizeof(ExtentFileHeader) + sizeof(ExtentHeader));
  auto u64_at = [&blob](size_t offset) {
    uint64_t v = 0;
    std::memcpy(&v, blob.data() + offset, sizeof(v));
    return v;
  };
  auto u32_at = [&blob](size_t offset) {
    uint32_t v = 0;
    std::memcpy(&v, blob.data() + offset, sizeof(v));
    return v;
  };
  // File header straight off the committed bytes.
  EXPECT_EQ(u64_at(0), ExtentFileHeader::kMagic);
  EXPECT_EQ(u32_at(8), 1u);                                  // version
  EXPECT_EQ(u32_at(12), static_cast<uint32_t>(KeyType::kU64));
  EXPECT_EQ(u32_at(16), 8u);                                 // element_size
  EXPECT_EQ(u32_at(20), 1u);                                 // num_stripes
  EXPECT_EQ(u32_at(24), 0u);                                 // stripe_index
  EXPECT_EQ(u32_at(28), 1u);                                 // codec: delta
  EXPECT_EQ(u64_at(32), 4u);                                 // extent_elements
  EXPECT_EQ(u64_at(40), 14u);                                // total_elements
  EXPECT_EQ(u64_at(48), 4u);                                 // num_extents
  // First extent header sits directly after the file header.
  EXPECT_EQ(u32_at(64), ExtentHeader::kMagic);
  EXPECT_EQ(u64_at(64 + 16), 0u);   // extent_index
  EXPECT_EQ(u64_at(64 + 24), 32u);  // unpacked_len: 4 elements x 8 bytes
  // Directory: one u64 offset per extent, CRC'd, then end of file.
  const uint64_t directory_offset = u64_at(56);
  EXPECT_EQ(blob.size(), directory_offset + 4 * sizeof(uint64_t) + 4);
  EXPECT_EQ(u64_at(directory_offset), sizeof(ExtentFileHeader))
      << "first extent starts at the header boundary";
}

// ----------------------------------------------------- round trips ----

TEST(ExtentRoundTripTest, AcrossCodecsSizesStripesAndTails) {
  struct Case {
    uint64_t n;
    uint64_t extent_elements;
    int stripes;
  };
  const Case kCases[] = {
      {0, 8, 1},     // empty dataset: zero extents, still a valid file
      {0, 8, 3},     // empty striped
      {1, 8, 1},     // single element (ragged first extent)
      {8, 8, 1},     // exactly one extent
      {9, 8, 1},     // one extent + ragged tail
      {64, 8, 1},    // exact multiple
      {100, 8, 4},   // ragged tail across stripes
      {100, 1, 3},   // degenerate one-element extents
      {1000, 64, 5}, // stripes > extents per stripe
      {37, 1000, 2}, // extent larger than the dataset
  };
  std::vector<ExtentCodec> codecs = {ExtentCodec::kRaw, ExtentCodec::kDelta};
  if (CodecAvailable(ExtentCodec::kZlib)) {
    codecs.push_back(ExtentCodec::kZlib);
  }
  for (ExtentCodec codec : codecs) {
    for (const Case& c : kCases) {
      SCOPED_TRACE(std::string(ExtentCodecName(codec)) + " n=" +
                   std::to_string(c.n) + " extent=" +
                   std::to_string(c.extent_elements) + " stripes=" +
                   std::to_string(c.stripes));
      ExtentWriterOptions options;
      options.extent_elements = c.extent_elements;
      options.codec = codec;
      const std::vector<Key> data = Iota(c.n);
      MemoryExtents stripes(data, c.stripes, options);
      ASSERT_TRUE(stripes.write_stats.ok())
          << stripes.write_stats.status().ToString();
      auto file = ExtentFile::Open(stripes.raw());
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      EXPECT_EQ(file->size(), c.n);
      EXPECT_EQ(file->num_extents(),
                (c.n + c.extent_elements - 1) / c.extent_elements);
      // Inline (sync) and threaded (async) streams must both deliver the
      // exact logical order.
      for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
        auto streamed = Drain(*OpenExtents(*file, /*run_size=*/17, mode));
        ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
        EXPECT_EQ(*streamed, data) << IoModeName(mode);
      }
      // Random access agrees with the stream.
      if (c.n >= 3) {
        std::vector<Key> slice(c.n - 2);
        ASSERT_TRUE(file->ReadElements(1, c.n - 2, slice.data()).ok());
        EXPECT_EQ(slice, std::vector<Key>(data.begin() + 1, data.end() - 1));
      }
    }
  }
}

TEST(ExtentRoundTripTest, SubRangeStreamsMatchTheSlice) {
  ExtentWriterOptions options;
  options.extent_elements = 16;
  options.codec = ExtentCodec::kDelta;
  const std::vector<Key> data = Iota(333);
  MemoryExtents stripes(data, 3, options);
  auto file = ExtentFile::Open(stripes.raw());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  struct Range {
    uint64_t first, count;
  };
  // Ranges clipping extents at both ends, spanning stripes, and empty.
  const Range kRanges[] = {{0, 333}, {5, 40},  {16, 16}, {15, 18},
                           {330, 3}, {100, 0}, {333, 0}, {47, 111}};
  for (const Range& r : kRanges) {
    for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
      SCOPED_TRACE("[" + std::to_string(r.first) + ", +" +
                   std::to_string(r.count) + ") " + IoModeName(mode));
      auto streamed = Drain(*OpenExtents(*file, /*run_size=*/7, mode,
                                         /*verify_checksums=*/true, r.first,
                                         r.count));
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(*streamed,
                std::vector<Key>(data.begin() + r.first,
                                 data.begin() + r.first + r.count));
    }
  }
}

TEST(ExtentRoundTripTest, PackStatsAccount) {
  ExtentWriterOptions options;
  options.extent_elements = 32;
  options.codec = ExtentCodec::kDelta;
  const std::vector<Key> data = Iota(100);  // sorted: delta compresses well
  MemoryExtents stripes(data, 1, options);
  ASSERT_TRUE(stripes.write_stats.ok());
  const ExtentStatsSnapshot packed = *stripes.write_stats;
  EXPECT_EQ(packed.extents, 4u);
  EXPECT_EQ(packed.unpacked_bytes, 800u);
  EXPECT_LT(packed.packed_bytes, packed.unpacked_bytes);
  EXPECT_LT(packed.ratio(), 1.0);
  EXPECT_EQ(packed.extents_by_codec[1], 4u) << "all extents took delta";

  auto file = ExtentFile::Open(stripes.raw());
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(Drain(*OpenExtents(*file, 100, IoMode::kSync)).ok());
  // The reader's unpack accounting mirrors the writer's pack accounting.
  const ExtentStatsSnapshot unpacked = file->stats().Snapshot();
  EXPECT_EQ(unpacked.extents, packed.extents);
  EXPECT_EQ(unpacked.unpacked_bytes, packed.unpacked_bytes);
  EXPECT_EQ(unpacked.packed_bytes, packed.packed_bytes);
}

TEST(ExtentRoundTripTest, IncompressibleExtentsFallBackToRaw) {
  // A pseudo-random payload the delta codec cannot shrink: the writer must
  // store those extents raw, so stored never exceeds unpacked.
  std::vector<Key> data(256);
  Key x = 0x9e3779b97f4a7c15ULL;
  for (Key& v : data) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  ExtentWriterOptions options;
  options.extent_elements = 64;
  options.codec = ExtentCodec::kDelta;
  MemoryExtents stripes(data, 1, options);
  ASSERT_TRUE(stripes.write_stats.ok());
  EXPECT_GT(stripes.write_stats->extents_by_codec[0], 0u)
      << "random data should defeat the delta codec";
  auto file = ExtentFile::Open(stripes.raw());
  ASSERT_TRUE(file.ok());
  auto streamed = Drain(*OpenExtents(*file, 64, IoMode::kSync));
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(*streamed, data);
}

TEST(ExtentRoundTripTest, WriterRefusesBadGeometryAndUnfinishedUse) {
  MemoryBlockDevice device;
  ExtentWriterOptions options;
  options.extent_elements = 0;
  EXPECT_FALSE(ExtentWriter::Create({&device}, KeyType::kU64, 8, options)
                   .ok());
  options.extent_elements = kMaxExtentBytes;  // * 8 bytes >> the cap
  EXPECT_FALSE(ExtentWriter::Create({&device}, KeyType::kU64, 8, options)
                   .ok());
  options.extent_elements = 64;
  options.codec = ExtentCodec::kDelta;
  EXPECT_FALSE(ExtentWriter::Create({&device}, KeyType::kU32, 3, options)
                   .ok())
      << "delta only packs 4/8-byte elements";
  EXPECT_FALSE(ExtentWriter::Create({}, KeyType::kU64, 8, options).ok());

  auto writer = ExtentWriter::Create({&device}, KeyType::kU64, 8, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finish().ok());
  Key v = 1;
  EXPECT_FALSE(writer->Append(&v, 1).ok()) << "append after finish";
  EXPECT_FALSE(writer->Finish().ok()) << "double finish";
}

// -------------------------------------------------- hostile bytes ----

// Every row builds valid bytes, breaks them in one specific way, and
// demands a clean error Status — no CHECK, no crash, no allocation sized
// from attacker-controlled fields. (Run under ASan/UBSan in CI.)

TEST(ExtentHostileTest, TruncatedExtentHeader) {
  const std::vector<uint8_t> stored =
      MakeStoredExtent(Iota(8), ExtentCodec::kRaw, 0);
  std::vector<Key> out(8);
  for (size_t len = 0; len < sizeof(ExtentHeader); ++len) {
    std::vector<uint8_t> cut(stored.begin(), stored.begin() + len);
    Status s = DecodeStoredExtent(cut.data(), cut.size(), 0,
                                  out.size() * sizeof(Key), sizeof(Key),
                                  true, out.data(), nullptr);
    EXPECT_FALSE(s.ok()) << "len=" << len;
  }
}

TEST(ExtentHostileTest, TruncatedAndPaddedPayload) {
  const std::vector<uint8_t> stored =
      MakeStoredExtent(Iota(8), ExtentCodec::kDelta, 0);
  std::vector<Key> out(8);
  for (size_t len = sizeof(ExtentHeader); len < stored.size(); ++len) {
    std::vector<uint8_t> cut(stored.begin(), stored.begin() + len);
    EXPECT_FALSE(DecodeInto(cut, 0, &out).ok()) << "truncated to " << len;
  }
  std::vector<uint8_t> padded = stored;
  padded.push_back(0);
  EXPECT_FALSE(DecodeInto(padded, 0, &out).ok()) << "trailing garbage";
}

TEST(ExtentHostileTest, CorruptPayloadCrc) {
  std::vector<uint8_t> stored =
      MakeStoredExtent(Iota(8), ExtentCodec::kRaw, 0);
  stored.back() ^= 0x01;  // payload bit flip
  std::vector<Key> out(8);
  Status s = DecodeInto(stored, 0, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CRC"), std::string::npos) << s.ToString();
}

TEST(ExtentHostileTest, LyingUnpackedLengthRejectedBeforeAnyAllocation) {
  // The allocation-bomb row: a header claiming a huge unpacked size must be
  // rejected against trusted geometry BEFORE anything is sized from it.
  std::vector<uint8_t> stored =
      MakeStoredExtent(Iota(8), ExtentCodec::kDelta, 0);
  const uint64_t bomb = 1ULL << 40;
  std::memcpy(stored.data() + offsetof(ExtentHeader, unpacked_len), &bomb,
              sizeof(bomb));
  std::vector<Key> out(8);
  Status s = DecodeInto(stored, 0, &out, /*verify_crc=*/false);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unpacked"), std::string::npos) << s.ToString();
}

TEST(ExtentHostileTest, UnknownCodecTag) {
  std::vector<uint8_t> stored =
      MakeStoredExtent(Iota(8), ExtentCodec::kRaw, 0);
  const uint16_t codec = 99;
  std::memcpy(stored.data() + offsetof(ExtentHeader, codec), &codec,
              sizeof(codec));
  std::vector<Key> out(8);
  Status s = DecodeInto(stored, 0, &out, /*verify_crc=*/false);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("codec"), std::string::npos) << s.ToString();
}

TEST(ExtentHostileTest, ForeignMagicAndVersionSkew) {
  std::vector<Key> out(8);
  {
    std::vector<uint8_t> stored =
        MakeStoredExtent(Iota(8), ExtentCodec::kRaw, 0);
    const uint32_t magic = 0x46464952;  // "RIFF"
    std::memcpy(stored.data(), &magic, sizeof(magic));
    EXPECT_FALSE(DecodeInto(stored, 0, &out).ok());
  }
  {
    std::vector<uint8_t> stored =
        MakeStoredExtent(Iota(8), ExtentCodec::kRaw, 0);
    const uint16_t version = 2;
    std::memcpy(stored.data() + offsetof(ExtentHeader, version), &version,
                sizeof(version));
    Status s = DecodeInto(stored, 0, &out);
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("version"), std::string::npos)
        << s.ToString();
  }
}

TEST(ExtentHostileTest, MisdirectedExtentIndex) {
  const std::vector<uint8_t> stored =
      MakeStoredExtent(Iota(8), ExtentCodec::kRaw, /*index=*/3);
  std::vector<Key> out(8);
  EXPECT_TRUE(DecodeInto(stored, 3, &out).ok());
  EXPECT_FALSE(DecodeInto(stored, 4, &out).ok())
      << "extent stored where another was expected";
}

TEST(ExtentHostileTest, PackedLargerThanUnpackedRejected) {
  // Writers guarantee packed <= unpacked (raw fallback); a file claiming
  // otherwise is corrupt by definition and must not decode.
  std::vector<uint8_t> stored(sizeof(ExtentHeader) + 64);
  ExtentHeader header;
  header.codec = static_cast<uint16_t>(ExtentCodec::kRaw);
  header.extent_index = 0;
  header.unpacked_len = 32;
  header.packed_len = 64;
  header.payload_crc = Crc32(stored.data() + sizeof(header), 64);
  std::memcpy(stored.data(), &header, sizeof(header));
  std::vector<Key> out(4);
  Status s = DecodeInto(stored, 0, &out, /*verify_crc=*/false);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("larger"), std::string::npos) << s.ToString();
}

TEST(ExtentHostileTest, EveryHeaderByteFlipIsHandled) {
  const std::vector<uint8_t> pristine =
      MakeStoredExtent(Iota(8), ExtentCodec::kDelta, 0);
  const std::vector<Key> expected = Iota(8);
  for (size_t i = 0; i < pristine.size(); ++i) {
    std::vector<uint8_t> stored = pristine;
    stored[i] ^= 0xff;
    std::vector<Key> out(8);
    Status s = DecodeInto(stored, 0, &out);  // must not crash, ever
    const bool reserved_byte = i >= offsetof(ExtentHeader, reserved) &&
                               i < offsetof(ExtentHeader, reserved) + 4;
    if (reserved_byte) continue;  // reserved bytes are (for now) ignored
    EXPECT_FALSE(s.ok()) << "flip at byte " << i << " went unnoticed";
  }
}

/// Valid single-stripe golden-layout bytes for the file-level rows.
std::vector<uint8_t> ValidFileBytes() { return MakeGoldenExtentBytes(); }

Status OpenStatus(const std::vector<uint8_t>& bytes) {
  auto device = DeviceFrom(bytes);
  return ExtentFile::Open({device.get()}).status();
}

TEST(ExtentHostileTest, FileHeaderForeignMagic) {
  std::vector<uint8_t> bytes = ValidFileBytes();
  bytes[0] ^= 0xff;
  Status s = OpenStatus(bytes);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s.ToString();
}

TEST(ExtentHostileTest, FileHeaderVersionSkew) {
  std::vector<uint8_t> bytes = ValidFileBytes();
  const uint32_t version = 2;
  std::memcpy(bytes.data() + offsetof(ExtentFileHeader, version), &version,
              sizeof(version));
  Status s = OpenStatus(bytes);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.ToString();
}

TEST(ExtentHostileTest, UnfinishedFileRefusesToOpen) {
  // A crashed writer leaves directory_offset 0 — Open must refuse loudly
  // rather than serve a half-written dataset as empty or partial.
  std::vector<uint8_t> bytes = ValidFileBytes();
  const uint64_t zero = 0;
  std::memcpy(bytes.data() + offsetof(ExtentFileHeader, directory_offset),
              &zero, sizeof(zero));
  Status s = OpenStatus(bytes);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unfinished"), std::string::npos)
      << s.ToString();
}

TEST(ExtentHostileTest, TruncatedFileRefusesToOpen) {
  const std::vector<uint8_t> bytes = ValidFileBytes();
  // Every truncation point: mid-header, mid-extent, mid-directory.
  for (size_t len : {0ul, 16ul, 63ul, 64ul, 80ul, bytes.size() - 5,
                     bytes.size() - 1}) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(OpenStatus(cut).ok()) << "truncated to " << len;
  }
}

TEST(ExtentHostileTest, CorruptDirectoryCrcRefusesToOpen) {
  std::vector<uint8_t> bytes = ValidFileBytes();
  uint64_t directory_offset = 0;
  std::memcpy(&directory_offset,
              bytes.data() + offsetof(ExtentFileHeader, directory_offset),
              sizeof(directory_offset));
  bytes[directory_offset] ^= 0x01;  // first directory offset byte
  Status s = OpenStatus(bytes);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CRC"), std::string::npos) << s.ToString();
}

TEST(ExtentHostileTest, InconsistentExtentCountRefusesToOpen) {
  std::vector<uint8_t> bytes = ValidFileBytes();
  const uint64_t wrong = 5;  // geometry says 4
  std::memcpy(bytes.data() + offsetof(ExtentFileHeader, num_extents), &wrong,
              sizeof(wrong));
  EXPECT_FALSE(OpenStatus(bytes).ok());
}

TEST(ExtentHostileTest, BadGeometryRefusesToOpen) {
  {
    std::vector<uint8_t> bytes = ValidFileBytes();
    const uint32_t zero = 0;
    std::memcpy(bytes.data() + offsetof(ExtentFileHeader, element_size),
                &zero, sizeof(zero));
    EXPECT_FALSE(OpenStatus(bytes).ok()) << "element_size 0";
  }
  {
    std::vector<uint8_t> bytes = ValidFileBytes();
    const uint64_t huge = kMaxExtentBytes;  // * 8 bytes/element > the cap
    std::memcpy(bytes.data() + offsetof(ExtentFileHeader, extent_elements),
                &huge, sizeof(huge));
    EXPECT_FALSE(OpenStatus(bytes).ok()) << "oversized extent_elements";
  }
}

TEST(ExtentHostileTest, StripeSetMismatchesRefuseToOpen) {
  ExtentWriterOptions options;
  options.extent_elements = 8;
  MemoryExtents stripes(Iota(64), 2, options);
  ASSERT_TRUE(stripes.write_stats.ok());
  {
    auto swapped = stripes.raw();
    std::swap(swapped[0], swapped[1]);
    Status s = ExtentFile::Open(swapped).status();
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("order"), std::string::npos) << s.ToString();
  }
  {
    Status s = ExtentFile::Open({stripes.raw()[0]}).status();
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("stripe"), std::string::npos) << s.ToString();
  }
}

TEST(ExtentHostileTest, CorruptExtentSurfacesAsStickyStatusMidStream) {
  ExtentWriterOptions options;
  options.extent_elements = 8;
  const std::vector<Key> data = Iota(64);
  MemoryExtents stripes(data, 1, options);
  ASSERT_TRUE(stripes.write_stats.ok());
  // Flip one payload byte of extent 4 (at offset header + 4 extents in).
  const uint64_t victim =
      sizeof(ExtentFileHeader) + 4 * (sizeof(ExtentHeader) + 64) +
      sizeof(ExtentHeader) + 3;
  std::vector<uint8_t> bytes = DeviceBytes(stripes.raw()[0]);
  bytes[victim] ^= 0xff;
  auto device = DeviceFrom(bytes);
  auto file = ExtentFile::Open({device.get()});
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    SCOPED_TRACE(IoModeName(mode));
    auto source = OpenExtents(*file, /*run_size=*/8, mode);
    std::vector<Key> run;
    // Intact prefix first: extents 0..3 are clean.
    for (int r = 0; r < 4; ++r) {
      auto more = source->NextRun(&run);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      ASSERT_TRUE(*more);
      EXPECT_EQ(run, std::vector<Key>(data.begin() + r * 8,
                                      data.begin() + (r + 1) * 8));
    }
    // Then the corruption surfaces — and sticks.
    auto bad = source->NextRun(&run);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("CRC"), std::string::npos)
        << bad.status().ToString();
    EXPECT_FALSE(source->NextRun(&run).ok()) << "status must be sticky";
  }
  // Turning verification off skips only the CRC: the flipped payload now
  // decodes (to wrong bytes — that is the documented trade).
  EXPECT_TRUE(Drain(*OpenExtents(*file, /*run_size=*/64, IoMode::kSync,
                                 /*verify_checksums=*/false))
                  .ok());
}

TEST(ExtentHostileTest, AbandonedThreadedReaderJoinsCleanly) {
  ExtentWriterOptions options;
  options.extent_elements = 4;
  MemoryExtents stripes(Iota(256), 3, options);
  ASSERT_TRUE(stripes.write_stats.ok());
  auto file = ExtentFile::Open(stripes.raw());
  ASSERT_TRUE(file.ok());
  auto source = OpenExtents(*file, /*run_size=*/10, IoMode::kAsync);
  std::vector<Key> run;
  auto more = source->NextRun(&run);
  ASSERT_TRUE(more.ok());
  // Destructor must close channels and join all stripe threads without
  // draining the stream (no hang, no leak — TSan/ASan watch this).
}

// ------------------------------------------------------ facade ----

TEST(ExtentFacadeTest, SourceSniffsExtentFilesAndChecksKeyType) {
  auto dir = TempDir::Make("extent_facade");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->path() + "/data.ext";
  {
    auto device = FileBlockDevice::Make(path, FileBlockDevice::Mode::kCreate);
    ASSERT_TRUE(device.ok());
    ExtentWriterOptions options;
    options.extent_elements = 16;
    options.codec = ExtentCodec::kDelta;
    ASSERT_TRUE(
        WriteExtents(Iota(100), {device->get()}, options).ok());
    ASSERT_TRUE((*device)->Sync().ok());
  }
  auto source = Source<Key>::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source->size(), 100u);
  EXPECT_NE(source->pack_stats(), nullptr)
      << "compressed sources expose pack accounting";
  ReadOptions read;
  read.run_size = 32;
  auto runs = source->OpenRuns(read);
  auto streamed = Drain(*runs);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(*streamed, Iota(100));
  // Same file, wrong key type: a clean InvalidArgument naming the type.
  auto wrong = Source<uint32_t>::Open(path);
  ASSERT_FALSE(wrong.ok());
  EXPECT_NE(wrong.status().message().find("key type"), std::string::npos)
      << wrong.status().ToString();
}

}  // namespace
}  // namespace opaq
