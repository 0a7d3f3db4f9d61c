// The compressed extent format's test wall: on-disk layout pinned
// byte-for-byte, a committed golden blob that must decode forever,
// round-trips across codecs / extent sizes / stripe counts / ragged tails,
// and hostile-byte coverage — truncations, corrupt CRCs, lying lengths,
// unknown codecs, version skew — all of which must surface as clean
// `Status`, never a crash (a new on-disk format is the riskiest change
// this codebase takes: silent corruption = silently wrong quantiles).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/exact.h"
#include "core/opaq.h"
#include "core/sketch_io.h"
#include "data/dataset.h"
#include "io/block_device.h"
#include "io/codec.h"
#include "io/extent.h"
#include "io/io_mode.h"
#include "io/run_reader.h"
#include "io/tempdir.h"
#include "opaq/source.h"
#include "util/crc32.h"
#include "util/random.h"

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
  // Destructor must close channels and join all lane threads without
  // draining the stream (no hang, no leak — TSan/ASan watch this).
}

// ------------------------------------------------- delta codec ----

// `DeltaCodec::Decompress` decodes most varints two or one per 8-byte load
// and falls back to a byte loop for anything irregular. These rows hold it
// to a plain byte-at-a-time decoder on valid and hostile payloads alike.

/// Byte-at-a-time reference for the delta codec's decode: LEB128 varints of
/// zigzag-folded deltas, all within `width` bytes, with the codec's errors.
Status ReferenceDeltaDecode(const std::vector<uint8_t>& packed,
                            uint32_t width, std::vector<uint8_t>* out) {
  const uint32_t bits = width * 8;
  const uint64_t mask = width == 8 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  const Status overflow =
      Status::IoError("delta extent varint overflows the element width");
  size_t pos = 0;
  uint64_t prev = 0;
  for (size_t i = 0; i < out->size(); i += width) {
    uint64_t folded = 0;
    for (uint32_t shift = 0;; shift += 7) {
      if (shift >= bits) return overflow;  // a byte past the widest varint
      if (pos == packed.size()) {
        return Status::IoError("delta extent truncated mid-varint");
      }
      const uint8_t byte = packed[pos++];
      const uint64_t group = byte & 0x7f;
      if (shift + 7 > bits && (group >> (bits - shift)) != 0) return overflow;
      folded |= group << shift;
      if ((byte & 0x80) == 0) break;
    }
    const uint64_t diff = ((folded >> 1) ^ (0 - (folded & 1))) & mask;
    prev = (prev + diff) & mask;
    std::memcpy(out->data() + i, &prev, width);
  }
  if (pos != packed.size()) {
    return Status::IoError("delta extent has " +
                           std::to_string(packed.size() - pos) +
                           " trailing bytes after the last element");
  }
  return Status::OK();
}

/// LEB128 bytes of `value`.
std::vector<uint8_t> Varint(uint64_t value) {
  std::vector<uint8_t> out;
  do {
    const uint8_t byte = value & 0x7f;
    value >>= 7;
    out.push_back(value != 0 ? byte | 0x80 : byte);
  } while (value != 0);
  return out;
}

/// Decodes `packed` as `elements` words of `width` bytes with the codec and
/// with the reference: same status code and message, same output bytes
/// (on failure too: both stop after the same elements).
void ExpectDecodeMatchesReference(const std::vector<uint8_t>& packed,
                                  uint32_t width, size_t elements,
                                  const std::string& what) {
  SCOPED_TRACE(what + " width=" + std::to_string(width) + " packed=" +
               std::to_string(packed.size()) + " elements=" +
               std::to_string(elements));
  std::vector<uint8_t> expected(elements * width, 0xa5);
  std::vector<uint8_t> actual = expected;
  const Status want = ReferenceDeltaDecode(packed, width, &expected);
  const Status got = GetCodec(ExtentCodec::kDelta)
                         ->Decompress(packed.data(), packed.size(), width,
                                      actual.data(), actual.size());
  EXPECT_EQ(got.code(), want.code());
  EXPECT_EQ(got.message(), want.message());
  EXPECT_EQ(actual, expected);
}

/// Folded deltas of every varint length the width allows, in random order:
/// `per_length` of each, random within its length's value range.
std::vector<uint64_t> FoldedOfEveryLength(uint32_t width, int per_length,
                                          uint64_t seed) {
  const uint32_t bits = width * 8;
  Xoshiro256 rng(seed);
  std::vector<uint64_t> folded;
  for (uint32_t len = 1; 7 * (len - 1) < bits; ++len) {
    const uint32_t lo_bit = 7 * (len - 1);
    const uint32_t hi_bit = std::min(7 * len, bits);  // exclusive
    for (int k = 0; k < per_length; ++k) {
      uint64_t v = rng.Next();
      if (hi_bit < 64) v &= (uint64_t{1} << hi_bit) - 1;
      if (len > 1) v |= uint64_t{1} << lo_bit;
      folded.push_back(v);
    }
  }
  for (size_t i = folded.size(); i > 1; --i) {
    std::swap(folded[i - 1], folded[rng.NextBounded(i)]);
  }
  return folded;
}

std::vector<uint8_t> Concat(const std::vector<uint64_t>& folded) {
  std::vector<uint8_t> out;
  for (uint64_t v : folded) {
    const std::vector<uint8_t> bytes = Varint(v);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

TEST(DeltaCodecTest, RandomStreamsOfEveryVarintLengthMatchTheReference) {
  for (uint32_t width : {4u, 8u}) {
    const size_t max_len = (width * 8 + 6) / 7;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      const std::vector<uint64_t> folded =
          FoldedOfEveryLength(width, 50, seed);
      const std::vector<uint8_t> packed = Concat(folded);
      std::vector<size_t> lengths(max_len + 1, 0);
      for (uint64_t v : folded) ++lengths[Varint(v).size()];
      for (size_t len = 1; len <= max_len; ++len) {
        ASSERT_EQ(lengths[len], 50u) << "length " << len;
      }
      ExpectDecodeMatchesReference(packed, width, folded.size(),
                                   "seed " + std::to_string(seed));
      std::vector<uint8_t> out(folded.size() * width);
      EXPECT_TRUE(GetCodec(ExtentCodec::kDelta)
                      ->Decompress(packed.data(), packed.size(), width,
                                   out.data(), out.size())
                      .ok());
    }
  }
}

TEST(DeltaCodecTest, CompressRoundTripsEveryWidthAndDistribution) {
  const Codec* codec = GetCodec(ExtentCodec::kDelta);
  for (Distribution dist : {Distribution::kUniform, Distribution::kZipf}) {
    DatasetSpec spec;
    spec.n = 5000;
    spec.distribution = dist;
    std::vector<uint64_t> wide = GenerateDataset<uint64_t>(spec);
    std::vector<uint32_t> narrow = GenerateDataset<uint32_t>(spec);
    for (bool sorted : {false, true}) {
      if (sorted) {
        std::sort(wide.begin(), wide.end());
        std::sort(narrow.begin(), narrow.end());
      }
      const auto check = [&](const uint8_t* raw, size_t len, uint32_t width) {
        std::vector<uint8_t> packed;
        ASSERT_TRUE(codec->Compress(raw, len, width, &packed).ok());
        std::vector<uint8_t> out(len);
        ASSERT_TRUE(
            codec->Decompress(packed.data(), packed.size(), width, out.data(),
                              out.size())
                .ok());
        EXPECT_EQ(0, std::memcmp(out.data(), raw, len));
        ExpectDecodeMatchesReference(packed, width, len / width,
                                     sorted ? "sorted" : "shuffled");
      };
      check(reinterpret_cast<const uint8_t*>(wide.data()),
            wide.size() * sizeof(uint64_t), 8);
      check(reinterpret_cast<const uint8_t*>(narrow.data()),
            narrow.size() * sizeof(uint32_t), 4);
    }
  }
}

TEST(DeltaCodecTest, EveryLengthAtEveryOffsetNearTheEnd) {
  // One varint of each length, after `before` and followed by `after`
  // one-byte varints: with the payload's last 8 bytes in view, it starts
  // at every offset where it still fits.
  for (uint32_t width : {4u, 8u}) {
    const std::vector<uint64_t> folded = FoldedOfEveryLength(width, 1, 7);
    for (uint64_t v : folded) {
      for (size_t before = 0; before <= 9; ++before) {
        for (size_t after = 0; after <= 9; ++after) {
          std::vector<uint64_t> stream(before, 3);
          stream.push_back(v);
          stream.insert(stream.end(), after, 0x7f);
          ExpectDecodeMatchesReference(
              Concat(stream), width, stream.size(),
              "length " + std::to_string(Varint(v).size()) + " before " +
                  std::to_string(before) + " after " + std::to_string(after));
        }
      }
    }
  }
}

TEST(DeltaCodecTest, TruncationAtEveryByte) {
  for (uint32_t width : {4u, 8u}) {
    const std::vector<uint64_t> folded = FoldedOfEveryLength(width, 3, 11);
    const std::vector<uint8_t> packed = Concat(folded);
    for (size_t cut = 0; cut < packed.size(); ++cut) {
      ExpectDecodeMatchesReference(
          std::vector<uint8_t>(packed.begin(), packed.begin() + cut), width,
          folded.size(), "cut at " + std::to_string(cut));
    }
  }
}

TEST(DeltaCodecTest, HostileVarints) {
  for (uint32_t width : {4u, 8u}) {
    const size_t max_len = (width * 8 + 6) / 7;
    // Runs of continuation bytes only, short and long.
    for (size_t n = 1; n <= 24; ++n) {
      const std::vector<uint8_t> run(n, 0x80);
      ExpectDecodeMatchesReference(run, width, 1, "0x80 x" + std::to_string(n));
      ExpectDecodeMatchesReference(run, width, 4, "0x80 x" + std::to_string(n));
    }
    // Every value of the widest varint's last byte: bits above the width
    // (>= 0x10 at width 4, >= 0x02 at width 8) overflow. First with room
    // for a whole 8-byte load behind it, then as the payload's last bytes.
    for (uint32_t last = 0; last < 0x100; ++last) {
      std::vector<uint8_t> widest(max_len - 1, 0x80);
      widest.push_back(static_cast<uint8_t>(last));
      std::vector<uint8_t> padded = widest;
      padded.insert(padded.end(), 8, 0x01);
      const std::string what = "last byte " + std::to_string(last);
      ExpectDecodeMatchesReference(widest, width, 1, what);
      ExpectDecodeMatchesReference(padded, width, 9, what + " padded");
    }
    // Over-long varints: one to four bytes past the widest, each ending in
    // a terminator, alone and ahead of more elements.
    for (size_t extra = 1; extra <= 4; ++extra) {
      std::vector<uint8_t> longer(max_len - 1 + extra, 0x81);
      longer.push_back(0x00);
      std::vector<uint8_t> padded = longer;
      padded.insert(padded.end(), 8, 0x02);
      const std::string what = "over-long by " + std::to_string(extra);
      ExpectDecodeMatchesReference(longer, width, 1, what);
      ExpectDecodeMatchesReference(padded, width, 9, what + " padded");
    }
    // Trailing bytes after the last element.
    const std::vector<uint64_t> folded = FoldedOfEveryLength(width, 2, 13);
    for (size_t extra = 1; extra <= 10; ++extra) {
      std::vector<uint8_t> packed = Concat(folded);
      packed.insert(packed.end(), extra, 0x05);
      ExpectDecodeMatchesReference(packed, width, folded.size(),
                                   std::to_string(extra) + " trailing");
    }
  }
}

TEST(DeltaCodecTest, PairedLoadEdgeCases) {
  // Every pair (a, b) of varints below, after `before` one-byte varints and
  // followed by `after` of them, decoded as one element too few (trailing
  // bytes), exactly (odd and even counts) and one too many (truncated).
  // The pairs cover both terminators in one load, a second varint that
  // straddles the load's end, a first varint that fills all 8 bytes, and a
  // second varint that overflows the width or runs past its longest form.
  // 0-2, 40 or 41 leading one-byte varints put `a` first or second in its
  // load, and at every offset within it.
  for (uint32_t width : {4u, 8u}) {
    std::vector<std::vector<uint8_t>> varints;
    for (uint64_t v : FoldedOfEveryLength(width, 1, 19)) {
      varints.push_back(Varint(v));
    }
    // 8 bytes at width 8 (7 groups of continuation, then a terminator); an
    // over-long form at width 4.
    std::vector<uint8_t> eight(7, 0xff);
    eight.push_back(0x01);
    varints.push_back(eight);
    // The widest form with bits above the width in its last byte.
    const size_t max_len = (width * 8 + 6) / 7;
    std::vector<uint8_t> overflow(max_len - 1, 0x80);
    overflow.push_back(width == 4 ? 0x1f : 0x7f);
    varints.push_back(overflow);
    // One byte longer than the widest form (width 4: 6 bytes), with groups
    // set and as an over-long zero.
    std::vector<uint8_t> longer(max_len, 0x81);
    longer.push_back(0x00);
    varints.push_back(longer);
    std::vector<uint8_t> longer_zero(max_len, 0x80);
    longer_zero.push_back(0x00);
    varints.push_back(longer_zero);
    for (const std::vector<uint8_t>& a : varints) {
      for (const std::vector<uint8_t>& b : varints) {
        for (size_t before : {0, 1, 2, 40, 41}) {
          for (size_t after : {size_t{0}, size_t{1}, size_t{2}, size_t{7}}) {
            std::vector<uint8_t> packed(before, 0x04);
            packed.insert(packed.end(), a.begin(), a.end());
            packed.insert(packed.end(), b.begin(), b.end());
            packed.insert(packed.end(), after, 0x7e);
            const size_t elements = before + 2 + after;
            const std::string what =
                "a " + std::to_string(a.size()) + " bytes, b " +
                std::to_string(b.size()) + " bytes, before " +
                std::to_string(before) + " after " + std::to_string(after);
            for (size_t count : {elements - 1, elements, elements + 1}) {
              ExpectDecodeMatchesReference(packed, width, count, what);
            }
          }
        }
      }
    }
  }
}

// -------------------------------------------------- lane geometry ----

/// A delta extent file of zipf keys over `stripes` memory devices.
struct ZipfExtents {
  std::vector<Key> data;
  std::unique_ptr<MemoryExtents> stripes;
  Result<ExtentFile> file = Status::Internal("unset");

  ZipfExtents(uint64_t n, int stripe_count, uint64_t extent_elements) {
    DatasetSpec spec;
    spec.n = n;
    spec.distribution = Distribution::kZipf;
    spec.seed = 17;
    data = GenerateDataset<Key>(spec);
    ExtentWriterOptions options;
    options.extent_elements = extent_elements;
    options.codec = ExtentCodec::kDelta;
    stripes = std::make_unique<MemoryExtents>(data, stripe_count, options);
    OPAQ_CHECK_OK(stripes->write_stats.status());
    file = ExtentFile::Open(stripes->raw());
    OPAQ_CHECK_OK(file.status());
  }
};

std::vector<uint8_t> SketchBytes(const ExtentFile& file, uint64_t run_size,
                                 IoMode mode, uint64_t depth) {
  OpaqConfig config;
  config.run_size = run_size;
  config.samples_per_run = 50;
  config.io_mode = mode;
  config.prefetch_depth = depth;
  OpaqSketch<Key> sketch(config);
  OPAQ_CHECK_OK(sketch.Consume(ExtentFileProvider<Key>(&file)));
  MemoryBlockDevice out;
  OPAQ_CHECK_OK(SaveSampleList(sketch.FinalizeSampleList(), &out));
  return DeviceBytes(&out);
}

TEST(ExtentLaneGeometryTest, EveryLaneCountGivesTheSyncSketchAndTrueAnswers) {
  // Decode lanes D = max(stripes, min(depth + 1, cores)): with 1 and 2
  // stripes D exceeds the stripe count (on any machine with 2+ cores), with
  // 5 it equals it, and it is never below it. Runs (700) straddle extents
  // (500), so chunks are spliced across lanes.
  constexpr uint64_t kRun = 700;
  for (int stripes : {1, 2, 5}) {
    ZipfExtents extents(20000, stripes, 500);
    const ExtentFile& file = *extents.file;
    std::vector<Key> sorted = extents.data;
    std::sort(sorted.begin(), sorted.end());
    const std::vector<uint8_t> sync_bytes =
        SketchBytes(file, kRun, IoMode::kSync, 2);
    OpaqConfig config;
    config.run_size = kRun;
    config.samples_per_run = 50;
    OpaqSketch<Key> sketch(config);
    ASSERT_TRUE(sketch.Consume(ExtentFileProvider<Key>(&file)).ok());
    const auto estimates = sketch.Finalize().EquiQuantiles(10);
    for (uint64_t depth : {1u, 2u, 8u}) {
      SCOPED_TRACE("stripes " + std::to_string(stripes) + " depth " +
                   std::to_string(depth));
      const ReadOptions options{kRun, IoMode::kAsync, depth, true};
      const ChunkGrid grid = ExtentDecodeGrid(file, options);
      EXPECT_GE(grid.lanes, static_cast<uint32_t>(stripes));
      EXPECT_LE(grid.lanes * grid.lane_depth,
                std::max<uint64_t>(grid.lanes, depth + 1));
      EXPECT_EQ(SketchBytes(file, kRun, IoMode::kAsync, depth), sync_bytes);
      auto exact = ExactQuantilesSecondPass(ExtentFileProvider<Key>(&file),
                                            estimates, options);
      ASSERT_TRUE(exact.ok()) << exact.status().ToString();
      ASSERT_EQ(exact->size(), estimates.size());
      for (size_t i = 0; i < estimates.size(); ++i) {
        EXPECT_EQ((*exact)[i], sorted[estimates[i].target_rank - 1])
            << "quantile " << i;
      }
    }
  }
}

TEST(ExtentLaneGeometryTest, ReadAheadStaysWithinTheBudget) {
  // Extents decoded but not yet consumed never exceed max(D, depth + 1):
  // the budget is spread over the lanes, not granted to each. With no
  // consumer the lanes fill exactly their share and stop; after each
  // consumed run they top it up by one.
  for (int stripes : {1, 2, 5}) {
    for (uint64_t depth : {1u, 2u, 8u}) {
      SCOPED_TRACE("stripes " + std::to_string(stripes) + " depth " +
                   std::to_string(depth));
      ZipfExtents extents(40 * 100, stripes, 100);
      const ExtentFile& file = *extents.file;
      const ReadOptions options{100, IoMode::kAsync, depth, true};
      const ChunkGrid grid = ExtentDecodeGrid(file, options);
      const uint64_t ahead = grid.lanes * grid.lane_depth;
      ASSERT_LE(ahead, std::max<uint64_t>(grid.lanes, depth + 1));
      const uint64_t before = file.stats().Snapshot().extents;
      const auto decoded = [&] {
        return file.stats().Snapshot().extents - before;
      };
      auto source = ExtentFileProvider<Key>(&file).OpenRuns(options);
      std::vector<Key> run;
      for (uint64_t consumed = 0; consumed < 6; ++consumed) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (decoded() < consumed + ahead &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_EQ(decoded(), consumed + ahead) << "after " << consumed;
        auto more = source->NextRun(&run);
        ASSERT_TRUE(more.ok()) << more.status().ToString();
        ASSERT_TRUE(*more);
      }
    }
  }
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
