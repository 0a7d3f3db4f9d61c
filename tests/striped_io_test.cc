// Unit tests for the striped multi-disk storage backend: chunk geometry,
// header validation at Open, scatter/gather reads and writes, and the
// striped provider's ordering contract (threaded and inline modes).

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "data/dataset.h"
#include "io/block_device.h"
#include "io/run_reader.h"
#include "io/striped_data_file.h"
#include "io/striped_run_source.h"
#include "io/tempdir.h"

namespace opaq {
namespace {

using Key = uint64_t;

// A striped file over fresh memory devices, kept alive together.
struct MemoryStripes {
  std::vector<std::unique_ptr<MemoryBlockDevice>> devices;
  Result<StripedDataFile<Key>> file = Status::Internal("unset");

  MemoryStripes(const std::vector<Key>& data, int stripes,
                uint64_t chunk_elements) {
    std::vector<BlockDevice*> raw;
    for (int s = 0; s < stripes; ++s) {
      devices.push_back(std::make_unique<MemoryBlockDevice>());
      raw.push_back(devices.back().get());
    }
    file = WriteStriped(data, raw, chunk_elements);
  }

  std::vector<BlockDevice*> raw() const {
    std::vector<BlockDevice*> out;
    for (const auto& device : devices) out.push_back(device.get());
    return out;
  }
};

std::vector<Key> Iota(uint64_t n) {
  std::vector<Key> out(n);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

TEST(StripedDataFileTest, RoundTripsAcrossGeometries) {
  struct Case {
    uint64_t n;
    int stripes;
    uint64_t chunk;
  };
  const Case kCases[] = {
      {0, 2, 8},     // empty dataset
      {1, 4, 8},     // single element
      {64, 1, 8},    // degenerate single stripe
      {64, 2, 8},    // chunks divide evenly
      {100, 3, 7},   // ragged final chunk, uneven stripes
      {99, 4, 100},  // one partial chunk smaller than the chunk size
      {1000, 4, 1},  // element-granular striping
  };
  for (const Case& c : kCases) {
    std::vector<Key> data = Iota(c.n);
    MemoryStripes stripes(data, c.stripes, c.chunk);
    ASSERT_TRUE(stripes.file.ok())
        << stripes.file.status().ToString() << " n=" << c.n;
    EXPECT_EQ(stripes.file->size(), c.n);
    EXPECT_EQ(stripes.file->num_stripes(), static_cast<uint32_t>(c.stripes));
    auto all = stripes.file->ReadAll();
    ASSERT_TRUE(all.ok()) << "n=" << c.n;
    EXPECT_EQ(*all, data) << "n=" << c.n << " stripes=" << c.stripes
                          << " chunk=" << c.chunk;
  }
}

TEST(StripedDataFileTest, PlacesChunksRoundRobin) {
  // 6 chunks of 4 elements over 3 stripes: stripe s must hold chunks s and
  // s+3 back to back after its header.
  std::vector<Key> data = Iota(24);
  MemoryStripes stripes(data, 3, 4);
  ASSERT_TRUE(stripes.file.ok());
  for (uint32_t s = 0; s < 3; ++s) {
    std::vector<Key> on_stripe(8);
    ASSERT_TRUE(stripes.devices[s]
                    ->ReadAt(sizeof(StripeFileHeader), on_stripe.data(),
                             8 * sizeof(Key))
                    .ok());
    std::vector<Key> expected;
    for (uint64_t c : {uint64_t{s}, uint64_t{s} + 3}) {
      for (uint64_t i = 0; i < 4; ++i) expected.push_back(c * 4 + i);
    }
    EXPECT_EQ(on_stripe, expected) << "stripe " << s;
  }
  EXPECT_EQ(stripes.file->StripeElements(0), 8u);
}

TEST(StripedDataFileTest, StripeElementsMatchesBruteForce) {
  // Open() trusts the closed-form StripeElements for its truncation check;
  // pin it against the per-chunk walk across ragged geometries.
  for (uint64_t n : {0u, 1u, 7u, 99u, 100u, 1000u}) {
    for (int stripes : {1, 2, 3, 5}) {
      for (uint64_t chunk : {1u, 7u, 10u, 128u}) {
        MemoryStripes striped(Iota(n), stripes, chunk);
        ASSERT_TRUE(striped.file.ok());
        uint64_t total = 0;
        for (uint32_t s = 0; s < striped.file->num_stripes(); ++s) {
          uint64_t brute = 0;
          for (uint64_t c = s; c < striped.file->num_chunks();
               c += striped.file->num_stripes()) {
            brute += striped.file->ChunkLength(c);
          }
          EXPECT_EQ(striped.file->StripeElements(s), brute)
              << "n=" << n << " stripes=" << stripes << " chunk=" << chunk
              << " s=" << s;
          total += brute;
        }
        EXPECT_EQ(total, n);
      }
    }
  }
}

TEST(StripedDataFileTest, SubRangeReadsCrossChunkAndStripeBoundaries) {
  std::vector<Key> data = Iota(103);
  MemoryStripes stripes(data, 4, 10);
  ASSERT_TRUE(stripes.file.ok());
  for (uint64_t first : {0u, 3u, 9u, 10u, 39u, 95u}) {
    for (uint64_t count : {1u, 7u, 10u, 11u, 64u}) {
      if (first + count > data.size()) continue;
      std::vector<Key> out(count);
      ASSERT_TRUE(stripes.file->Read(first, count, out.data()).ok());
      EXPECT_EQ(out, std::vector<Key>(data.begin() + first,
                                      data.begin() + first + count))
          << "first=" << first << " count=" << count;
    }
  }
}

TEST(StripedDataFileTest, ReadPastEndIsOutOfRange) {
  MemoryStripes stripes(Iota(50), 2, 8);
  ASSERT_TRUE(stripes.file.ok());
  std::vector<Key> out(10);
  EXPECT_EQ(stripes.file->Read(45, 10, out.data()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(stripes.file->Read(51, 1, out.data()).code(),
            StatusCode::kOutOfRange);
  // A huge count must not wrap around the end computation.
  EXPECT_EQ(stripes.file->Read(1, UINT64_MAX, out.data()).code(),
            StatusCode::kOutOfRange);
}

TEST(StripedDataFileTest, AppendPersistsAcrossReopen) {
  MemoryStripes stripes(Iota(10), 3, 4);
  ASSERT_TRUE(stripes.file.ok());
  std::vector<Key> extra{100, 101, 102, 103, 104};
  ASSERT_TRUE(stripes.file->Append(extra).ok());
  EXPECT_EQ(stripes.file->size(), 15u);

  auto reopened = StripedDataFile<Key>::Open(stripes.raw());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->size(), 15u);
  auto all = reopened->ReadAll();
  ASSERT_TRUE(all.ok());
  std::vector<Key> expected = Iota(10);
  expected.insert(expected.end(), extra.begin(), extra.end());
  EXPECT_EQ(*all, expected);
}

TEST(StripedDataFileTest, OpenRejectsMisorderedStripes) {
  MemoryStripes stripes(Iota(64), 3, 8);
  ASSERT_TRUE(stripes.file.ok());
  std::vector<BlockDevice*> swapped = stripes.raw();
  std::swap(swapped[0], swapped[2]);
  auto reopened = StripedDataFile<Key>::Open(swapped);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(StripedDataFileTest, OpenRejectsWrongStripeCount) {
  MemoryStripes stripes(Iota(64), 3, 8);
  ASSERT_TRUE(stripes.file.ok());
  std::vector<BlockDevice*> subset = stripes.raw();
  subset.pop_back();
  auto reopened = StripedDataFile<Key>::Open(subset);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(StripedDataFileTest, OpenRejectsForeignStripe) {
  MemoryStripes a(Iota(64), 2, 8);
  MemoryStripes b(Iota(32), 2, 8);  // different geometry
  ASSERT_TRUE(a.file.ok());
  ASSERT_TRUE(b.file.ok());
  std::vector<BlockDevice*> mixed{a.devices[0].get(), b.devices[1].get()};
  auto reopened = StripedDataFile<Key>::Open(mixed);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(StripedDataFileTest, OpenRejectsWrongKeyType) {
  MemoryStripes stripes(Iota(64), 2, 8);
  ASSERT_TRUE(stripes.file.ok());
  auto reopened = StripedDataFile<double>::Open(stripes.raw());
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(StripedDataFileTest, OpenRejectsTruncatedStripe) {
  MemoryStripes stripes(Iota(64), 2, 8);
  ASSERT_TRUE(stripes.file.ok());
  // Rebuild stripe 1 shorter than its share: copy the header only.
  StripeFileHeader header;
  ASSERT_TRUE(
      stripes.devices[1]->ReadAt(0, &header, sizeof(header)).ok());
  MemoryBlockDevice short_stripe;
  ASSERT_TRUE(short_stripe.WriteAt(0, &header, sizeof(header)).ok());
  std::vector<BlockDevice*> devices{stripes.devices[0].get(), &short_stripe};
  auto reopened = StripedDataFile<Key>::Open(devices);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(StripedDataFileTest, OpenRejectsGarbage) {
  MemoryBlockDevice junk;
  std::vector<uint8_t> bytes(128, 0x5A);
  ASSERT_TRUE(junk.WriteAt(0, bytes.data(), bytes.size()).ok());
  std::vector<BlockDevice*> devices{&junk};
  auto opened = StripedDataFile<Key>::Open(devices);
  EXPECT_FALSE(opened.ok());
}

TEST(StripedDataFileTest, CreateRejectsBadShapes) {
  MemoryBlockDevice device;
  std::vector<BlockDevice*> one{&device};
  EXPECT_FALSE(StripedDataFile<Key>::Create(one, 0).ok());  // zero chunk
  EXPECT_FALSE(
      StripedDataFile<Key>::Create(std::vector<BlockDevice*>{}, 8).ok());
  std::vector<BlockDevice*> with_null{&device, nullptr};
  EXPECT_FALSE(StripedDataFile<Key>::Create(with_null, 8).ok());
}

TEST(StripedDataFileTest, WorksOnRealFiles) {
  auto dir = TempDir::Make();
  ASSERT_TRUE(dir.ok());
  DatasetSpec spec;
  spec.n = 5000;
  spec.distribution = Distribution::kZipf;
  std::vector<Key> data = GenerateDataset<Key>(spec);
  {
    std::vector<std::unique_ptr<FileBlockDevice>> devices;
    std::vector<BlockDevice*> raw;
    for (int s = 0; s < 3; ++s) {
      auto device = FileBlockDevice::Make(
          dir->FilePath("data.s" + std::to_string(s)),
          FileBlockDevice::Mode::kCreate);
      ASSERT_TRUE(device.ok());
      devices.push_back(std::move(device).value());
      raw.push_back(devices.back().get());
    }
    ASSERT_TRUE(WriteStriped(data, raw, 512).ok());
    for (auto& device : devices) ASSERT_TRUE(device->Sync().ok());
  }
  std::vector<std::unique_ptr<FileBlockDevice>> devices;
  std::vector<BlockDevice*> raw;
  for (int s = 0; s < 3; ++s) {
    auto device = FileBlockDevice::Make(
        dir->FilePath("data.s" + std::to_string(s)),
        FileBlockDevice::Mode::kOpen);
    ASSERT_TRUE(device.ok());
    devices.push_back(std::move(device).value());
    raw.push_back(devices.back().get());
  }
  auto file = StripedDataFile<Key>::Open(raw);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  auto all = file->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, data);
}

// ---------------------------------------------------- StripedFileProvider --

// Opens a run stream over `file` through its provider.
std::unique_ptr<RunSource<Key>> OpenStriped(const StripedDataFile<Key>& file,
                                            uint64_t run_size, IoMode mode,
                                            uint64_t depth = 2,
                                            uint64_t first = 0,
                                            uint64_t count = UINT64_MAX) {
  return StripedFileProvider<Key>(&file).OpenRuns(
      ReadOptions{run_size, mode, depth, true}, first, count);
}

std::vector<Key> Drain(RunSource<Key>* source,
                       std::vector<uint64_t>* run_lengths = nullptr) {
  std::vector<Key> buffer, seen;
  while (true) {
    auto more = source->NextRun(&buffer);
    OPAQ_CHECK_OK(more.status());
    if (!*more) break;
    if (run_lengths != nullptr) run_lengths->push_back(buffer.size());
    seen.insert(seen.end(), buffer.begin(), buffer.end());
  }
  return seen;
}

TEST(StripedFileProviderTest, DeliversExactRunOrder) {
  // Every (stripes, chunk, run) shape must reproduce the plain reader's run
  // stream exactly: same run lengths, same contents, same order.
  std::vector<Key> data = Iota(10007);  // ragged everywhere
  for (int stripes : {1, 2, 4}) {
    for (uint64_t chunk : {64u, 100u, 1000u, 4096u}) {
      for (uint64_t run : {100u, 128u, 999u, 20000u}) {
        MemoryStripes striped(data, stripes, chunk);
        ASSERT_TRUE(striped.file.ok());
        for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
          auto source = OpenStriped(*striped.file, run, mode);
          std::vector<uint64_t> lengths;
          EXPECT_EQ(Drain(source.get(), &lengths), data)
              << "stripes=" << stripes << " chunk=" << chunk
              << " run=" << run << " mode=" << IoModeName(mode);
          // Run shape must match the plain RunReader contract.
          for (size_t i = 0; i + 1 < lengths.size(); ++i) {
            EXPECT_EQ(lengths[i], run);
          }
          if (!lengths.empty()) {
            EXPECT_EQ(lengths.back(),
                      data.size() % run == 0 ? run : data.size() % run);
          }
        }
      }
    }
  }
}

TEST(StripedFileProviderTest, HonorsSubRanges) {
  std::vector<Key> data = Iota(1000);
  MemoryStripes striped(data, 3, 32);
  ASSERT_TRUE(striped.file.ok());
  MemoryBlockDevice plain;
  ASSERT_TRUE(WriteDataset(data, &plain).ok());
  auto plain_file = TypedDataFile<Key>::Open(&plain);
  ASSERT_TRUE(plain_file.ok());

  struct Range {
    uint64_t first, count;
  };
  for (const Range& r : {Range{130, 333}, Range{0, 0}, Range{999, 100},
                         Range{1000, 5}, Range{32, UINT64_MAX},
                         Range{7, 32}}) {
    RunReader<Key> reference(&*plain_file, 64, r.first, r.count);
    std::vector<Key> expected = Drain(&reference);
    for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
      auto source = OpenStriped(*striped.file, 64, mode, 3, r.first, r.count);
      EXPECT_EQ(Drain(source.get()), expected)
          << "first=" << r.first << " count=" << r.count
          << " mode=" << IoModeName(mode);
    }
  }
}

TEST(StripedFileProviderTest, ExhaustedSourceKeepsReportingEof) {
  MemoryStripes striped(Iota(100), 2, 16);
  ASSERT_TRUE(striped.file.ok());
  auto source = OpenStriped(*striped.file, 64, IoMode::kAsync);
  std::vector<Key> buffer;
  Drain(source.get());
  for (int i = 0; i < 3; ++i) {
    auto more = source->NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    EXPECT_FALSE(*more);
  }
}

TEST(StripedFileProviderTest, AbandonedMidStreamJoinsCleanly) {
  // Destroying the source with most chunks unconsumed (prefetch rings full,
  // reader threads blocked on Send) must close the pipeline and join every
  // stripe thread — no hang, no leak (asan/tsan gate this).
  MemoryStripes striped(Iota(64 * 1024), 4, 256);
  ASSERT_TRUE(striped.file.ok());
  for (uint64_t depth : {1u, 4u}) {
    auto source = OpenStriped(*striped.file, 1024, IoMode::kAsync, depth);
    std::vector<Key> buffer;
    auto more = source->NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    EXPECT_TRUE(*more);
  }
}

TEST(StripedFileProviderTest, InlineModeIgnoresPrefetchDepth) {
  // kSync maps to inline reads where the depth is meaningless; a bogus
  // depth (e.g. 0 from an unset flag) must not abort — only the threaded
  // mode allocates prefetch rings and enforces the bound.
  MemoryStripes striped(Iota(200), 2, 32);
  ASSERT_TRUE(striped.file.ok());
  auto source = OpenStriped(*striped.file, 64, IoMode::kSync, /*depth=*/0);
  EXPECT_EQ(Drain(source.get()), Iota(200));
}

TEST(StripedFileProviderTest, DepthLargerThanChunkCount) {
  MemoryStripes striped(Iota(300), 2, 50);  // 6 chunks, 3 per stripe
  ASSERT_TRUE(striped.file.ok());
  auto source = OpenStriped(*striped.file, 100, IoMode::kAsync, 16);
  EXPECT_EQ(Drain(source.get()), Iota(300));
}

}  // namespace
}  // namespace opaq
