// Unit tests for src/io: block devices, throttling, data files, run readers,
// the key-type dispatch and the one dataset opener (probe, Source::Open,
// RunProvider::Read, read-only opens).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "ingest/live_dataset.h"
#include "io/block_device.h"
#include "io/data_file.h"
#include "io/extent.h"
#include "io/run_reader.h"
#include "io/striped_data_file.h"
#include "io/tempdir.h"
#include "io/throttled_device.h"
#include "opaq/source.h"
#include "util/timer.h"

namespace opaq {
namespace {

// ---------------------------------------------------------------- Devices --

TEST(MemoryBlockDeviceTest, WriteThenReadRoundTrips) {
  MemoryBlockDevice dev;
  const char data[] = "hello, disk";
  ASSERT_TRUE(dev.WriteAt(0, data, sizeof(data)).ok());
  char buf[sizeof(data)] = {0};
  ASSERT_TRUE(dev.ReadAt(0, buf, sizeof(data)).ok());
  EXPECT_STREQ(buf, "hello, disk");
}

TEST(MemoryBlockDeviceTest, WriteExtendsSize) {
  MemoryBlockDevice dev;
  uint64_t x = 42;
  ASSERT_TRUE(dev.WriteAt(100, &x, sizeof(x)).ok());
  auto size = dev.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 108u);
}

TEST(MemoryBlockDeviceTest, ReadPastEndFails) {
  MemoryBlockDevice dev;
  uint64_t x = 1;
  ASSERT_TRUE(dev.WriteAt(0, &x, sizeof(x)).ok());
  char buf[16];
  Status s = dev.ReadAt(4, buf, 16);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(MemoryBlockDeviceTest, CountsStats) {
  MemoryBlockDevice dev;
  uint64_t x = 7;
  ASSERT_TRUE(dev.WriteAt(0, &x, 8).ok());
  ASSERT_TRUE(dev.WriteAt(8, &x, 8).ok());
  ASSERT_TRUE(dev.ReadAt(0, &x, 8).ok());
  EXPECT_EQ(dev.stats().write_requests.load(), 2u);
  EXPECT_EQ(dev.stats().bytes_written.load(), 16u);
  EXPECT_EQ(dev.stats().read_requests.load(), 1u);
  EXPECT_EQ(dev.stats().bytes_read.load(), 8u);
}

TEST(FileBlockDeviceTest, CreateWriteReadReopen) {
  auto dir = TempDir::Make();
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->FilePath("dev.bin");
  {
    auto dev = FileBlockDevice::Make(path, FileBlockDevice::Mode::kCreate);
    ASSERT_TRUE(dev.ok());
    int values[4] = {1, 2, 3, 4};
    ASSERT_TRUE((*dev)->WriteAt(0, values, sizeof(values)).ok());
    ASSERT_TRUE((*dev)->Sync().ok());
  }
  {
    auto dev = FileBlockDevice::Make(path, FileBlockDevice::Mode::kOpen);
    ASSERT_TRUE(dev.ok());
    int values[4] = {0};
    ASSERT_TRUE((*dev)->ReadAt(0, values, sizeof(values)).ok());
    EXPECT_EQ(values[0], 1);
    EXPECT_EQ(values[3], 4);
    auto size = (*dev)->Size();
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, sizeof(values));
  }
}

TEST(FileBlockDeviceTest, OpenMissingFileFails) {
  auto dev = FileBlockDevice::Make("/nonexistent/nope.bin",
                                   FileBlockDevice::Mode::kOpen);
  ASSERT_FALSE(dev.ok());
  EXPECT_EQ(dev.status().code(), StatusCode::kIoError);
}

TEST(FileBlockDeviceTest, OpenIsReadOnly) {
  auto dir = TempDir::Make();
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->FilePath("ro.bin");
  {
    auto dev = FileBlockDevice::Make(path, FileBlockDevice::Mode::kCreate);
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE((*dev)->WriteAt(0, "abcd", 4).ok());
  }
  auto reader = FileBlockDevice::Make(path, FileBlockDevice::Mode::kOpen);
  ASSERT_TRUE(reader.ok());
  char buf[4];
  EXPECT_TRUE((*reader)->ReadAt(0, buf, 4).ok());
  EXPECT_FALSE((*reader)->WriteAt(0, "x", 1).ok());
  auto writer = FileBlockDevice::Make(path, FileBlockDevice::Mode::kReadWrite);
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE((*writer)->WriteAt(0, "x", 1).ok());
}

TEST(FileBlockDeviceTest, ReadPastEndFails) {
  auto dir = TempDir::Make();
  ASSERT_TRUE(dir.ok());
  auto dev = FileBlockDevice::Make(dir->FilePath("s.bin"),
                                   FileBlockDevice::Mode::kCreate);
  ASSERT_TRUE(dev.ok());
  char c = 'x';
  ASSERT_TRUE((*dev)->WriteAt(0, &c, 1).ok());
  char buf[8];
  EXPECT_EQ((*dev)->ReadAt(0, buf, 8).code(), StatusCode::kOutOfRange);
}

// ------------------------------------------------------------- Throttling --

TEST(ThrottledDeviceTest, AccountModeChargesModelTime) {
  DiskModel model;
  model.bandwidth_bytes_per_second = 1024 * 1024;  // 1 MB/s
  model.latency_seconds = 0.001;
  ThrottledDevice dev(std::make_unique<MemoryBlockDevice>(), model,
                      ThrottledDevice::Mode::kAccount);
  std::vector<uint8_t> buf(1024 * 1024, 0xAB);
  ASSERT_TRUE(dev.WriteAt(0, buf.data(), buf.size()).ok());
  ASSERT_TRUE(dev.ReadAt(0, buf.data(), buf.size()).ok());
  // Two requests of 1MB at 1MB/s: ~2.002s modeled, ~0 wall.
  EXPECT_NEAR(dev.modeled_seconds(), 2.002, 0.01);
}

TEST(ThrottledDeviceTest, SleepModeActuallyDelays) {
  DiskModel model;
  model.bandwidth_bytes_per_second = 10.0 * 1024 * 1024;
  model.latency_seconds = 0;
  ThrottledDevice dev(std::make_unique<MemoryBlockDevice>(), model,
                      ThrottledDevice::Mode::kSleep);
  std::vector<uint8_t> buf(1024 * 1024, 1);
  WallTimer t;
  ASSERT_TRUE(dev.WriteAt(0, buf.data(), buf.size()).ok());
  // 1MB at 10MB/s = 100ms.
  EXPECT_GE(t.ElapsedSeconds(), 0.08);
}

TEST(ThrottledDeviceTest, ConcurrentRequestsShareOneDisk) {
  // Four threads each read 1 MB at 20 MB/s (50 ms): one disk serves them
  // one after another, so the last finishes after about 200 ms, not 50.
  DiskModel model;
  model.bandwidth_bytes_per_second = 20.0 * 1024 * 1024;
  model.latency_seconds = 0;
  auto memory = std::make_unique<MemoryBlockDevice>();
  std::vector<uint8_t> buf(1024 * 1024, 1);
  ASSERT_TRUE(memory->WriteAt(0, buf.data(), buf.size()).ok());
  ThrottledDevice dev(std::move(memory), model,
                      ThrottledDevice::Mode::kSleep);
  WallTimer t;
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::vector<uint8_t> out(1024 * 1024);
      if (!dev.ReadAt(0, out.data(), out.size()).ok()) ++failures;
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(t.ElapsedSeconds(), 0.19);
}

TEST(ThrottledDeviceTest, ForwardsErrors) {
  DiskModel model;
  ThrottledDevice dev(std::make_unique<MemoryBlockDevice>(), model,
                      ThrottledDevice::Mode::kAccount);
  char buf[8];
  EXPECT_FALSE(dev.ReadAt(0, buf, 8).ok());
}

// -------------------------------------------------------------- DataFile --

TEST(DataFileTest, CreateAndReadBackTyped) {
  MemoryBlockDevice dev;
  std::vector<uint64_t> values(1000);
  std::iota(values.begin(), values.end(), 0);
  auto file = TypedDataFile<uint64_t>::Create(&dev, values.size());
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Write(0, values).ok());

  auto reopened = TypedDataFile<uint64_t>::Open(&dev);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->size(), 1000u);
  auto all = reopened->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, values);
}

TEST(DataFileTest, RejectsWrongKeyType) {
  MemoryBlockDevice dev;
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  auto wrong = TypedDataFile<double>::Open(&dev);
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(DataFileTest, RejectsGarbageHeader) {
  MemoryBlockDevice dev;
  std::vector<uint8_t> junk(64, 0xFF);
  ASSERT_TRUE(dev.WriteAt(0, junk.data(), junk.size()).ok());
  auto file = DataFile::Open(&dev);
  EXPECT_FALSE(file.ok());
}

TEST(DataFileTest, RejectsTruncatedFile) {
  MemoryBlockDevice dev;
  {
    auto file = TypedDataFile<uint64_t>::Create(&dev, 100);
    ASSERT_TRUE(file.ok());
    // Claim 100 elements but write none: Open must notice.
  }
  auto reopened = DataFile::Open(&dev);
  EXPECT_FALSE(reopened.ok());
}

TEST(DataFileTest, RejectsTooSmallDevice) {
  MemoryBlockDevice dev;
  char c = 1;
  ASSERT_TRUE(dev.WriteAt(0, &c, 1).ok());
  EXPECT_FALSE(DataFile::Open(&dev).ok());
}

TEST(DataFileTest, AppendGrowsCount) {
  MemoryBlockDevice dev;
  auto file = TypedDataFile<uint32_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append({1, 2, 3}).ok());
  ASSERT_TRUE(file->Append({4, 5}).ok());
  EXPECT_EQ(file->size(), 5u);
  auto all = file->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, (std::vector<uint32_t>{1, 2, 3, 4, 5}));
}

TEST(DataFileTest, ElementReadPastEndFails) {
  MemoryBlockDevice dev;
  auto file = TypedDataFile<uint32_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append({1, 2, 3}).ok());
  uint32_t buf[4];
  EXPECT_EQ(file->Read(1, 3, buf).code(), StatusCode::kOutOfRange);
}

TEST(DataFileTest, FloatKeysRoundTrip) {
  MemoryBlockDevice dev;
  auto file = TypedDataFile<double>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append({0.5, -1.25, 3.75}).ok());
  auto all = file->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, (std::vector<double>{0.5, -1.25, 3.75}));
}

// ------------------------------------------------------------- RunReader --

TEST(RunReaderTest, SplitsIntoExactRuns) {
  MemoryBlockDevice dev;
  std::vector<uint64_t> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append(values).ok());

  RunReader<uint64_t> reader(&*file, 25);
  EXPECT_EQ(reader.num_runs(), 4u);
  std::vector<uint64_t> buffer;
  int runs = 0;
  uint64_t next_expected = 0;
  while (true) {
    auto more = reader.NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ(buffer.size(), 25u);
    for (uint64_t v : buffer) EXPECT_EQ(v, next_expected++);
    ++runs;
  }
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(next_expected, 100u);
}

TEST(RunReaderTest, ShortTailRun) {
  MemoryBlockDevice dev;
  std::vector<uint64_t> values(10);
  std::iota(values.begin(), values.end(), 0);
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append(values).ok());

  RunReader<uint64_t> reader(&*file, 4);
  EXPECT_EQ(reader.num_runs(), 3u);
  std::vector<uint64_t> buffer;
  std::vector<size_t> lengths;
  while (true) {
    auto more = reader.NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    lengths.push_back(buffer.size());
  }
  EXPECT_EQ(lengths, (std::vector<size_t>{4, 4, 2}));
}

TEST(RunReaderTest, SubRangeReading) {
  MemoryBlockDevice dev;
  std::vector<uint64_t> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append(values).ok());

  // Read only elements [30, 70) as runs of 20.
  RunReader<uint64_t> reader(&*file, 20, 30, 40);
  std::vector<uint64_t> buffer;
  std::vector<uint64_t> seen;
  while (true) {
    auto more = reader.NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    seen.insert(seen.end(), buffer.begin(), buffer.end());
  }
  ASSERT_EQ(seen.size(), 40u);
  EXPECT_EQ(seen.front(), 30u);
  EXPECT_EQ(seen.back(), 69u);
}

TEST(RunReaderTest, SubRangePartitionBoundaryMidRun) {
  // A partition whose boundary falls mid-run: the last run must be cut
  // short at the boundary, reading exactly `count` elements — never into
  // the neighbor's partition. Device byte accounting proves no over-read.
  MemoryBlockDevice dev;
  std::vector<uint64_t> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append(values).ok());

  // Partition [40, 65) as runs of 16: 16 + 9, boundary mid-second-run.
  RunReader<uint64_t> reader(&*file, 16, 40, 25);
  EXPECT_EQ(reader.num_runs(), 2u);
  EXPECT_EQ(reader.remaining(), 25u);
  const uint64_t bytes_before = dev.stats().bytes_read.load();
  std::vector<uint64_t> buffer;
  std::vector<size_t> lengths;
  std::vector<uint64_t> seen;
  while (true) {
    auto more = reader.NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    lengths.push_back(buffer.size());
    seen.insert(seen.end(), buffer.begin(), buffer.end());
  }
  EXPECT_EQ(lengths, (std::vector<size_t>{16, 9}));
  ASSERT_EQ(seen.size(), 25u);
  EXPECT_EQ(seen.front(), 40u);
  EXPECT_EQ(seen.back(), 64u);  // stops before the neighbor's element 65
  EXPECT_EQ(dev.stats().bytes_read.load() - bytes_before,
            25u * sizeof(uint64_t));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(RunReaderTest, SubRangeHugeCountClampsToEof) {
  // Regression: a large (non-sentinel) count used to be added to `first`
  // and wrap around uint64, putting the partition end *before* its start —
  // remaining() underflowed and the partition read nothing. Any oversized
  // count must mean "to end of file".
  MemoryBlockDevice dev;
  std::vector<uint64_t> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append(values).ok());

  RunReader<uint64_t> reader(&*file, 32, 90, UINT64_MAX - 5);
  EXPECT_EQ(reader.remaining(), 10u);
  EXPECT_EQ(reader.num_runs(), 1u);
  std::vector<uint64_t> buffer;
  auto more = reader.NextRun(&buffer);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(buffer.size(), 10u);
  EXPECT_EQ(buffer.front(), 90u);
  EXPECT_EQ(buffer.back(), 99u);
  auto end = reader.NextRun(&buffer);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(*end);
}

TEST(RunReaderTest, EmptyFileYieldsNoRuns) {
  MemoryBlockDevice dev;
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  RunReader<uint64_t> reader(&*file, 10);
  EXPECT_EQ(reader.num_runs(), 0u);
  std::vector<uint64_t> buffer;
  auto more = reader.NextRun(&buffer);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

// --------------------------------------------------------------- TempDir --

TEST(TempDirTest, CreatesAndRemoves) {
  std::string path;
  {
    auto dir = TempDir::Make("opaqtest");
    ASSERT_TRUE(dir.ok());
    path = dir->path();
    EXPECT_TRUE(std::filesystem::exists(path));
    // Touch a file inside to verify recursive removal.
    auto dev = FileBlockDevice::Make(dir->FilePath("f.bin"),
                                     FileBlockDevice::Mode::kCreate);
    ASSERT_TRUE(dev.ok());
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TempDirTest, MoveTransfersOwnership) {
  auto dir = TempDir::Make();
  ASSERT_TRUE(dir.ok());
  std::string path = dir->path();
  TempDir moved = std::move(*dir);
  EXPECT_EQ(moved.path(), path);
  EXPECT_TRUE(std::filesystem::exists(path));
}

// --------------------------------------------------------- VisitKeyType --

TEST(VisitKeyTypeTest, MapsEveryTagToItsKeyType) {
  const std::vector<std::pair<KeyType, std::string>> cases = {
      {KeyType::kU32, "u32"}, {KeyType::kU64, "u64"}, {KeyType::kI64, "i64"},
      {KeyType::kF32, "f32"}, {KeyType::kF64, "f64"}};
  for (const auto& [type, name] : cases) {
    auto visited = VisitKeyType(type, [&](auto key) -> Result<std::string> {
      using K = decltype(key);
      EXPECT_EQ(KeyTraits<K>::kType, type);
      return std::string(KeyTraits<K>::kName);
    });
    ASSERT_TRUE(visited.ok()) << visited.status().ToString();
    EXPECT_EQ(*visited, name);
  }
}

TEST(VisitKeyTypeTest, RejectsUnknownTags) {
  for (uint32_t tag : {0u, 6u}) {
    bool called = false;
    Status status = VisitKeyType(static_cast<KeyType>(tag), [&](auto) {
      called = true;
      return Status::OK();
    });
    EXPECT_FALSE(called);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(std::to_string(tag)), std::string::npos)
        << status.message();
  }
}

// ------------------------------------------------------ Dataset opener --

std::vector<uint32_t> OpenerData() {
  DatasetSpec spec;
  spec.n = 5000;
  spec.seed = 5;
  return GenerateDataset<uint32_t>(spec);
}

/// Creates one device per path.
std::vector<std::unique_ptr<FileBlockDevice>> CreateDevices(
    const std::vector<std::string>& paths) {
  std::vector<std::unique_ptr<FileBlockDevice>> devices;
  for (const std::string& path : paths) {
    auto device = FileBlockDevice::Make(path, FileBlockDevice::Mode::kCreate);
    OPAQ_CHECK_OK(device.status());
    devices.push_back(std::move(device).value());
  }
  return devices;
}

std::vector<BlockDevice*> Raw(
    const std::vector<std::unique_ptr<FileBlockDevice>>& devices) {
  std::vector<BlockDevice*> raw;
  for (const auto& device : devices) raw.push_back(device.get());
  return raw;
}

/// Every layout of the opener data under one directory.
struct OpenerLayouts {
  std::vector<std::string> plain;
  std::vector<std::string> striped;
  std::vector<std::string> extent;
  std::vector<std::string> striped_extent;
  std::vector<std::string> live;

  std::vector<std::vector<std::string>> All() const {
    return {plain, striped, extent, striped_extent, live};
  }
};

OpenerLayouts WriteOpenerLayouts(const TempDir& dir,
                                 const std::vector<uint32_t>& data) {
  OpenerLayouts layouts;
  layouts.plain = {dir.FilePath("plain.opaq")};
  OPAQ_CHECK_OK(WriteDataset(data, CreateDevices(layouts.plain)[0].get()));
  layouts.striped = {dir.FilePath("striped.s0"), dir.FilePath("striped.s1"),
                     dir.FilePath("striped.s2")};
  OPAQ_CHECK_OK(
      WriteStriped(data, Raw(CreateDevices(layouts.striped)), 700).status());
  ExtentWriterOptions options;
  options.extent_elements = 1024;
  options.codec = ExtentCodec::kDelta;
  layouts.extent = {dir.FilePath("extent.opaq")};
  OPAQ_CHECK_OK(
      WriteExtents(data, Raw(CreateDevices(layouts.extent)), options)
          .status());
  layouts.striped_extent = {dir.FilePath("extent.s0"),
                            dir.FilePath("extent.s1")};
  OPAQ_CHECK_OK(WriteExtents(data, Raw(CreateDevices(layouts.striped_extent)),
                             options)
                    .status());
  layouts.live = {dir.FilePath("live")};
  auto plain_writer = LiveDataset<uint32_t>::Create(layouts.live[0]);
  OPAQ_CHECK_OK(plain_writer.status());
  OPAQ_CHECK_OK(plain_writer->Append({data.begin(), data.begin() + 2000}));
  LiveDatasetOptions packed;
  packed.pack = true;
  packed.extent_elements = 512;
  auto packed_writer = LiveDataset<uint32_t>::Open(layouts.live[0], packed);
  OPAQ_CHECK_OK(packed_writer.status());
  OPAQ_CHECK_OK(packed_writer->Append({data.begin() + 2000, data.end()}));
  return layouts;
}

TEST(DatasetOpenerTest, ProbeNamesTheKeyTypeOfEveryLayout) {
  auto dir = TempDir::Make("opaq-probe");
  ASSERT_TRUE(dir.ok());
  const OpenerLayouts layouts = WriteOpenerLayouts(*dir, OpenerData());
  for (const std::vector<std::string>& paths : layouts.All()) {
    auto type = ProbeKeyType(paths);
    ASSERT_TRUE(type.ok()) << paths[0] << ": " << type.status().ToString();
    EXPECT_EQ(*type, KeyType::kU32) << paths[0];
  }
  // A double-keyed file probes as f64: the tag comes from the header.
  const std::string doubles = dir->FilePath("doubles.opaq");
  OPAQ_CHECK_OK(WriteDataset(std::vector<double>{1.5, 2.5},
                             CreateDevices({doubles})[0].get()));
  auto type = ProbeKeyType({doubles});
  ASSERT_TRUE(type.ok()) << type.status().ToString();
  EXPECT_EQ(*type, KeyType::kF64);
}

TEST(DatasetOpenerTest, ProbeRejectsNoPathsAndForeignFiles) {
  EXPECT_EQ(ProbeKeyType({}).status().code(), StatusCode::kInvalidArgument);
  auto dir = TempDir::Make("opaq-probe-foreign");
  ASSERT_TRUE(dir.ok());
  const std::string foreign = dir->FilePath("notes.txt");
  ASSERT_TRUE(CreateDevices({foreign})[0]->WriteAt(0, "plain text!", 11).ok());
  auto type = ProbeKeyType({foreign});
  EXPECT_EQ(type.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(type.status().message().find(foreign), std::string::npos)
      << type.status().message();
  EXPECT_FALSE(ProbeKeyType({dir->FilePath("missing.opaq")}).ok());
}

TEST(DatasetOpenerTest, OpenReadsEveryLayoutAndRejectsMismatches) {
  auto dir = TempDir::Make("opaq-open");
  ASSERT_TRUE(dir.ok());
  const std::vector<uint32_t> data = OpenerData();
  const OpenerLayouts layouts = WriteOpenerLayouts(*dir, data);
  const std::vector<uint64_t> stripes = {1, 3, 1, 2, 1};
  const std::vector<bool> extent = {false, false, true, true, false};
  const auto all = layouts.All();
  for (size_t i = 0; i < all.size(); ++i) {
    SCOPED_TRACE(all[i][0]);
    auto source = Source<uint32_t>::Open(all[i]);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    EXPECT_EQ(source->size(), data.size());
    EXPECT_EQ(source->stripes(), stripes[i]);
    EXPECT_EQ(source->extent_file() != nullptr, extent[i]);
    // Random-access reads, across stripe, extent and segment boundaries.
    std::vector<uint32_t> got(3000);
    ASSERT_TRUE(source->provider().Read(1000, got.size(), got.data()).ok());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + 1000));
    EXPECT_EQ(source->provider().Read(data.size() - 1, 2, got.data()).code(),
              StatusCode::kOutOfRange);
    // The wrong key type is a clean error, never an abort.
    EXPECT_EQ(Source<double>::Open(all[i]).status().code(),
              StatusCode::kInvalidArgument);
  }
  // A plain data file is exactly one path.
  EXPECT_EQ(Source<uint32_t>::Open({layouts.plain[0], layouts.plain[0]})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(Source<uint32_t>::Open(std::vector<std::string>{}).ok());
}

TEST(DatasetOpenerTest, ProviderReadMatchesDataOnEveryLocalBackend) {
  const std::vector<uint32_t> data = OpenerData();
  Source<uint32_t> memory = Source<uint32_t>::FromVector(data);
  std::vector<uint32_t> got(100);
  ASSERT_TRUE(memory.provider().Read(4900, 100, got.data()).ok());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + 4900));
  EXPECT_EQ(memory.provider().Read(4901, 100, got.data()).code(),
            StatusCode::kOutOfRange);

  auto dir = TempDir::Make("opaq-tail-read");
  ASSERT_TRUE(dir.ok());
  const OpenerLayouts layouts = WriteOpenerLayouts(*dir, data);
  auto tail = Source<uint32_t>::OpenLive(layouts.live[0], 2000);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_TRUE(tail->provider().Read(0, 100, got.data()).ok());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + 2000));
  EXPECT_EQ(tail->provider().Read(2950, 100, got.data()).code(),
            StatusCode::kOutOfRange);
}

TEST(DatasetOpenerTest, ReadersNeedNoWritePermission) {
  auto dir = TempDir::Make("opaq-readonly");
  ASSERT_TRUE(dir.ok());
  const std::vector<uint32_t> data = OpenerData();
  const OpenerLayouts layouts = WriteOpenerLayouts(*dir, data);
  namespace fs = std::filesystem;
  const fs::perms read_only =
      fs::perms::owner_read | fs::perms::group_read | fs::perms::others_read;
  fs::permissions(layouts.plain[0], read_only);
  if (geteuid() == 0 ||
      FileBlockDevice::Make(layouts.plain[0],
                            FileBlockDevice::Mode::kReadWrite)
          .ok()) {
    GTEST_SKIP() << "this process ignores file mode bits (root, or "
                    "CAP_DAC_OVERRIDE), so a read-only dataset cannot be "
                    "simulated";
  }
  const fs::perms read_exec = read_only | fs::perms::owner_exec |
                              fs::perms::group_exec | fs::perms::others_exec;
  // The live directory stays traversable (0555) with 0444 files inside.
  for (const auto& entry : fs::directory_iterator(layouts.live[0])) {
    fs::permissions(entry.path(), read_only);
  }
  fs::permissions(layouts.live[0], read_exec);
  fs::permissions(layouts.extent[0], read_only);
  for (const std::vector<std::string>& paths :
       {layouts.plain, layouts.extent, layouts.live}) {
    auto source = Source<uint32_t>::Open(paths);
    EXPECT_TRUE(source.ok()) << paths[0] << ": "
                             << source.status().ToString();
    if (source.ok()) {
      EXPECT_EQ(source->size(), data.size());
    }
  }
  // Let the TempDir remove what it made.
  fs::permissions(layouts.live[0], fs::perms::owner_all);
}

}  // namespace
}  // namespace opaq
