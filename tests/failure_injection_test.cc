// Failure-injection tests: every layer must surface injected device errors
// as clean Status values — no crashes, no partially-poisoned results.

#include <gtest/gtest.h>

#include <numeric>

#include "core/exact.h"
#include "core/opaq.h"
#include "core/sketch_io.h"
#include "data/dataset.h"
#include "io/async_run_reader.h"
#include "io/codec.h"
#include "io/extent.h"
#include "io/faulty_device.h"
#include "io/run_reader.h"
#include "io/striped_data_file.h"
#include "io/striped_run_source.h"
#include "parallel/parallel_opaq.h"

namespace opaq {
namespace {

// Option builders (designated initializers are C++20; this file is C++17).
FaultyDevice::Options FailReadAt(uint64_t n) {
  FaultyDevice::Options options;
  options.fail_read_at = n;
  return options;
}

FaultyDevice::Options FailWriteAt(
    uint64_t n, StatusCode code = StatusCode::kIoError) {
  FaultyDevice::Options options;
  options.fail_write_at = n;
  options.code = code;
  return options;
}

FaultyDevice::Options TruncateAfterBytes(uint64_t bytes) {
  FaultyDevice::Options options;
  options.truncate_after_bytes = bytes;
  return options;
}

// Opens a run stream over `provider` (any backend) in `mode`.
template <typename Provider>
std::unique_ptr<RunSource<uint64_t>> OpenRuns(const Provider& provider,
                                              uint64_t run_size, IoMode mode,
                                              uint64_t depth) {
  return provider.OpenRuns(ReadOptions{run_size, mode, depth, true});
}

// Builds a data file of `n` keys on a FaultyDevice with `options`.
struct FaultyFixture {
  std::unique_ptr<FaultyDevice> device;
  Result<TypedDataFile<uint64_t>> file = Status::Internal("unset");

  FaultyFixture(uint64_t n, FaultyDevice::Options options) {
    auto inner = std::make_unique<MemoryBlockDevice>();
    DatasetSpec spec;
    spec.n = n;
    OPAQ_CHECK_OK(WriteDataset(GenerateDataset<uint64_t>(spec),
                               inner.get()));
    device = std::make_unique<FaultyDevice>(std::move(inner), options);
    file = TypedDataFile<uint64_t>::Open(device.get());
  }
};

TEST(FaultyDeviceTest, PassesThroughWhenHealthy) {
  FaultyFixture f(1000, {});
  ASSERT_TRUE(f.file.ok());
  auto all = f.file->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 1000u);
}

TEST(FaultyDeviceTest, InjectsConfiguredCode) {
  FaultyDevice dev(std::make_unique<MemoryBlockDevice>(),
                   FailWriteAt(1, StatusCode::kResourceExhausted));
  char c = 'x';
  Status s = dev.WriteAt(0, &c, 1);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // Next write succeeds (only the 1st was poisoned).
  EXPECT_TRUE(dev.WriteAt(0, &c, 1).ok());
}

TEST(FailureInjectionTest, OpenFailsWhenHeaderReadFails) {
  FaultyFixture f(100, FailReadAt(1));
  EXPECT_FALSE(f.file.ok());
  EXPECT_EQ(f.file.status().code(), StatusCode::kIoError);
}

TEST(FailureInjectionTest, RunReaderSurfacesMidStreamError) {
  // Header read (1) succeeds; fail the 3rd data read => second run fails.
  FaultyFixture f(1000, FailReadAt(3));
  ASSERT_TRUE(f.file.ok());
  RunReader<uint64_t> reader(&*f.file, 250);
  std::vector<uint64_t> buffer;
  auto first = reader.NextRun(&buffer);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  auto second = reader.NextRun(&buffer);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kIoError);
}

TEST(FailureInjectionTest, SketchConsumeFileSurfacesError) {
  FaultyFixture f(10000, FailReadAt(4));
  ASSERT_TRUE(f.file.ok());
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  OpaqSketch<uint64_t> sketch(config);
  Status s = sketch.Consume(FileRunProvider<uint64_t>(&*f.file));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // The sketch holds only fully-consumed runs; it can still be finalized
  // soundly over what it saw.
  EXPECT_LT(sketch.elements_consumed(), 10000u);
}

TEST(FailureInjectionTest, OpenRejectsTruncatedDevice) {
  // Device already shorter than the header's promise at Open time: the
  // size check in DataFile::Open must catch it up front.
  FaultyFixture f(1000, TruncateAfterBytes(32 + 500 * sizeof(uint64_t)));
  EXPECT_FALSE(f.file.ok());
  EXPECT_EQ(f.file.status().code(), StatusCode::kInvalidArgument);
}

TEST(FailureInjectionTest, RunReaderSurfacesShortRead) {
  // File opens healthy, then the device "physically" ends mid-way: header
  // (32B) + 500 keys vanish behind the reader's back. The first run fits;
  // the second must fail with OutOfRange, not return partial data.
  FaultyFixture f(1000, {});
  ASSERT_TRUE(f.file.ok());
  f.device->set_truncate_after_bytes(32 + 500 * sizeof(uint64_t));
  RunReader<uint64_t> reader(&*f.file, 400);
  std::vector<uint64_t> buffer;
  auto first = reader.NextRun(&buffer);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  EXPECT_EQ(buffer.size(), 400u);
  auto second = reader.NextRun(&buffer);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kOutOfRange);
}

TEST(FailureInjectionTest, SketchConsumeFileSurfacesShortRead) {
  // A device truncated after Open must stop the one-pass sample phase
  // cleanly: Consume returns OutOfRange, and the sketch holds only
  // the fully-consumed prefix runs.
  FaultyFixture f(10000, {});
  ASSERT_TRUE(f.file.ok());
  f.device->set_truncate_after_bytes(32 + 2500 * sizeof(uint64_t));
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  OpaqSketch<uint64_t> sketch(config);
  Status s = sketch.Consume(FileRunProvider<uint64_t>(&*f.file));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(sketch.elements_consumed(), 2000u);
  EXPECT_EQ(sketch.runs_consumed(), 2u);
}

TEST(FailureInjectionTest, AsyncConsumeFileSurfacesError) {
  // The same mid-stream read failure as the sync test, routed through the
  // prefetching pipeline at every sweep depth: the error must surface as a
  // clean Status from Consume (no hang), the reader thread must be
  // joined by then (asan/tsan gate leaks), and the sketch must hold exactly
  // the same fully-consumed prefix as the sync path.
  for (uint64_t depth : {1u, 2u, 4u, 8u}) {
    FaultyFixture f(10000, FailReadAt(4));  // header + runs 1-2 ok, run 3 dies
    ASSERT_TRUE(f.file.ok());
    OpaqConfig config;
    config.run_size = 1000;
    config.samples_per_run = 100;
    config.io_mode = IoMode::kAsync;
    config.prefetch_depth = depth;
    OpaqSketch<uint64_t> sketch(config);
    Status s = sketch.Consume(FileRunProvider<uint64_t>(&*f.file));
    EXPECT_FALSE(s.ok()) << "depth " << depth;
    EXPECT_EQ(s.code(), StatusCode::kIoError) << "depth " << depth;
    EXPECT_EQ(sketch.runs_consumed(), 2u) << "depth " << depth;
    EXPECT_EQ(sketch.elements_consumed(), 2000u) << "depth " << depth;
  }
}

TEST(FailureInjectionTest, AsyncConsumeFileSurfacesShortRead) {
  // Device truncated behind the reader's back: the async pipeline must
  // deliver the intact prefix runs, then report OutOfRange — never partial
  // data, never a wedged prefetch thread.
  FaultyFixture f(10000, {});
  ASSERT_TRUE(f.file.ok());
  f.device->set_truncate_after_bytes(32 + 2500 * sizeof(uint64_t));
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  config.io_mode = IoMode::kAsync;
  config.prefetch_depth = 4;
  OpaqSketch<uint64_t> sketch(config);
  Status s = sketch.Consume(FileRunProvider<uint64_t>(&*f.file));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(sketch.elements_consumed(), 2000u);
  EXPECT_EQ(sketch.runs_consumed(), 2u);
}

TEST(FailureInjectionTest, AsyncReaderKeepsReportingErrorAfterFailure) {
  // Once the prefetch thread hits a device error, every subsequent NextRun
  // must keep returning that error (not EOF, not a crash).
  FaultyFixture f(1000, FailReadAt(2));  // first data read fails
  ASSERT_TRUE(f.file.ok());
  auto reader =
      OpenRuns(FileRunProvider<uint64_t>(&*f.file), 250, IoMode::kAsync, 2);
  std::vector<uint64_t> buffer;
  auto first = reader->NextRun(&buffer);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kIoError);
  auto second = reader->NextRun(&buffer);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kIoError);
}

TEST(FailureInjectionTest, AsyncReaderAbandonedAfterErrorDoesNotHang) {
  // Construct, let the prefetch thread fail, and destroy without ever
  // consuming: the destructor must still close the pipeline and join.
  FaultyFixture f(1000, FailReadAt(2));
  ASSERT_TRUE(f.file.ok());
  auto reader =
      OpenRuns(FileRunProvider<uint64_t>(&*f.file), 100, IoMode::kAsync, 8);
  // No NextRun at all.
}

TEST(FailureInjectionTest, ExactSecondPassSurfacesError) {
  FaultyFixture healthy(10000, {});
  ASSERT_TRUE(healthy.file.ok());
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  OpaqSketch<uint64_t> sketch(config);
  ASSERT_TRUE(sketch.Consume(FileRunProvider<uint64_t>(&*healthy.file)).ok());
  auto estimate = sketch.Finalize().Quantile(0.5);

  // Same data, but the second pass hits a failing disk.
  FaultyFixture faulty(10000, FailReadAt(6));
  ASSERT_TRUE(faulty.file.ok());
  auto exact = ExactQuantileSecondPass(FileRunProvider<uint64_t>(&*faulty.file),
                                       estimate, config.read_options());
  EXPECT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kIoError);
}

TEST(FailureInjectionTest, SketchSaveSurfacesWriteError) {
  DatasetSpec spec;
  spec.n = 10000;
  auto data = GenerateDataset<uint64_t>(spec);
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  OpaqEstimator<uint64_t> est = EstimateQuantilesInMemory(data, config);
  FaultyDevice dev(std::make_unique<MemoryBlockDevice>(), FailWriteAt(2));
  Status s = SaveSampleList(est.sample_list(), &dev);
  EXPECT_FALSE(s.ok());
}

// Rank 1's disk fails mid-pass; the whole parallel run must come back with
// that error (and not hang or crash), in either I/O mode — under kAsync the
// failing rank must also shut down its prefetch thread before returning.
void RunParallelDiskDeath(IoMode io_mode) {
  const int p = 4;
  std::vector<std::unique_ptr<FaultyDevice>> devices;
  std::vector<TypedDataFile<uint64_t>> files;
  for (int r = 0; r < p; ++r) {
    auto inner = std::make_unique<MemoryBlockDevice>();
    DatasetSpec spec;
    spec.n = 20000;
    spec.seed = r;
    OPAQ_CHECK_OK(WriteDataset(GenerateDataset<uint64_t>(spec),
                               inner.get()));
    FaultyDevice::Options options;
    if (r == 1) options.fail_read_at = 5;
    devices.push_back(
        std::make_unique<FaultyDevice>(std::move(inner), options));
    auto file = TypedDataFile<uint64_t>::Open(devices.back().get());
    ASSERT_TRUE(file.ok());
    files.push_back(std::move(file).value());
  }
  std::vector<FileRunProvider<uint64_t>> providers;
  providers.reserve(files.size());
  for (auto& f : files) providers.emplace_back(&f);
  std::vector<const RunProvider<uint64_t>*> file_ptrs;
  for (const auto& provider : providers) file_ptrs.push_back(&provider);

  Cluster::Options cluster_options;
  cluster_options.num_processors = p;
  Cluster cluster(cluster_options);
  ParallelOpaqOptions options;
  options.config.run_size = 2000;
  options.config.samples_per_run = 100;
  options.config.io_mode = io_mode;
  options.config.prefetch_depth = 2;
  auto result = RunParallelOpaq(cluster, file_ptrs, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(FailureInjectionTest, ParallelRunFailsCleanlyWhenOneDiskDies) {
  RunParallelDiskDeath(IoMode::kSync);
}

TEST(FailureInjectionTest, ParallelAsyncRunFailsCleanlyWhenOneDiskDies) {
  RunParallelDiskDeath(IoMode::kAsync);
}

// ------------------------------------------------------- Striped backend --

// A striped file over 3 memory devices, with the middle stripe wrapped in a
// FaultyDevice — one disk of the array dying while the others stay healthy.
// chunk == run_size, so logical chunk c IS run c and the failure position
// is exactly predictable: with D = 3, chunk 1 is stripe 1's first data
// chunk, so failing stripe 1's read #k kills run 1 + 3*(k - 2) (read #1 is
// the Open-time header read).
struct FaultyStripeFixture {
  static constexpr uint64_t kRunSize = 500;
  static constexpr int kStripes = 3;

  std::vector<std::unique_ptr<BlockDevice>> devices;
  FaultyDevice* faulty = nullptr;  // borrowed view of devices[1]
  Result<StripedDataFile<uint64_t>> file = Status::Internal("unset");

  FaultyStripeFixture(uint64_t n, FaultyDevice::Options options) {
    std::vector<std::unique_ptr<MemoryBlockDevice>> memory;
    std::vector<BlockDevice*> raw;
    for (int s = 0; s < kStripes; ++s) {
      memory.push_back(std::make_unique<MemoryBlockDevice>());
      raw.push_back(memory.back().get());
    }
    DatasetSpec spec;
    spec.n = n;
    OPAQ_CHECK_OK(
        WriteStriped(GenerateDataset<uint64_t>(spec), raw, kRunSize)
            .status());
    for (int s = 0; s < kStripes; ++s) {
      if (s == 1) {
        auto wrapped = std::make_unique<FaultyDevice>(std::move(memory[1]),
                                                      options);
        faulty = wrapped.get();
        devices.push_back(std::move(wrapped));
      } else {
        devices.push_back(std::move(memory[static_cast<size_t>(s)]));
      }
    }
    std::vector<BlockDevice*> opened;
    for (auto& device : devices) opened.push_back(device.get());
    file = StripedDataFile<uint64_t>::Open(opened);
  }
};

TEST(FailureInjectionTest, StripedOpenFailsWhenStripeHeaderDies) {
  FaultyStripeFixture f(6000, FailReadAt(1));
  EXPECT_FALSE(f.file.ok());
  EXPECT_EQ(f.file.status().code(), StatusCode::kIoError);
}

TEST(FailureInjectionTest, StripedConsumeFileSurfacesStripeDeath) {
  // Kill stripe 1 on its second data chunk (read #3 after header + chunk 1):
  // the dying chunk is logical run 4, so exactly runs 0-3 must be consumed,
  // the error must surface as a clean Status from Consume, and every
  // stripe reader thread must be joined by then (asan/tsan gate leaks) — at
  // every prefetch depth, in both threaded and inline modes.
  for (IoMode io_mode : {IoMode::kSync, IoMode::kAsync}) {
    for (uint64_t depth : {1u, 2u, 8u}) {
      FaultyStripeFixture f(6000, FailReadAt(3));
      ASSERT_TRUE(f.file.ok());
      OpaqConfig config;
      config.run_size = FaultyStripeFixture::kRunSize;
      config.samples_per_run = 100;
      config.io_mode = io_mode;
      config.prefetch_depth = depth;
      OpaqSketch<uint64_t> sketch(config);
      Status s = sketch.Consume(StripedFileProvider<uint64_t>(&*f.file));
      EXPECT_FALSE(s.ok()) << IoModeName(io_mode) << " depth " << depth;
      EXPECT_EQ(s.code(), StatusCode::kIoError)
          << IoModeName(io_mode) << " depth " << depth;
      EXPECT_EQ(sketch.runs_consumed(), 4u)
          << IoModeName(io_mode) << " depth " << depth;
      EXPECT_EQ(sketch.elements_consumed(),
                4 * FaultyStripeFixture::kRunSize)
          << IoModeName(io_mode) << " depth " << depth;
      if (io_mode == IoMode::kSync) break;  // depth is a no-op inline
    }
  }
}

TEST(FailureInjectionTest, StripedReaderKeepsReportingErrorAfterFailure) {
  // Both reading modes must latch the failure: a transient device error
  // must not let a retried NextRun silently resume mid-stream.
  for (IoMode mode : {IoMode::kAsync, IoMode::kSync}) {
    FaultyStripeFixture f(6000, FailReadAt(2));  // stripe 1's 1st data chunk
    ASSERT_TRUE(f.file.ok());
    auto source = OpenRuns(StripedFileProvider<uint64_t>(&*f.file),
                           FaultyStripeFixture::kRunSize, mode, 2);
    std::vector<uint64_t> buffer;
    // Run 0 (stripe 0) is intact; run 1 dies; so does every later call —
    // even though the FaultyDevice only poisons one read.
    auto first = source->NextRun(&buffer);
    ASSERT_TRUE(first.ok()) << IoModeName(mode);
    EXPECT_TRUE(*first);
    for (int i = 0; i < 3; ++i) {
      auto failed = source->NextRun(&buffer);
      EXPECT_FALSE(failed.ok()) << IoModeName(mode);
      EXPECT_EQ(failed.status().code(), StatusCode::kIoError)
          << IoModeName(mode);
    }
  }
}

TEST(FailureInjectionTest, StripedReaderAbandonedAfterErrorDoesNotHang) {
  // Let a stripe thread fail, never consume, destroy: the destructor must
  // close every channel and join every thread.
  FaultyStripeFixture f(6000, FailReadAt(2));
  ASSERT_TRUE(f.file.ok());
  auto source = OpenRuns(StripedFileProvider<uint64_t>(&*f.file), 250,
                         IoMode::kAsync, 8);
  // No NextRun at all.
}

TEST(FailureInjectionTest, StripedShortReadSurfacesAsError) {
  // The array opens healthy, then one stripe physically shrinks behind the
  // reader's back: the intact prefix runs arrive, then OutOfRange — never
  // partial data.
  FaultyStripeFixture f(6000, {});
  ASSERT_TRUE(f.file.ok());
  // Keep the header plus one 500-element chunk of stripe 1.
  f.faulty->set_truncate_after_bytes(sizeof(StripeFileHeader) +
                                     500 * sizeof(uint64_t));
  OpaqConfig config;
  config.run_size = FaultyStripeFixture::kRunSize;
  config.samples_per_run = 100;
  config.io_mode = IoMode::kAsync;
  config.prefetch_depth = 2;
  OpaqSketch<uint64_t> sketch(config);
  Status s = sketch.Consume(StripedFileProvider<uint64_t>(&*f.file));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(sketch.runs_consumed(), 4u);  // runs 0-3; run 4 was truncated
}

TEST(FailureInjectionTest, StripedExactSecondPassSurfacesError) {
  FaultyStripeFixture healthy(6000, {});
  ASSERT_TRUE(healthy.file.ok());
  OpaqConfig config;
  config.run_size = FaultyStripeFixture::kRunSize;
  config.samples_per_run = 100;
  OpaqSketch<uint64_t> sketch(config);
  ASSERT_TRUE(
      sketch.Consume(StripedFileProvider<uint64_t>(&*healthy.file)).ok());
  auto estimate = sketch.Finalize().Quantile(0.5);

  FaultyStripeFixture faulty(6000, FailReadAt(3));
  ASSERT_TRUE(faulty.file.ok());
  StripedFileProvider<uint64_t> provider(&*faulty.file);
  ReadOptions options;
  options.run_size = FaultyStripeFixture::kRunSize;
  options.io_mode = IoMode::kAsync;
  auto exact = ExactQuantileSecondPass(provider, estimate, options);
  EXPECT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kIoError);
}

// One rank's striped array loses a disk mid-pass; the whole parallel run
// must come back with that error, with every stripe reader thread joined.
TEST(FailureInjectionTest, ParallelRunFailsCleanlyWhenOneStripeDies) {
  const int p = 3;
  std::vector<std::unique_ptr<FaultyStripeFixture>> ranks;
  std::vector<const RunProvider<uint64_t>*> shards;
  std::vector<std::unique_ptr<StripedFileProvider<uint64_t>>> providers;
  for (int r = 0; r < p; ++r) {
    FaultyDevice::Options options;
    if (r == 1) options.fail_read_at = 4;
    ranks.push_back(std::make_unique<FaultyStripeFixture>(9000, options));
    ASSERT_TRUE(ranks.back()->file.ok());
    providers.push_back(std::make_unique<StripedFileProvider<uint64_t>>(
        &*ranks.back()->file));
    shards.push_back(providers.back().get());
  }
  Cluster::Options cluster_options;
  cluster_options.num_processors = p;
  Cluster cluster(cluster_options);
  ParallelOpaqOptions options;
  options.config.run_size = FaultyStripeFixture::kRunSize;
  options.config.samples_per_run = 100;
  options.config.io_mode = IoMode::kAsync;
  options.config.prefetch_depth = 2;
  auto result = RunParallelOpaq(cluster, shards, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------- Compressed extents --

// A compressed extent file striped over 3 devices with stripe 1 wrapped in
// a FaultyDevice — one disk of a compressed array dying while the others
// stay healthy. extent_elements == run_size, so logical extent e IS run e
// and lives on stripe e % 3. Open costs each stripe exactly 3 reads
// (header, directory, directory CRC) and every extent exactly 1, so
// failing stripe 1's read #k kills extent (run) 1 + 3*(k - 4).
struct FaultyExtentFixture {
  static constexpr uint64_t kRunSize = 500;
  static constexpr int kStripes = 3;

  std::vector<std::unique_ptr<BlockDevice>> devices;
  FaultyDevice* faulty = nullptr;  // borrowed view of devices[1]
  Result<ExtentFile> file = Status::Internal("unset");

  FaultyExtentFixture(uint64_t n, FaultyDevice::Options options) {
    std::vector<std::unique_ptr<MemoryBlockDevice>> memory;
    std::vector<BlockDevice*> raw;
    for (int s = 0; s < kStripes; ++s) {
      memory.push_back(std::make_unique<MemoryBlockDevice>());
      raw.push_back(memory.back().get());
    }
    DatasetSpec spec;
    spec.n = n;
    spec.distribution = Distribution::kZipf;  // so delta actually packs
    ExtentWriterOptions writer_options;
    writer_options.extent_elements = kRunSize;
    writer_options.codec = ExtentCodec::kDelta;
    OPAQ_CHECK_OK(WriteExtents(GenerateDataset<uint64_t>(spec), raw,
                               writer_options)
                      .status());
    for (int s = 0; s < kStripes; ++s) {
      if (s == 1) {
        auto wrapped = std::make_unique<FaultyDevice>(std::move(memory[1]),
                                                      options);
        faulty = wrapped.get();
        devices.push_back(std::move(wrapped));
      } else {
        devices.push_back(std::move(memory[static_cast<size_t>(s)]));
      }
    }
    std::vector<BlockDevice*> opened;
    for (auto& device : devices) opened.push_back(device.get());
    file = ExtentFile::Open(opened);
  }
};

TEST(FailureInjectionTest, ExtentOpenFailsWhenStripeHeaderDies) {
  FaultyExtentFixture f(6000, FailReadAt(1));
  EXPECT_FALSE(f.file.ok());
  EXPECT_EQ(f.file.status().code(), StatusCode::kIoError);
}

TEST(FailureInjectionTest, ExtentOpenFailsWhenDirectoryReadDies) {
  // Reads 2 and 3 are the directory and its CRC — Open must fail cleanly
  // on either, before any extent is ever served.
  for (uint64_t read : {2u, 3u}) {
    FaultyExtentFixture f(6000, FailReadAt(read));
    EXPECT_FALSE(f.file.ok()) << "read " << read;
    EXPECT_EQ(f.file.status().code(), StatusCode::kIoError) << "read "
                                                            << read;
  }
}

TEST(FailureInjectionTest, ExtentConsumeSurfacesStripeDeath) {
  // Kill stripe 1 on its second data extent (read #5 = extent 4): exactly
  // runs 0-3 must be consumed, the error surfaces as a clean Status from
  // Consume, and every decode thread is joined by then (asan/tsan gate
  // leaks) — at every prefetch depth, threaded and inline.
  for (IoMode io_mode : {IoMode::kSync, IoMode::kAsync}) {
    for (uint64_t depth : {1u, 2u, 8u}) {
      FaultyExtentFixture f(6000, FailReadAt(5));
      ASSERT_TRUE(f.file.ok()) << f.file.status().ToString();
      OpaqConfig config;
      config.run_size = FaultyExtentFixture::kRunSize;
      config.samples_per_run = 100;
      config.io_mode = io_mode;
      config.prefetch_depth = depth;
      OpaqSketch<uint64_t> sketch(config);
      Status s = sketch.Consume(ExtentFileProvider<uint64_t>(&*f.file));
      EXPECT_FALSE(s.ok()) << IoModeName(io_mode) << " depth " << depth;
      EXPECT_EQ(s.code(), StatusCode::kIoError)
          << IoModeName(io_mode) << " depth " << depth;
      EXPECT_EQ(sketch.runs_consumed(), 4u)
          << IoModeName(io_mode) << " depth " << depth;
      EXPECT_EQ(sketch.elements_consumed(),
                4 * FaultyExtentFixture::kRunSize)
          << IoModeName(io_mode) << " depth " << depth;
      if (io_mode == IoMode::kSync) break;  // depth is a no-op inline
    }
  }
}

TEST(FailureInjectionTest, ExtentReaderKeepsReportingErrorAfterFailure) {
  // Both decoding modes must latch a mid-extent device error: a retried
  // NextRun must not silently resume the packed stream.
  for (IoMode mode : {IoMode::kAsync, IoMode::kSync}) {
    FaultyExtentFixture f(6000, FailReadAt(4));  // stripe 1's 1st extent
    ASSERT_TRUE(f.file.ok()) << f.file.status().ToString();
    auto source = OpenRuns(ExtentFileProvider<uint64_t>(&*f.file),
                           FaultyExtentFixture::kRunSize, mode, 2);
    std::vector<uint64_t> buffer;
    // Run 0 (extent 0, stripe 0) is intact; run 1 dies; so does every
    // later call — even though the FaultyDevice poisons only one read.
    auto first = source->NextRun(&buffer);
    ASSERT_TRUE(first.ok()) << IoModeName(mode);
    EXPECT_TRUE(*first);
    EXPECT_EQ(buffer.size(), FaultyExtentFixture::kRunSize);
    for (int i = 0; i < 3; ++i) {
      auto failed = source->NextRun(&buffer);
      EXPECT_FALSE(failed.ok()) << IoModeName(mode);
      EXPECT_EQ(failed.status().code(), StatusCode::kIoError)
          << IoModeName(mode);
    }
  }
}

TEST(FailureInjectionTest, ExtentReaderAbandonedAfterErrorDoesNotHang) {
  // Let a decode thread fail, never consume, destroy: the destructor must
  // close every channel and join every thread.
  FaultyExtentFixture f(6000, FailReadAt(4));
  ASSERT_TRUE(f.file.ok()) << f.file.status().ToString();
  auto source = OpenRuns(ExtentFileProvider<uint64_t>(&*f.file), 250,
                         IoMode::kAsync, 8);
  // No NextRun at all.
}

TEST(FailureInjectionTest, ExtentShortReadSurfacesAsError) {
  // The compressed array opens healthy, then one stripe physically shrinks
  // behind the reader's back: the intact prefix runs arrive, then
  // OutOfRange — never partial or misdecoded data.
  FaultyExtentFixture f(6000, {});
  ASSERT_TRUE(f.file.ok()) << f.file.status().ToString();
  // Keep stripe 1's header plus its first stored extent (extent 1), so
  // extent 4 is the first to fall off the end.
  f.faulty->set_truncate_after_bytes(sizeof(ExtentFileHeader) +
                                     f.file->StoredExtentBytes(1));
  OpaqConfig config;
  config.run_size = FaultyExtentFixture::kRunSize;
  config.samples_per_run = 100;
  config.io_mode = IoMode::kAsync;
  config.prefetch_depth = 2;
  OpaqSketch<uint64_t> sketch(config);
  Status s = sketch.Consume(ExtentFileProvider<uint64_t>(&*f.file));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(sketch.runs_consumed(), 4u);  // runs 0-3; run 4 was truncated
}

TEST(FailureInjectionTest, ExtentExactSecondPassSurfacesError) {
  FaultyExtentFixture healthy(6000, {});
  ASSERT_TRUE(healthy.file.ok());
  OpaqConfig config;
  config.run_size = FaultyExtentFixture::kRunSize;
  config.samples_per_run = 100;
  OpaqSketch<uint64_t> sketch(config);
  ASSERT_TRUE(
      sketch.Consume(ExtentFileProvider<uint64_t>(&*healthy.file)).ok());
  auto estimate = sketch.Finalize().Quantile(0.5);

  FaultyExtentFixture faulty(6000, FailReadAt(5));
  ASSERT_TRUE(faulty.file.ok());
  ExtentFileProvider<uint64_t> provider(&*faulty.file);
  ReadOptions options;
  options.run_size = FaultyExtentFixture::kRunSize;
  options.io_mode = IoMode::kAsync;
  auto exact = ExactQuantileSecondPass(provider, estimate, options);
  EXPECT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kIoError);
}

TEST(FailureInjectionTest, SingleStripeExtentAsyncSurfacesError) {
  // The 1-stripe compressed path (one decode thread) must behave exactly
  // like the striped one: intact prefix, clean sticky error, joined thread.
  auto memory = std::make_unique<MemoryBlockDevice>();
  DatasetSpec spec;
  spec.n = 4000;
  spec.distribution = Distribution::kZipf;
  ExtentWriterOptions writer_options;
  writer_options.extent_elements = 500;
  writer_options.codec = ExtentCodec::kDelta;
  OPAQ_CHECK_OK(WriteExtents(GenerateDataset<uint64_t>(spec),
                             {memory.get()}, writer_options)
                    .status());
  // Reads 1-3 open the file; read #6 is extent 2.
  FaultyDevice faulty(std::move(memory), FailReadAt(6));
  auto file = ExtentFile::Open({&faulty});
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  OpaqConfig config;
  config.run_size = 500;
  config.samples_per_run = 100;
  config.io_mode = IoMode::kAsync;
  config.prefetch_depth = 2;
  OpaqSketch<uint64_t> sketch(config);
  Status s = sketch.Consume(ExtentFileProvider<uint64_t>(&*file));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(sketch.runs_consumed(), 2u);
  EXPECT_EQ(sketch.elements_consumed(), 1000u);
}

}  // namespace
}  // namespace opaq

