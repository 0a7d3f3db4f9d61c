// Sync-vs-async equivalence and overlap tests for the double-buffered run
// pipeline: for any config and seed the async path must produce bit-identical
// estimator state (prefetching reorders time, never data), and on a slow-disk
// model it must actually overlap device time with compute.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/opaq.h"
#include "core/sketch_io.h"
#include "data/dataset.h"
#include "io/async_run_reader.h"
#include "io/block_device.h"
#include "io/throttled_device.h"
#include "parallel/parallel_opaq.h"
#include "util/timer.h"

namespace opaq {
namespace {

using Key = uint64_t;

// A data file on its own memory device, kept alive together.
struct MemoryFile {
  std::unique_ptr<MemoryBlockDevice> device;
  Result<TypedDataFile<Key>> file = Status::Internal("unset");

  explicit MemoryFile(const DatasetSpec& spec)
      : device(std::make_unique<MemoryBlockDevice>()) {
    OPAQ_CHECK_OK(GenerateDatasetToDevice<Key>(spec, device.get()));
    file = TypedDataFile<Key>::Open(device.get());
    OPAQ_CHECK_OK(file.status());
  }
};

// Opens the prefetching plain-file reader through its provider.
std::unique_ptr<RunSource<Key>> OpenAsync(const TypedDataFile<Key>* file,
                                          uint64_t run_size, uint64_t depth,
                                          uint64_t first = 0,
                                          uint64_t count = UINT64_MAX) {
  return FileRunProvider<Key>(file).OpenRuns(
      ReadOptions{run_size, IoMode::kAsync, depth, true}, first, count);
}

// Runs the full one-pass sample phase and serializes the finalized state:
// the strongest equality we can assert is that the persisted sketch bytes
// match exactly.
std::vector<uint8_t> SketchBytes(const TypedDataFile<Key>* file,
                                 const OpaqConfig& config) {
  OpaqSketch<Key> sketch(config);
  OPAQ_CHECK_OK(sketch.Consume(FileRunProvider<Key>(file)));
  SampleList<Key> list = sketch.FinalizeSampleList();
  MemoryBlockDevice out;
  OPAQ_CHECK_OK(SaveSampleList(list, &out));
  auto size = out.Size();
  OPAQ_CHECK_OK(size.status());
  std::vector<uint8_t> bytes(*size);
  OPAQ_CHECK_OK(out.ReadAt(0, bytes.data(), bytes.size()));
  return bytes;
}

TEST(AsyncIoTest, BitExactAcrossConfigSweep) {
  // n not divisible by m, a short last run, n < m, and exact multiples, each
  // against every prefetch depth the issue calls out.
  struct Case {
    uint64_t n, run_size, samples;
    Distribution distribution;
  };
  const Case kCases[] = {
      {10000, 1000, 100, Distribution::kUniform},   // divisible
      {9999, 1000, 100, Distribution::kZipf},       // ragged tail (999)
      {10001, 1000, 100, Distribution::kNormal},    // tail of one element
      {500, 1000, 100, Distribution::kSequential},  // single short run
      {1, 64, 8, Distribution::kConstant},          // single element
      {4096, 512, 64, Distribution::kSawtooth},     // many small runs
  };
  for (const Case& c : kCases) {
    DatasetSpec spec;
    spec.n = c.n;
    spec.distribution = c.distribution;
    spec.seed = 7 + c.n;
    MemoryFile data(spec);

    OpaqConfig config;
    config.run_size = c.run_size;
    config.samples_per_run = c.samples;
    config.seed = 99;
    config.io_mode = IoMode::kSync;
    const std::vector<uint8_t> sync_bytes = SketchBytes(&*data.file, config);

    for (uint64_t depth : {1u, 2u, 4u, 8u}) {
      config.io_mode = IoMode::kAsync;
      config.prefetch_depth = depth;
      EXPECT_EQ(SketchBytes(&*data.file, config), sync_bytes)
          << "n=" << c.n << " m=" << c.run_size << " depth=" << depth;
    }
  }
}

TEST(AsyncIoTest, BitExactMultiProcessor) {
  // The parallel sample phase must also be invariant to the I/O mode: same
  // per-rank files, same seeds => identical quantile answers and accounting.
  const int p = 4;
  std::vector<std::unique_ptr<MemoryFile>> ranks;
  std::vector<FileRunProvider<Key>> providers;
  providers.reserve(p);
  for (int r = 0; r < p; ++r) {
    DatasetSpec spec;
    spec.n = 20000 + 777 * r;  // ragged everywhere
    spec.distribution = r % 2 ? Distribution::kZipf : Distribution::kUniform;
    spec.seed = 1000 + r;
    ranks.push_back(std::make_unique<MemoryFile>(spec));
    providers.emplace_back(&*ranks.back()->file);
  }
  std::vector<const RunProvider<Key>*> files;
  for (const auto& provider : providers) files.push_back(&provider);

  auto run = [&](IoMode mode, uint64_t depth) {
    Cluster::Options cluster_options;
    cluster_options.num_processors = p;
    Cluster cluster(cluster_options);
    ParallelOpaqOptions options;
    options.config.run_size = 2048;
    options.config.samples_per_run = 128;
    options.config.io_mode = mode;
    options.config.prefetch_depth = depth;
    auto result = RunParallelOpaq(cluster, files, options);
    OPAQ_CHECK_OK(result.status());
    return std::move(result).value();
  };

  ParallelOpaqResult<Key> sync = run(IoMode::kSync, 2);
  for (uint64_t depth : {1u, 4u}) {
    ParallelOpaqResult<Key> async_result = run(IoMode::kAsync, depth);
    ASSERT_EQ(async_result.estimates.size(), sync.estimates.size());
    for (size_t i = 0; i < sync.estimates.size(); ++i) {
      EXPECT_EQ(async_result.estimates[i].lower, sync.estimates[i].lower);
      EXPECT_EQ(async_result.estimates[i].upper, sync.estimates[i].upper);
      EXPECT_EQ(async_result.estimates[i].lower_index,
                sync.estimates[i].lower_index);
      EXPECT_EQ(async_result.estimates[i].upper_index,
                sync.estimates[i].upper_index);
      EXPECT_EQ(async_result.estimates[i].target_rank,
                sync.estimates[i].target_rank);
    }
    EXPECT_EQ(async_result.global_accounting.num_samples,
              sync.global_accounting.num_samples);
    EXPECT_EQ(async_result.global_accounting.total_elements,
              sync.global_accounting.total_elements);
  }
}

TEST(AsyncIoTest, AsyncBeatsSyncOnSlowDisk) {
  // Deterministic overlap check: the disk charges a fixed latency per run
  // read (ThrottledDevice kSleep) and the consumer "computes" for a fixed
  // sleep per run, so sync costs ~runs*(read+compute) while async hides the
  // reads behind compute and costs ~read + runs*compute. Both sides are
  // sleeps, so the comparison is robust even on a single loaded core.
  constexpr uint64_t kRuns = 8;
  constexpr uint64_t kRunSize = 2048;
  constexpr auto kComputePerRun = std::chrono::milliseconds(20);
  DiskModel model;
  model.latency_seconds = 0.025;  // 25ms per request, bandwidth negligible
  model.bandwidth_bytes_per_second = 1e12;

  auto memory = std::make_unique<MemoryBlockDevice>();
  DatasetSpec spec;
  spec.n = kRuns * kRunSize;
  OPAQ_CHECK_OK(GenerateDatasetToDevice<Key>(spec, memory.get()));
  ThrottledDevice device(std::move(memory), model,
                         ThrottledDevice::Mode::kSleep);
  auto file = TypedDataFile<Key>::Open(&device);
  ASSERT_TRUE(file.ok());

  auto consume = [&](RunSource<Key>* source) {
    std::vector<Key> buffer;
    uint64_t runs = 0;
    while (true) {
      auto more = source->NextRun(&buffer);
      OPAQ_CHECK_OK(more.status());
      if (!*more) break;
      ++runs;
      std::this_thread::sleep_for(kComputePerRun);  // simulated sampling
    }
    EXPECT_EQ(runs, kRuns);
  };

  WallTimer sync_timer;
  {
    RunReader<Key> reader(&*file, kRunSize);
    consume(&reader);
  }
  const double sync_seconds = sync_timer.ElapsedSeconds();

  WallTimer async_timer;
  {
    auto reader = OpenAsync(&*file, kRunSize, 2);
    consume(reader.get());
  }
  const double async_seconds = async_timer.ElapsedSeconds();

  // Expected ~0.36s sync vs ~0.21s async; demand a comfortable strict gap.
  EXPECT_LT(async_seconds, sync_seconds - 0.04)
      << "sync=" << sync_seconds << "s async=" << async_seconds << "s";
}

TEST(AsyncIoTest, DepthLargerThanRunCount) {
  DatasetSpec spec;
  spec.n = 300;  // 3 runs of 100
  MemoryFile data(spec);
  auto reader = OpenAsync(&*data.file, 100, 16);
  std::vector<Key> buffer;
  int runs = 0;
  while (true) {
    auto more = reader->NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++runs;
  }
  EXPECT_EQ(runs, 3);
  // Exhausted source keeps reporting EOF, not an error.
  auto again = reader->NextRun(&buffer);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
}

TEST(AsyncIoTest, EmptyFileYieldsNoRuns) {
  auto device = std::make_unique<MemoryBlockDevice>();
  auto created = TypedDataFile<Key>::Create(device.get(), 0);
  ASSERT_TRUE(created.ok());
  auto reader = OpenAsync(&*created, 128, 2);
  std::vector<Key> buffer;
  auto more = reader->NextRun(&buffer);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(AsyncIoTest, AbandonedMidStreamJoinsCleanly) {
  // Destroying the reader with most runs unconsumed (and the prefetch ring
  // full) must close the pipeline and join the thread — no hang, no leak
  // (the asan/tsan presets gate this).
  DatasetSpec spec;
  spec.n = 64 * 1024;
  MemoryFile data(spec);
  for (uint64_t depth : {1u, 4u}) {
    auto reader = OpenAsync(&*data.file, 1024, depth);
    std::vector<Key> buffer;
    auto more = reader->NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    EXPECT_TRUE(*more);
    // Drop the reader with ~63 runs still pending.
  }
}

TEST(AsyncIoTest, ValidateRejectsBadPrefetchDepth) {
  OpaqConfig config;
  config.io_mode = IoMode::kAsync;
  config.prefetch_depth = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  // A negative CLI flag cast to uint64 must be caught, not allocate.
  config.prefetch_depth = static_cast<uint64_t>(-1);
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.prefetch_depth = kMaxPrefetchDepth;
  EXPECT_TRUE(config.Validate().ok());
  // In sync mode the knob is ignored, so even a bogus value passes.
  config.io_mode = IoMode::kSync;
  config.prefetch_depth = 0;
  EXPECT_TRUE(config.Validate().ok());
  // Stripe count is range-checked regardless of mode.
  config.stripes = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.stripes = kMaxStripes + 1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.stripes = kMaxStripes;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(AsyncIoTest, ValidateChargesStripedPrefetchMemory) {
  // The §2.3 budget must charge stripes * prefetch_depth in-flight chunk
  // buffers (at the chunk <= run_size layout) on top of the run being
  // assembled: a budget that fits plain async can be blown by striping.
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  config.io_mode = IoMode::kAsync;
  config.prefetch_depth = 2;
  const uint64_t n = 10000;  // 10 runs => r*s = 1000
  // Plain async needs 1000 + 3*1000; give exactly that.
  EXPECT_TRUE(config.Validate(n, 4000).ok());
  config.stripes = 8;  // now 1000 + (8*2 + 1)*1000
  EXPECT_EQ(config.Validate(n, 4000).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(config.Validate(n, 18000).ok());
}

TEST(AsyncIoTest, SubRangeMatchesSyncReader) {
  // The async reader honors the same first/count partition contract.
  DatasetSpec spec;
  spec.n = 1000;
  spec.distribution = Distribution::kSequential;
  MemoryFile data(spec);

  auto drain = [](RunSource<Key>* source) {
    std::vector<Key> buffer, seen;
    while (true) {
      auto more = source->NextRun(&buffer);
      OPAQ_CHECK_OK(more.status());
      if (!*more) break;
      seen.insert(seen.end(), buffer.begin(), buffer.end());
    }
    return seen;
  };

  RunReader<Key> sync_reader(&*data.file, 64, 130, 333);
  std::vector<Key> expected = drain(&sync_reader);
  EXPECT_EQ(drain(OpenAsync(&*data.file, 64, 3, 130, 333).get()), expected);
}

}  // namespace
}  // namespace opaq
