// Table-driven tests of `ChunkPipeline`, the run reader behind every
// prefetching backend: an in-memory fake lane stands in for the device, and
// `VectorRunSource` over the same data is the ground truth for run shapes
// and contents, across randomized chunk grids, lane counts, depths and both
// I/O modes — plus failure position, stickiness, abandonment and the
// zero-copy hand-offs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "io/chunk_pipeline.h"
#include "io/run_reader.h"

namespace opaq {
namespace {

using Key = uint64_t;

struct Geometry {
  uint64_t n = 0;
  uint64_t run = 1;
  uint64_t chunk = 1;
  bool origin_at_first = false;
  uint64_t first = 0;
  uint64_t count = UINT64_MAX;
  uint32_t lanes = 1;
  uint64_t depth = 1;
  IoMode mode = IoMode::kSync;

  std::string ToString() const {
    return "n=" + std::to_string(n) + " run=" + std::to_string(run) +
           " chunk=" + std::to_string(chunk) +
           " origin_at_first=" + std::to_string(origin_at_first) +
           " first=" + std::to_string(first) +
           " count=" + std::to_string(count) +
           " lanes=" + std::to_string(lanes) +
           " depth=" + std::to_string(depth) + " mode=" + IoModeName(mode);
  }
};

/// What every fake lane of one pipeline shares with the test.
struct LaneLog {
  std::mutex mutex;
  std::vector<const Key*> out;  // destination of chunk c, by c
  std::atomic<uint64_t> produced{0};
  std::atomic<int> cancels{0};
};

/// Serves chunk c from `data`, checking the bounds the pipeline asks for,
/// and fails with IoError at chunk `fail_chunk`.
class FakeLane : public ChunkLane<Key> {
 public:
  FakeLane(const std::vector<Key>* data, const Geometry& g,
           uint64_t fail_chunk, LaneLog* log)
      : data_(data), g_(g), fail_chunk_(fail_chunk), log_(log) {}

  Status Produce(uint64_t c, uint64_t start, uint64_t len,
                 Key* out) override {
    log_->produced.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(log_->mutex);
      if (log_->out.size() <= c) log_->out.resize(c + 1);
      log_->out[c] = out;
    }
    const uint64_t origin = g_.origin_at_first ? g_.first : 0;
    const uint64_t grid = origin + c * g_.chunk;
    if (c < next_ || start != std::max(grid, g_.first) || len == 0 ||
        start + len > grid + g_.chunk || start + len > data_->size()) {
      return Status::Internal("bad chunk request " + std::to_string(c));
    }
    next_ = c + 1;
    if (c == fail_chunk_) {
      return Status::IoError("injected failure at chunk " + std::to_string(c));
    }
    std::copy_n(data_->begin() + start, len, out);
    return Status::OK();
  }

  void Cancel() override { log_->cancels.fetch_add(1); }

 private:
  const std::vector<Key>* data_;
  Geometry g_;
  uint64_t fail_chunk_;
  LaneLog* log_;
  uint64_t next_ = 0;  // lanes are asked for their chunks in ascending order
};

std::unique_ptr<ChunkPipeline<Key>> MakePipeline(
    const std::vector<Key>& data, const Geometry& g, LaneLog* log,
    uint64_t fail_chunk = UINT64_MAX) {
  ChunkGrid grid;
  grid.chunk = g.chunk;
  grid.origin_at_first = g.origin_at_first;
  grid.lanes = g.lanes;
  grid.lane_depth = g.depth;
  return std::make_unique<ChunkPipeline<Key>>(
      data.size(), g.first, g.count, grid,
      ReadOptions{g.run, g.mode, g.depth, true},
      [&]() -> Result<std::unique_ptr<ChunkLane<Key>>> {
        return std::unique_ptr<ChunkLane<Key>>(
            std::make_unique<FakeLane>(&data, g, fail_chunk, log));
      });
}

struct Drained {
  std::vector<std::vector<Key>> runs;
  Status status;
};

/// Reads runs until EOF or the first error.
Drained Drain(RunSource<Key>* source) {
  Drained out;
  std::vector<Key> buffer;
  while (true) {
    auto more = source->NextRun(&buffer);
    if (!more.ok()) {
      out.status = more.status();
      EXPECT_TRUE(buffer.empty()) << "a failed NextRun must clear the buffer";
      return out;
    }
    if (!*more) {
      EXPECT_TRUE(buffer.empty());
      return out;
    }
    out.runs.push_back(buffer);
  }
}

std::vector<std::vector<Key>> Truth(const std::vector<Key>& data,
                                    const Geometry& g) {
  VectorRunSource<Key> truth(&data, g.run, g.first, g.count);
  Drained drained = Drain(&truth);
  OPAQ_CHECK_OK(drained.status);
  return drained.runs;
}

std::vector<Key> Iota(uint64_t n) {
  std::vector<Key> out(n);
  std::iota(out.begin(), out.end(), Key{1000});
  return out;
}

Geometry RandomGeometry(std::mt19937_64& rng) {
  auto pick = [&](uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(rng);
  };
  Geometry g;
  g.n = pick(0, 1500);
  g.run = pick(1, 200);
  switch (pick(0, 4)) {
    case 0: g.chunk = 1; break;
    case 1: g.chunk = g.run; break;
    case 2: g.chunk = pick(1, g.run); break;          // rarely divides run
    case 3: g.chunk = g.run + pick(1, 3 * g.run); break;  // larger than a run
    default: g.chunk = pick(1, 64); break;
  }
  g.origin_at_first = pick(0, 1) == 1;
  g.first = pick(0, 3) == 0 ? 0 : pick(0, g.n);  // usually off the grid
  g.count = pick(0, 2) == 0 ? UINT64_MAX : pick(0, g.n);
  g.lanes = static_cast<uint32_t>(pick(1, 5));
  g.depth = pick(1, 4);
  return g;
}

TEST(ChunkPipelineTest, RandomGeometriesMatchVectorRunSource) {
  std::mt19937_64 rng(20260117);
  for (int trial = 0; trial < 400; ++trial) {
    Geometry g = RandomGeometry(rng);
    const std::vector<Key> data = Iota(g.n);
    const auto truth = Truth(data, g);
    for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
      g.mode = mode;
      SCOPED_TRACE(g.ToString());
      LaneLog log;
      auto pipeline = MakePipeline(data, g, &log);
      Drained drained = Drain(pipeline.get());
      ASSERT_TRUE(drained.status.ok()) << drained.status.ToString();
      EXPECT_EQ(drained.runs, truth);
      // Exhausted stays exhausted.
      std::vector<Key> buffer;
      auto again = pipeline->NextRun(&buffer);
      ASSERT_TRUE(again.ok());
      EXPECT_FALSE(*again);
    }
  }
}

TEST(ChunkPipelineTest, FixedEdgeGeometriesMatchVectorRunSource) {
  const Geometry kCases[] = {
      // n, run, chunk, origin_at_first, first, count, lanes, depth
      {1000, 100, 100, true, 0, UINT64_MAX, 1, 1},    // chunk is the run
      {1000, 100, 100, false, 37, UINT64_MAX, 1, 1},  // off-grid first
      {1000, 100, 1, false, 0, UINT64_MAX, 5, 4},     // chunk = 1
      {1000, 100, 30, false, 11, 500, 3, 2},          // 30 does not divide 100
      {1000, 100, 450, false, 5, UINT64_MAX, 2, 1},   // chunk > run
      {1000, 100, 64, false, 1000, 5, 4, 3},          // empty at the end
      {1000, 100, 64, false, 10, 0, 4, 3},            // empty count
      {0, 100, 64, false, 0, UINT64_MAX, 2, 2},       // empty dataset
      {999, 1000, 7, true, 0, UINT64_MAX, 3, 1},      // one short run
      {5, 1, 1, false, 0, UINT64_MAX, 5, 1},          // more lanes than runs
  };
  for (Geometry g : kCases) {
    const std::vector<Key> data = Iota(g.n);
    const auto truth = Truth(data, g);
    for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
      g.mode = mode;
      SCOPED_TRACE(g.ToString());
      LaneLog log;
      auto pipeline = MakePipeline(data, g, &log);
      Drained drained = Drain(pipeline.get());
      ASSERT_TRUE(drained.status.ok()) << drained.status.ToString();
      EXPECT_EQ(drained.runs, truth);
    }
  }
}

TEST(ChunkPipelineTest, FailingChunkDeliversWholeRunsBeforeItThenSticks) {
  const Geometry kCases[] = {
      {600, 100, 100, true, 0, UINT64_MAX, 1, 2},
      {600, 100, 30, false, 13, UINT64_MAX, 3, 1},
      {600, 50, 120, false, 0, 470, 2, 3},
      {600, 64, 1, false, 5, 200, 5, 4},
  };
  for (Geometry g : kCases) {
    const std::vector<Key> data = Iota(g.n);
    const auto truth = Truth(data, g);
    const uint64_t end = g.first + std::min(g.count, g.n - g.first);
    const uint64_t origin = g.origin_at_first ? g.first : 0;
    const uint64_t first_chunk = (g.first - origin) / g.chunk;
    const uint64_t end_chunk = (end - origin + g.chunk - 1) / g.chunk;
    for (uint64_t k = first_chunk; k < end_chunk; ++k) {
      const uint64_t fail_start = std::max(origin + k * g.chunk, g.first);
      // Runs wholly before the failing chunk's first element survive.
      size_t intact = 0;
      while (intact < truth.size() &&
             g.first + (intact + 1) * g.run <= fail_start) {
        ++intact;
      }
      for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
        g.mode = mode;
        SCOPED_TRACE(g.ToString() + " fail_chunk=" + std::to_string(k));
        LaneLog log;
        auto pipeline = MakePipeline(data, g, &log, k);
        Drained drained = Drain(pipeline.get());
        EXPECT_EQ(drained.status.code(), StatusCode::kIoError)
            << drained.status.ToString();
        ASSERT_EQ(drained.runs.size(), intact);
        EXPECT_TRUE(std::equal(drained.runs.begin(), drained.runs.end(),
                               truth.begin()));
        std::vector<Key> buffer{1, 2, 3};
        for (int i = 0; i < 3; ++i) {
          auto again = pipeline->NextRun(&buffer);
          EXPECT_EQ(again.status().code(), StatusCode::kIoError);
          EXPECT_TRUE(buffer.empty());
        }
      }
    }
  }
}

TEST(ChunkPipelineTest, DestructionAfterEveryRunJoinsAndCancelsLanes) {
  // Abandon the stream after each run index — lanes blocked on full rings,
  // lanes finished, lanes never started — and the destructor must cancel
  // every lane and join every thread (TSan/ASan watch this).
  Geometry g{2000, 100, 37, false, 3, UINT64_MAX, 4, 1};
  const std::vector<Key> data = Iota(g.n);
  const size_t runs = Truth(data, g).size();
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    g.mode = mode;
    for (size_t stop = 0; stop <= runs; ++stop) {
      LaneLog log;
      {
        auto pipeline = MakePipeline(data, g, &log);
        std::vector<Key> buffer;
        for (size_t r = 0; r < stop; ++r) {
          auto more = pipeline->NextRun(&buffer);
          ASSERT_TRUE(more.ok() && *more) << "run " << r;
        }
      }
      EXPECT_EQ(log.cancels.load(), mode == IoMode::kAsync ? 4 : 1)
          << IoModeName(mode) << " stop=" << stop;
    }
  }
}

TEST(ChunkPipelineTest, LaneFactoryFailureIsTheFirstNextRunsStatus) {
  // E.g. a refused connection: reported by the first NextRun (even over an
  // empty range) and every later one.
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    for (uint64_t count : {uint64_t{0}, uint64_t{50}}) {
      ChunkGrid grid;
      grid.chunk = 10;
      ChunkPipeline<Key> pipeline(
          100, 0, count, grid, ReadOptions{25, mode, 2, true},
          []() -> Result<std::unique_ptr<ChunkLane<Key>>> {
            return Status::IoError("connection refused");
          });
      std::vector<Key> buffer;
      for (int i = 0; i < 2; ++i) {
        auto more = pipeline.NextRun(&buffer);
        EXPECT_EQ(more.status().code(), StatusCode::kIoError);
      }
    }
  }
}

TEST(ChunkPipelineTest, SyncModeIgnoresPrefetchDepthZero) {
  Geometry g{500, 64, 48, false, 0, UINT64_MAX, 3, 0};
  const std::vector<Key> data = Iota(g.n);
  LaneLog log;
  auto pipeline = MakePipeline(data, g, &log);
  Drained drained = Drain(pipeline.get());
  ASSERT_TRUE(drained.status.ok());
  EXPECT_EQ(drained.runs, Truth(data, g));
}

TEST(ChunkPipelineTest, ReadAheadIsBoundedByLaneDepth) {
  // With no consumer, each lane produces exactly its `lane_depth` chunks
  // and then waits for a buffer to come back.
  for (uint64_t depth : {1u, 3u}) {
    Geometry g{5000, 100, 10, false, 0, UINT64_MAX, 2, depth,
               IoMode::kAsync};
    const std::vector<Key> data = Iota(g.n);
    LaneLog log;
    auto pipeline = MakePipeline(data, g, &log);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (log.produced.load() < 2 * depth &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(log.produced.load(), 2 * depth);
  }
}

TEST(ChunkPipelineTest, ZeroCopyHandOffs) {
  const std::vector<Key> data = Iota(1000);
  {
    // Inline: a chunk wholly inside the run is produced into the run buffer.
    Geometry g{1000, 100, 25, false, 0, UINT64_MAX, 2, 1, IoMode::kSync};
    LaneLog log;
    auto pipeline = MakePipeline(data, g, &log);
    std::vector<Key> buffer;
    ASSERT_TRUE(*pipeline->NextRun(&buffer));
    std::lock_guard<std::mutex> lock(log.mutex);
    for (uint64_t c = 0; c < 4; ++c) {
      EXPECT_EQ(log.out[c], buffer.data() + 25 * c) << "chunk " << c;
    }
  }
  {
    // Threaded, chunk == run: the produced buffer itself is handed over,
    // and the caller's previous buffer is refilled by the lane — with one
    // buffer in flight the lane alternates between exactly two.
    Geometry g{1000, 100, 100, true, 0, UINT64_MAX, 1, 1, IoMode::kAsync};
    LaneLog log;
    auto pipeline = MakePipeline(data, g, &log);
    std::vector<Key> buffer;
    for (uint64_t c = 0; c < 10; ++c) {
      ASSERT_TRUE(*pipeline->NextRun(&buffer));
      std::lock_guard<std::mutex> lock(log.mutex);
      EXPECT_EQ(log.out[c], buffer.data()) << "run " << c;
      if (c >= 2) {
        EXPECT_EQ(log.out[c], log.out[c - 2]) << "run " << c;
      }
    }
  }
}

/// A lane whose Produce blocks until cancelled, like a socket read from a
/// silent peer.
class BlockingLane : public ChunkLane<Key> {
 public:
  Status Produce(uint64_t, uint64_t, uint64_t, Key*) override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return cancelled_; });
    return Status::IoError("cancelled");
  }
  void Cancel() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      cancelled_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool cancelled_ = false;
};

TEST(ChunkPipelineTest, DestructorCancelsALaneBlockedInProduce) {
  ChunkGrid grid;
  grid.chunk = 10;
  grid.lane_depth = 2;
  auto pipeline = std::make_unique<ChunkPipeline<Key>>(
      100, 0, UINT64_MAX, grid, ReadOptions{25, IoMode::kAsync, 2, true},
      LanesOf<Key, BlockingLane>());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  pipeline.reset();  // must not hang
}

}  // namespace
}  // namespace opaq
