#ifndef OPAQ_IO_CHUNK_PIPELINE_H_
#define OPAQ_IO_CHUNK_PIPELINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/io_mode.h"
#include "io/run_reader.h"
#include "parallel/channel.h"
#include "util/status.h"

namespace opaq {

/// One lane's chunk producer: the only part of a threaded run reader that
/// differs between storage backends (a device read, an extent read+decode,
/// a wire slice).
template <typename K>
class ChunkLane {
 public:
  virtual ~ChunkLane() = default;

  /// Writes the `len` elements of chunk `c` that start at logical element
  /// `start` (the chunk clipped to the pipeline's range) into `out`. A lane
  /// is asked for its chunks in ascending order.
  virtual Status Produce(uint64_t c, uint64_t start, uint64_t len,
                         K* out) = 0;

  /// Wakes a `Produce` blocked on another thread (e.g. in a socket read).
  /// The pipeline's destructor calls it before joining the lane thread.
  virtual void Cancel() {}
};

/// Where chunks fall and who produces them.
struct ChunkGrid {
  /// Elements per chunk.
  uint64_t chunk = 1;
  /// True: chunk 0 starts at the range's first element (plain-file runs,
  /// wire slices). False: chunk 0 starts at element 0 of the dataset, so
  /// chunks line up with the stripe chunks or extents stored on disk.
  bool origin_at_first = false;
  /// D: under kAsync chunk c is produced by lane c mod D on its own thread.
  uint32_t lanes = 1;
  /// Chunks each lane may have produced (or be producing) ahead of the
  /// consumer; derived by each backend from `ReadOptions::prefetch_depth`.
  uint64_t lane_depth = 1;
};

/// Streams the runs of `[first, first + count)` (clamped to `size`) in exact
/// logical order by splicing chunks into runs of `run_size` elements — the
/// one run reader behind every prefetching backend.
///
/// Under `IoMode::kAsync` each of the grid's D lanes runs on its own thread,
/// produces its chunks in ascending order and feeds them through its own
/// bounded channel; the consumer pops chunk c from lane c mod D. Because
/// assembly is by logical chunk index, the run sequence — and every
/// downstream sketch — is byte-identical to the plain sync reader over the
/// same logical data, whatever the lane count, chunk size or timing. Under
/// `IoMode::kSync` lane 0 produces every chunk on the calling thread.
///
/// Copies: a chunk that is exactly the next run is swapped into the
/// caller's buffer, and the caller's previous buffer goes back to that lane
/// to be refilled; inline, a chunk lying wholly inside the run is produced
/// straight into the run buffer. Otherwise chunks are copied into the run as
/// they arrive, and at most one partly consumed chunk is held between calls.
///
/// Errors: runs wholly before the first failing chunk are delivered, then
/// the failure is returned by `NextRun` and by every later call; a lane
/// that stops short of a chunk it owns is `Internal`. The
/// destructor closes all channels, cancels every lane and joins every
/// thread, so abandoning the pipeline mid-stream can neither hang nor leak.
template <typename K>
class ChunkPipeline : public RunSource<K> {
 public:
  /// Builds one lane; called once per lane (once in total under kSync),
  /// only inside the constructor. A failure (e.g. a refused connection)
  /// becomes the sticky status of the first `NextRun`.
  using LaneFactory = std::function<Result<std::unique_ptr<ChunkLane<K>>>()>;

  ChunkPipeline(uint64_t size, uint64_t first, uint64_t count,
                const ChunkGrid& grid, const ReadOptions& options,
                const LaneFactory& make_lane)
      : run_size_(options.run_size), chunk_(grid.chunk),
        threaded_(options.io_mode == IoMode::kAsync), first_(first),
        next_(first), end_(ClampedEnd(size, first, count)),
        origin_(grid.origin_at_first ? first : 0) {
    OPAQ_CHECK_GT(run_size_, 0u);
    OPAQ_CHECK_GT(chunk_, 0u);
    OPAQ_CHECK_GE(grid.lanes, 1u);
    next_chunk_ = (first - origin_) / chunk_;
    const uint32_t lanes = threaded_ ? grid.lanes : 1;
    for (uint32_t s = 0; s < lanes; ++s) {
      auto producer = make_lane();
      if (!producer.ok()) {
        status_ = producer.status();
        return;
      }
      lanes_.push_back(std::make_unique<Lane>(std::move(producer).value(),
                                              grid.lane_depth));
    }
    if (!threaded_ || next_ >= end_) return;
    // Inline mode holds no prefetch buffers, so the depth is only
    // constrained when threads are actually spawned.
    OPAQ_CHECK_GE(options.prefetch_depth, 1u);
    OPAQ_CHECK_LE(options.prefetch_depth, kMaxPrefetchDepth);
    // DivCeil would wrap for a chunk near UINT64_MAX.
    const uint64_t span = end_ - origin_;
    const uint64_t end_chunk = span / chunk_ + (span % chunk_ != 0);
    for (uint32_t s = 0; s < lanes; ++s) {
      // First chunk >= next_chunk_ owned by lane s.
      const uint64_t c =
          next_chunk_ + (s + lanes - next_chunk_ % lanes) % lanes;
      if (c >= end_chunk) continue;  // the lane owns nothing in the range
      for (uint64_t i = 0; i < grid.lane_depth; ++i) {
        lanes_[s]->free.Send(std::vector<K>());
      }
      threads_.emplace_back([this, s, c, end_chunk, lanes] {
        LaneLoop(*lanes_[s], c, end_chunk, lanes);
      });
    }
  }

  ~ChunkPipeline() override {
    for (auto& lane : lanes_) {
      lane->free.Close();
      lane->full.Close();
      lane->producer->Cancel();
    }
    for (std::thread& thread : threads_) thread.join();
  }

  ChunkPipeline(const ChunkPipeline&) = delete;
  ChunkPipeline& operator=(const ChunkPipeline&) = delete;

  Result<bool> NextRun(std::vector<K>* buffer) override {
    if (status_.ok() && next_ < end_) {
      status_ = FillRun(buffer);
      if (status_.ok()) return true;
    }
    buffer->clear();
    if (!status_.ok()) return status_;
    return false;
  }

 private:
  struct Chunk {
    Status status;
    std::vector<K> data;
  };

  struct Lane {
    Lane(std::unique_ptr<ChunkLane<K>> p, uint64_t depth)
        : producer(std::move(p)), free(depth), full(depth) {}
    std::unique_ptr<ChunkLane<K>> producer;
    // Empty or spent buffers the lane may fill: one per chunk it may hold
    // ahead of the consumer, so this ring is what bounds read-ahead.
    Channel<std::vector<K>> free;
    Channel<Chunk> full;  // produced chunks, in the lane's chunk order
  };

  /// Chunk `c` clipped to the range is `[ChunkStart(c), ChunkEnd(c))`; `c`
  /// must start before the range end.
  uint64_t ChunkStart(uint64_t c) const {
    return std::max(origin_ + c * chunk_, first_);
  }
  uint64_t ChunkEnd(uint64_t c) const {
    const uint64_t grid = origin_ + c * chunk_;
    return grid + std::min(chunk_, end_ - grid);
  }

  /// Body of a lane thread: produces chunks `c, c + stride, ...` below
  /// `end_chunk` into buffers taken from the lane's free ring.
  void LaneLoop(Lane& lane, uint64_t c, uint64_t end_chunk, uint32_t stride) {
    for (; c < end_chunk; c += stride) {
      Chunk chunk;
      if (!lane.free.Receive(&chunk.data)) return;  // consumer went away
      const uint64_t start = ChunkStart(c);
      const uint64_t len = ChunkEnd(c) - start;
      chunk.data.resize(len);
      chunk.status = lane.producer->Produce(c, start, len, chunk.data.data());
      const bool failed = !chunk.status.ok();
      if (failed) chunk.data = std::vector<K>();
      if (!lane.full.Send(std::move(chunk)) || failed) break;
    }
    // The consumer pops exactly the chunks this lane owns; closing lets it
    // tell a lane that stopped short from a slow one.
    lane.full.Close();
  }

  /// Pops the next chunk (threaded mode) into `data`; the buffer `data` held
  /// before goes back to the chunk's lane as the credit for another chunk.
  Status PopChunk(std::vector<K>* data) {
    Lane& lane = *lanes_[next_chunk_ % lanes_.size()];
    Chunk chunk;
    if (!lane.full.Receive(&chunk)) {
      return Status::Internal("chunk lane stopped short of chunk " +
                              std::to_string(next_chunk_));
    }
    if (!chunk.status.ok()) return chunk.status;
    ++next_chunk_;
    data->swap(chunk.data);
    lane.free.Send(std::move(chunk.data));
    return Status::OK();
  }

  /// Fills `buffer` with the next run; any error is the sticky status.
  Status FillRun(std::vector<K>* buffer) {
    const uint64_t len = std::min(run_size_, end_ - next_);
    if (threaded_ && head_ == partial_.size() &&
        ChunkEnd(next_chunk_) - ChunkStart(next_chunk_) == len) {
      // The chunk is exactly this run: swap it in, and the caller's
      // previous buffer goes back to the lane to be refilled.
      OPAQ_RETURN_IF_ERROR(PopChunk(buffer));
      next_ += len;
      return Status::OK();
    }
    buffer->resize(len);
    uint64_t filled = 0;
    while (filled < len) {
      if (head_ == partial_.size()) {
        const uint64_t start = ChunkStart(next_chunk_);
        const uint64_t chunk_len = ChunkEnd(next_chunk_) - start;
        if (threaded_) {
          OPAQ_RETURN_IF_ERROR(PopChunk(&partial_));
        } else if (chunk_len <= len - filled) {
          // Wholly inside the run: produce straight into the run buffer.
          OPAQ_RETURN_IF_ERROR(lanes_[0]->producer->Produce(
              next_chunk_++, start, chunk_len, buffer->data() + filled));
          filled += chunk_len;
          continue;
        } else {
          partial_.resize(chunk_len);
          OPAQ_RETURN_IF_ERROR(lanes_[0]->producer->Produce(
              next_chunk_++, start, chunk_len, partial_.data()));
        }
        head_ = 0;
      }
      const uint64_t take = std::min(len - filled, partial_.size() - head_);
      std::copy_n(partial_.begin() + static_cast<size_t>(head_),
                  static_cast<size_t>(take),
                  buffer->begin() + static_cast<size_t>(filled));
      head_ += take;
      filled += take;
    }
    next_ += len;
    return Status::OK();
  }

  uint64_t run_size_;
  uint64_t chunk_;
  bool threaded_;
  uint64_t first_;       // first element of the range (immutable)
  uint64_t next_;        // next element to deliver (consumer only)
  uint64_t end_;         // one past the last element (immutable)
  uint64_t origin_;      // element where chunk 0 starts (immutable)
  uint64_t next_chunk_;  // next chunk to pop or produce (consumer only)
  Status status_;        // sticky failure state

  std::vector<K> partial_;  // the chunk being spliced; head_ is its used prefix
  uint64_t head_ = 0;

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
};

/// The lane of an uncompressed file backend: a chunk is one positioned
/// `Read` of any file exposing `Read(first, count, K*)` — a plain
/// `TypedDataFile` or a `StripedDataFile`, both safe for concurrent reads.
template <typename K, typename File>
class FileReadLane : public ChunkLane<K> {
 public:
  explicit FileReadLane(const File* file) : file_(file) {}

  Status Produce(uint64_t /*c*/, uint64_t start, uint64_t len,
                 K* out) override {
    return file_->Read(start, len, out);
  }

 private:
  const File* file_;
};

/// A `LaneFactory` that builds every lane as `LaneT(args...)`.
template <typename K, typename LaneT, typename... Args>
typename ChunkPipeline<K>::LaneFactory LanesOf(Args... args) {
  return [args...]() -> Result<std::unique_ptr<ChunkLane<K>>> {
    return std::unique_ptr<ChunkLane<K>>(std::make_unique<LaneT>(args...));
  };
}

}  // namespace opaq

#endif  // OPAQ_IO_CHUNK_PIPELINE_H_
