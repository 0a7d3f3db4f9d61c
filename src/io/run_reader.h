#ifndef OPAQ_IO_RUN_READER_H_
#define OPAQ_IO_RUN_READER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "io/data_file.h"
#include "io/extent_stats.h"
#include "io/io_mode.h"
#include "util/math.h"
#include "util/status.h"

namespace opaq {

/// Anything that yields the runs of a dataset in order. The synchronous
/// `RunReader`, the prefetching `ChunkPipeline` (io/chunk_pipeline.h) and
/// the in-memory and live-dataset sources all implement this, so every run
/// consumer (`OpaqSketch::ConsumeRuns`, the parallel sample phase) works
/// against any backend and I/O mode unchanged.
template <typename K>
class RunSource {
 public:
  virtual ~RunSource() = default;

  /// Reads the next run into `buffer` (resized to the run's length).
  /// Returns false when the data set is exhausted (buffer left empty).
  virtual Result<bool> NextRun(std::vector<K>* buffer) = 0;
};

/// A dataset that can hand out `RunSource`s: the storage-backend abstraction
/// every run consumer is written against. Implementations:
/// `MemoryRunProvider` (below), `FileRunProvider` (io/async_run_reader.h),
/// `StripedFileProvider` (io/striped_run_source.h), `ExtentFileProvider`
/// (io/extent.h), `LiveDatasetReader` (ingest/live_dataset.h), and
/// `RemoteRunProvider` / `RemoteExtentProvider` (net/). Consumers that
/// accept a provider — the sketch, the exact second pass, the parallel
/// harness — work on any backend unchanged, and every backend delivers the
/// exact logical run order, so results are byte-identical across backends.
template <typename K>
class RunProvider {
 public:
  virtual ~RunProvider() = default;

  /// Logical element count of the dataset.
  virtual uint64_t size() const = 0;

  /// Opens a run stream over `[first, first + count)` (clamped to EOF, the
  /// same sub-range contract as `RunReader`).
  virtual std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const = 0;

  /// Pack/unpack accounting when this backend decodes compressed extents
  /// (`ExtentFileProvider`, the remote extent stream); nullptr for
  /// uncompressed backends. Counters accumulate across every source this
  /// provider has opened — `Engine::Build` snapshots before and after to
  /// report per-build deltas.
  virtual const ExtentStats* pack_stats() const { return nullptr; }
};

/// End of the sub-range `[first, first + count)` of a `size`-element dataset,
/// clamped to `size` without evaluating `first + count` (which wraps around
/// for large counts and would put the end before `first`).
inline uint64_t ClampedEnd(uint64_t size, uint64_t first, uint64_t count) {
  OPAQ_CHECK_LE(first, size);
  return first + std::min(count, size - first);
}

/// Sequentially yields the runs of a disk-resident dataset.
///
/// OPAQ reads the data set exactly once as `r = ceil(n/m)` runs of `m`
/// elements (the last run may be shorter when `m` does not divide `n`). The
/// reader reuses one caller-visible buffer of `m` elements, so peak memory is
/// one run regardless of `n` — this is what makes the algorithm one-pass and
/// memory-bounded.
template <typename K>
class RunReader : public RunSource<K> {
 public:
  /// `file` is borrowed and must outlive the reader. `run_size` is `m`.
  /// Optional `first`/`count` restrict reading to a sub-range of the file
  /// (used by the parallel harness to give each processor its partition).
  RunReader(const TypedDataFile<K>* file, uint64_t run_size, uint64_t first = 0,
            uint64_t count = UINT64_MAX)
      : file_(file), run_size_(run_size), next_(first), end_(first) {
    OPAQ_CHECK(file != nullptr);
    OPAQ_CHECK_GT(run_size, 0u);
    end_ = ClampedEnd(file->size(), first, count);
  }

  /// Total number of runs this reader will produce.
  uint64_t num_runs() const {
    return next_ >= end_ ? 0 : DivCeil(end_ - next_, run_size_);
  }

  /// Number of elements remaining.
  uint64_t remaining() const { return end_ - next_; }

  /// Reads the next run into `buffer` (resized to the run's length).
  /// Returns false when the data set is exhausted (buffer left empty).
  Result<bool> NextRun(std::vector<K>* buffer) override {
    buffer->clear();
    if (next_ >= end_) return false;
    uint64_t len = std::min(run_size_, end_ - next_);
    buffer->resize(len);
    OPAQ_RETURN_IF_ERROR(file_->Read(next_, len, buffer->data()));
    next_ += len;
    return true;
  }

 private:
  const TypedDataFile<K>* file_;
  uint64_t run_size_;
  uint64_t next_;
  uint64_t end_;
};

/// Yields the runs of an in-memory vector — same sub-range contract and run
/// shapes as `RunReader` over a file holding the same logical data, so every
/// downstream sketch is byte-identical across the two.
template <typename K>
class VectorRunSource : public RunSource<K> {
 public:
  /// `data` is borrowed and must outlive the source.
  VectorRunSource(const std::vector<K>* data, uint64_t run_size,
                  uint64_t first = 0, uint64_t count = UINT64_MAX)
      : data_(data), run_size_(run_size), next_(first), end_(first) {
    OPAQ_CHECK(data != nullptr);
    OPAQ_CHECK_GT(run_size, 0u);
    end_ = ClampedEnd(data->size(), first, count);
  }

  Result<bool> NextRun(std::vector<K>* buffer) override {
    buffer->clear();
    if (next_ >= end_) return false;
    uint64_t len = std::min(run_size_, end_ - next_);
    buffer->assign(data_->begin() + static_cast<size_t>(next_),
                   data_->begin() + static_cast<size_t>(next_ + len));
    next_ += len;
    return true;
  }

 private:
  const std::vector<K>* data_;
  uint64_t run_size_;
  uint64_t next_;
  uint64_t end_;
};

/// The in-memory storage backend: a `RunProvider` over a vector it owns.
/// There is no device to overlap, so `ReadOptions::io_mode` is accepted and
/// ignored — results are identical either way, which is exactly the
/// conformance contract.
template <typename K>
class MemoryRunProvider : public RunProvider<K> {
 public:
  explicit MemoryRunProvider(std::vector<K> data) : data_(std::move(data)) {}

  uint64_t size() const override { return data_.size(); }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    return std::make_unique<VectorRunSource<K>>(&data_, options.run_size,
                                                first, count);
  }

  const std::vector<K>& data() const { return data_; }

 private:
  std::vector<K> data_;
};

}  // namespace opaq

#endif  // OPAQ_IO_RUN_READER_H_
