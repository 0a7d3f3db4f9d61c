#ifndef OPAQ_IO_ASYNC_RUN_READER_H_
#define OPAQ_IO_ASYNC_RUN_READER_H_

#include <cstdint>
#include <memory>

#include "io/chunk_pipeline.h"
#include "io/data_file.h"
#include "io/io_mode.h"
#include "io/run_reader.h"
#include "util/status.h"

namespace opaq {

/// The plain single-device storage backend as a `RunProvider`: wraps one
/// `TypedDataFile`. `IoMode::kSync` opens a `RunReader`; `IoMode::kAsync` a
/// `ChunkPipeline` whose one lane reads whole runs on a background thread,
/// so device time and consumer compute overlap. The file is borrowed and
/// must outlive the provider and every `RunSource` it opened.
template <typename K>
class FileRunProvider : public RunProvider<K> {
 public:
  explicit FileRunProvider(const TypedDataFile<K>* file) : file_(file) {
    OPAQ_CHECK(file != nullptr);
  }

  uint64_t size() const override { return file_->size(); }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    if (options.io_mode == IoMode::kSync) {
      return std::make_unique<RunReader<K>>(file_, options.run_size, first,
                                            count);
    }
    ChunkGrid grid;
    grid.chunk = options.run_size;  // a chunk is a run
    grid.origin_at_first = true;
    grid.lane_depth = options.prefetch_depth;
    return std::make_unique<ChunkPipeline<K>>(
        file_->size(), first, count, grid, options,
        LanesOf<K, FileReadLane<K, TypedDataFile<K>>>(file_));
  }

  Status Read(uint64_t first, uint64_t count, K* out) const override {
    return file_->Read(first, count, out);
  }

  const TypedDataFile<K>* file() const { return file_; }

 private:
  const TypedDataFile<K>* file_;
};

}  // namespace opaq

#endif  // OPAQ_IO_ASYNC_RUN_READER_H_
