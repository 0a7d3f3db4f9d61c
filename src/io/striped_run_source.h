#ifndef OPAQ_IO_STRIPED_RUN_SOURCE_H_
#define OPAQ_IO_STRIPED_RUN_SOURCE_H_

#include <cstdint>
#include <memory>

#include "io/chunk_pipeline.h"
#include "io/io_mode.h"
#include "io/run_reader.h"
#include "io/striped_data_file.h"
#include "util/status.h"

namespace opaq {

/// The striped storage backend as a `RunProvider`: a `ChunkPipeline` over
/// the file's stripe chunks with one lane per stripe, so under
/// `IoMode::kAsync` all D devices are read concurrently; under
/// `IoMode::kSync` the chunks are read inline. The file is borrowed.
template <typename K>
class StripedFileProvider : public RunProvider<K> {
 public:
  explicit StripedFileProvider(const StripedDataFile<K>* file) : file_(file) {
    OPAQ_CHECK(file != nullptr);
  }

  uint64_t size() const override { return file_->size(); }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    ChunkGrid grid;
    grid.chunk = file_->chunk_elements();
    grid.lanes = file_->num_stripes();
    grid.lane_depth = options.prefetch_depth + 1;
    return std::make_unique<ChunkPipeline<K>>(
        file_->size(), first, count, grid, options,
        LanesOf<K, FileReadLane<K, StripedDataFile<K>>>(file_));
  }

  const StripedDataFile<K>* file() const { return file_; }

 private:
  const StripedDataFile<K>* file_;
};

}  // namespace opaq

#endif  // OPAQ_IO_STRIPED_RUN_SOURCE_H_
