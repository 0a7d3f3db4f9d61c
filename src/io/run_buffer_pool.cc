#include "io/run_buffer_pool.h"

#include <algorithm>

#include "telemetry/metrics.h"

namespace opaq {

RunBufferPool& RunBufferPool::Shared() {
  // Never destroyed: pipelines may give buffers back from static
  // destructors.
  static RunBufferPool* pool = new RunBufferPool(/*publish=*/true);
  return *pool;
}

RunBufferPool::RunBufferPool(bool publish) {
  if (!publish) return;
  MetricsRegistry& registry = MetricsRegistry::Global();
  idle_gauge_ = registry.GetGauge("io.run_buffers.idle_bytes");
  outstanding_gauge_ = registry.GetGauge("io.run_buffers.outstanding_bytes");
  high_water_gauge_ = registry.GetGauge("io.run_buffers.high_water_bytes");
}

std::unique_ptr<RunBufferPool::Block> RunBufferPool::Reuse(const void* type,
                                                           uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t best = idle_.size();
  for (size_t i = 0; i < idle_.size(); ++i) {
    const Idle& idle = idle_[i];
    if (idle.type == type && idle.bytes >= bytes && idle.bytes < 2 * bytes &&
        (best == idle_.size() || idle.bytes < idle_[best].bytes)) {
      best = i;
    }
  }
  if (best == idle_.size()) return nullptr;
  std::unique_ptr<Block> block = std::move(idle_[best].block);
  idle_bytes_ -= idle_[best].bytes;
  outstanding_bytes_ += idle_[best].bytes;
  idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(best));
  PublishLocked();  // idle + outstanding is unchanged
  return block;
}

void RunBufferPool::Allocated(uint64_t bytes) {
  std::vector<std::unique_ptr<Block>> evicted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    outstanding_bytes_ += bytes;
    high_water_bytes_ = std::max(high_water_bytes_, outstanding_bytes_);
    TrimLocked(&evicted);
  }
  // `evicted` frees its buffers here, outside the lock.
}

void RunBufferPool::Keep(const void* type, uint64_t bytes,
                         std::unique_ptr<Block> block) {
  std::vector<std::unique_ptr<Block>> evicted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A buffer the pool never handed out (or one a caller grew) may bring
    // more bytes back than are outstanding; the trim below still holds the
    // bound.
    outstanding_bytes_ -= std::min(outstanding_bytes_, bytes);
    idle_bytes_ += bytes;
    idle_.push_back(Idle{type, bytes, std::move(block)});
    TrimLocked(&evicted);
  }
}

void RunBufferPool::TrimLocked(std::vector<std::unique_ptr<Block>>* evicted) {
  size_t drop = 0;
  while (idle_bytes_ + outstanding_bytes_ > high_water_bytes_) {
    idle_bytes_ -= idle_[drop].bytes;
    evicted->push_back(std::move(idle_[drop].block));
    ++drop;
  }
  idle_.erase(idle_.begin(),
              idle_.begin() + static_cast<std::ptrdiff_t>(drop));
  PublishLocked();
}

void RunBufferPool::PublishLocked() {
  if (idle_gauge_ != nullptr) {
    idle_gauge_->Set(static_cast<int64_t>(idle_bytes_));
    outstanding_gauge_->Set(static_cast<int64_t>(outstanding_bytes_));
    high_water_gauge_->Set(static_cast<int64_t>(high_water_bytes_));
  }
}

RunBufferPool::Stats RunBufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out;
  out.idle_bytes = idle_bytes_;
  out.outstanding_bytes = outstanding_bytes_;
  out.high_water_bytes = high_water_bytes_;
  out.idle_buffers = idle_.size();
  return out;
}

}  // namespace opaq
