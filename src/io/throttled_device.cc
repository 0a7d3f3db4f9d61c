#include "io/throttled_device.h"

#include <algorithm>
#include <thread>

namespace opaq {

void ThrottledDevice::Charge(size_t bytes, Clock::time_point arrived) {
  const double cost = model_.SecondsFor(bytes);
  modeled_micros_.fetch_add(static_cast<uint64_t>(cost * 1e6),
                            std::memory_order_relaxed);
  if (mode_ != Mode::kSleep) return;
  Clock::time_point done;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    busy_until_ = std::max(busy_until_, arrived) +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(cost));
    done = busy_until_;
  }
  std::this_thread::sleep_until(done);
}

Status ThrottledDevice::ReadAt(uint64_t offset, void* buffer, size_t length) {
  const Clock::time_point arrived = Clock::now();
  Status s = inner_->ReadAt(offset, buffer, length);
  if (!s.ok()) return s;
  RecordRead(length);
  Charge(length, arrived);
  return Status::OK();
}

Status ThrottledDevice::WriteAt(uint64_t offset, const void* buffer,
                                size_t length) {
  const Clock::time_point arrived = Clock::now();
  Status s = inner_->WriteAt(offset, buffer, length);
  if (!s.ok()) return s;
  RecordWrite(length);
  Charge(length, arrived);
  return Status::OK();
}

}  // namespace opaq
