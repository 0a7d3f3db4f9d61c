#ifndef OPAQ_IO_THROTTLED_DEVICE_H_
#define OPAQ_IO_THROTTLED_DEVICE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "io/block_device.h"

namespace opaq {

/// First-order disk performance model: each request costs
/// `latency_seconds + bytes / bandwidth_bytes_per_second`.
///
/// The paper's experiments ran against per-node SP-2 disks where I/O was
/// ~50% of total time (Tables 11–12). Modern page-cache reads are orders of
/// magnitude faster, which would flatten those tables to ~0%; the throttle
/// restores a disk-like compute-to-I/O ratio so the *fractions* and their
/// flatness across processor counts are reproducible. The default (64 MB/s)
/// is calibrated so that reading a run takes about as long as
/// regular-sampling it on one modern core, matching the paper's observed
/// ~50/45 I/O-to-sampling balance (see EXPERIMENTS.md).
struct DiskModel {
  double bandwidth_bytes_per_second = 64.0 * 1024 * 1024;
  double latency_seconds = 100e-6;

  double SecondsFor(size_t bytes) const {
    return latency_seconds +
           static_cast<double>(bytes) / bandwidth_bytes_per_second;
  }
};

/// Wraps another device and charges the DiskModel cost for every request.
///
/// Two modes:
///  - kSleep: physically delays the calling thread until the modeled time has
///    elapsed (wall-clock experiments, Tables 11–12 / Figures 4–6). The
///    device serves one request at a time, like one disk: a request that
///    arrives while another is in service waits for it, so several reader
///    threads on one device share its bandwidth instead of multiplying it.
///  - kAccount: no delay; modeled seconds accumulate in `modeled_seconds()`
///    (fast tests that still want the model's numbers).
class ThrottledDevice : public BlockDevice {
 public:
  enum class Mode { kSleep, kAccount };

  ThrottledDevice(std::unique_ptr<BlockDevice> inner, DiskModel model,
                  Mode mode)
      : inner_(std::move(inner)), model_(model), mode_(mode) {}

  Status ReadAt(uint64_t offset, void* buffer, size_t length) override;
  Status WriteAt(uint64_t offset, const void* buffer, size_t length) override;
  Result<uint64_t> Size() const override { return inner_->Size(); }
  Status Sync() override { return inner_->Sync(); }

  /// Total modeled I/O seconds charged so far (both modes).
  double modeled_seconds() const {
    return modeled_micros_.load(std::memory_order_relaxed) * 1e-6;
  }

  BlockDevice* inner() { return inner_.get(); }
  const DiskModel& model() const { return model_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Charges a request that arrived at `arrived`; under kSleep, returns once
  /// the device has finished serving it.
  void Charge(size_t bytes, Clock::time_point arrived);

  std::unique_ptr<BlockDevice> inner_;
  DiskModel model_;
  Mode mode_;
  std::atomic<uint64_t> modeled_micros_{0};
  std::mutex mutex_;
  Clock::time_point busy_until_;  // guarded by mutex_: end of the last service
};

}  // namespace opaq

#endif  // OPAQ_IO_THROTTLED_DEVICE_H_
