#ifndef OPAQ_IO_FAULTY_DEVICE_H_
#define OPAQ_IO_FAULTY_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "io/block_device.h"

namespace opaq {

/// Fault-injection wrapper for tests: fails the k-th read and/or write
/// request, or the read that covers a chosen byte, with a configurable
/// status. Lets the suites verify that I/O errors surface cleanly (as
/// Status, never as crashes or silent truncation) through every layer —
/// run readers, sketches, second passes, and the parallel pipeline.
///
/// Safe for concurrent `ReadAt` calls from several reader threads. Read
/// ordinals then depend on thread timing, so a test that must kill one
/// particular extent or chunk keys the fault to its byte offset instead.
class FaultyDevice : public BlockDevice {
 public:
  struct Options {
    /// Fail the Nth read (1-based). 0 = never.
    uint64_t fail_read_at = 0;
    /// Fail the Nth write (1-based). 0 = never.
    uint64_t fail_write_at = 0;
    /// Status returned on an injected failure.
    StatusCode code = StatusCode::kIoError;
    /// Short-read injection: pretend the device physically ends after this
    /// many bytes, so any read touching bytes at or past the limit fails
    /// with OutOfRange even though the inner device (and the file header)
    /// promise more. 0 = no truncation. Models a file truncated behind the
    /// reader's back — the BlockDevice contract is all-or-nothing, so a
    /// short read must surface as an error, never as partial data.
    uint64_t truncate_after_bytes = 0;
  };

  FaultyDevice(std::unique_ptr<BlockDevice> inner, Options options)
      : inner_(std::move(inner)), options_(options) {}

  Status ReadAt(uint64_t offset, void* buffer, size_t length) override {
    const uint64_t ordinal = ++reads_;
    if (options_.fail_read_at != 0 && ordinal == options_.fail_read_at) {
      return Status(options_.code, "injected read failure");
    }
    if (fail_read_covering_ != kNever && offset <= fail_read_covering_ &&
        fail_read_covering_ - offset < length &&
        !covering_fired_.exchange(true)) {
      return Status(options_.code, "injected read failure");
    }
    if (options_.truncate_after_bytes != 0 &&
        offset + length > options_.truncate_after_bytes) {
      return Status::OutOfRange("injected short read: device truncated");
    }
    Status s = inner_->ReadAt(offset, buffer, length);
    if (s.ok()) RecordRead(length);
    return s;
  }

  Status WriteAt(uint64_t offset, const void* buffer,
                 size_t length) override {
    const uint64_t ordinal = ++writes_;
    if (options_.fail_write_at != 0 && ordinal == options_.fail_write_at) {
      return Status(options_.code, "injected write failure");
    }
    Status s = inner_->WriteAt(offset, buffer, length);
    if (s.ok()) RecordWrite(length);
    return s;
  }

  Result<uint64_t> Size() const override {
    auto size = inner_->Size();
    if (size.ok() && options_.truncate_after_bytes != 0 &&
        *size > options_.truncate_after_bytes) {
      return options_.truncate_after_bytes;
    }
    return size;
  }
  Status Sync() override { return inner_->Sync(); }

  /// Shrinks (or restores, with 0) the apparent device size at runtime:
  /// lets tests truncate the file *after* it was successfully opened,
  /// modelling data vanishing behind a reader's back.
  void set_truncate_after_bytes(uint64_t bytes) {
    options_.truncate_after_bytes = bytes;
  }

  /// Arms a one-shot fault: the first later read whose byte range covers
  /// byte `victim` fails; reads after it succeed again. Call before any
  /// reader thread starts.
  void set_fail_read_covering(uint64_t victim) {
    fail_read_covering_ = victim;
    covering_fired_ = false;
  }

  uint64_t reads_attempted() const { return reads_; }
  uint64_t writes_attempted() const { return writes_; }
  BlockDevice* inner() { return inner_.get(); }

 private:
  static constexpr uint64_t kNever = UINT64_MAX;

  std::unique_ptr<BlockDevice> inner_;
  Options options_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  uint64_t fail_read_covering_ = kNever;
  std::atomic<bool> covering_fired_{false};
};

}  // namespace opaq

#endif  // OPAQ_IO_FAULTY_DEVICE_H_
