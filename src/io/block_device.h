#ifndef OPAQ_IO_BLOCK_DEVICE_H_
#define OPAQ_IO_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace opaq {

/// Cumulative I/O counters for one device. Thread-safe (relaxed atomics):
/// the parallel harness reads them from the driver thread while processor
/// threads do I/O.
struct IoStats {
  std::atomic<uint64_t> read_requests{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> write_requests{0};
  std::atomic<uint64_t> bytes_written{0};

  void Reset() {
    read_requests = 0;
    bytes_read = 0;
    write_requests = 0;
    bytes_written = 0;
  }
};

/// Random-access byte device: the project's abstraction of a disk.
///
/// OPAQ's setting is disk-resident data, so all dataset access in the core
/// library goes through this interface. Implementations: `MemoryBlockDevice`
/// (RAM-backed, for tests), `FileBlockDevice` (a real file), and
/// `ThrottledDevice` (wraps another device with a bandwidth/latency model to
/// simulate 1997-class disk arms; see throttled_device.h).
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Reads exactly `length` bytes at `offset` into `buffer`. Fails with
  /// OutOfRange if the read would pass the end of the device.
  virtual Status ReadAt(uint64_t offset, void* buffer, size_t length) = 0;

  /// Writes `length` bytes at `offset`, extending the device if needed.
  virtual Status WriteAt(uint64_t offset, const void* buffer,
                         size_t length) = 0;

  /// Current size in bytes.
  virtual Result<uint64_t> Size() const = 0;

  /// Flushes buffered writes to stable storage (no-op for memory devices).
  virtual Status Sync() = 0;

  /// I/O counters (updated by every ReadAt/WriteAt).
  const IoStats& stats() const { return stats_; }
  IoStats& mutable_stats() { return stats_; }

 protected:
  void RecordRead(size_t length) {
    stats_.read_requests.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_read.fetch_add(length, std::memory_order_relaxed);
  }
  void RecordWrite(size_t length) {
    stats_.write_requests.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_written.fetch_add(length, std::memory_order_relaxed);
  }

 private:
  IoStats stats_;
};

/// RAM-backed device. Useful for unit tests and for small intermediate data.
class MemoryBlockDevice : public BlockDevice {
 public:
  MemoryBlockDevice() = default;

  Status ReadAt(uint64_t offset, void* buffer, size_t length) override;
  Status WriteAt(uint64_t offset, const void* buffer, size_t length) override;
  Result<uint64_t> Size() const override;
  Status Sync() override { return Status::OK(); }

 private:
  std::vector<uint8_t> data_;
};

/// POSIX-file-backed device using pread/pwrite (thread-safe positioned I/O).
class FileBlockDevice : public BlockDevice {
 public:
  /// Opens `path` read-only (kOpen), opens it for reading and writing
  /// (kReadWrite), or creates/truncates it (kCreate). Readers use kOpen, so
  /// data they only read needs no write permission.
  enum class Mode { kOpen, kReadWrite, kCreate };
  static Result<std::unique_ptr<FileBlockDevice>> Make(const std::string& path,
                                                       Mode mode);

  ~FileBlockDevice() override;
  FileBlockDevice(const FileBlockDevice&) = delete;
  FileBlockDevice& operator=(const FileBlockDevice&) = delete;

  Status ReadAt(uint64_t offset, void* buffer, size_t length) override;
  Status WriteAt(uint64_t offset, const void* buffer, size_t length) override;
  Result<uint64_t> Size() const override;
  Status Sync() override;

  const std::string& path() const { return path_; }

 private:
  FileBlockDevice(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_;
};

}  // namespace opaq

#endif  // OPAQ_IO_BLOCK_DEVICE_H_
