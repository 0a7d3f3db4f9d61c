#ifndef OPAQ_IO_RUN_BUFFER_POOL_H_
#define OPAQ_IO_RUN_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace opaq {

class Gauge;

/// The process-wide store of run- and chunk-size element buffers: every
/// run pipeline takes its buffers here and gives them back when it is done,
/// so a buffer outlives the (often short-lived) lane, shard or connection
/// thread that first filled it and the next pipeline reuses it instead of
/// asking malloc again.
///
/// Without it, glibc serves each thread's large allocations from that
/// thread's own arena and keeps what is freed there, so a process that
/// opens pipelines on fresh threads (several shards, an exact pass, a data
/// node per connection) grows a resident copy of its buffers per arena.
///
/// Bounds, in bytes of buffer capacity:
///   - `Take(n)` reuses the smallest idle buffer of the same element type
///     whose capacity lies in [n, 2n), so a small request never pins a
///     large buffer and a large one never gets a buffer it would have to
///     grow. The bound is open: buffer sizes come in powers of two (runs of
///     2^20, wire chunks of 2^19, extents of 2^16), and a run buffer lent to
///     a chunk of half its size is one the next run must allocate again;
///   - idle + outstanding never exceeds the high-water mark, the most ever
///     outstanding at once: a fresh allocation or a foreign buffer that
///     would break this frees idle buffers, oldest first.
/// So the pool holds at most what its busiest moment needed, and a workload
/// that repeats (build, exact pass, build, ...) allocates only in its first
/// round.
///
/// Thread-safe. The pool publishes `io.run_buffers.idle_bytes`,
/// `io.run_buffers.outstanding_bytes` and `io.run_buffers.high_water_bytes`
/// as gauges of the global `MetricsRegistry`.
class RunBufferPool {
 public:
  struct Stats {
    uint64_t idle_bytes = 0;
    uint64_t outstanding_bytes = 0;
    uint64_t high_water_bytes = 0;
    size_t idle_buffers = 0;
  };

  /// The pool every pipeline in the process shares.
  static RunBufferPool& Shared();

  /// `publish` = publish the gauges (only the shared pool does; a private
  /// pool serves one owner, such as a data node's response buffers, or a
  /// test).
  explicit RunBufferPool(bool publish = false);

  /// An empty buffer with capacity for at least `n` elements. It hands out
  /// capacity only: no element is written, so a caller that fills a short
  /// prefix touches only that prefix's pages.
  template <typename K>
  std::vector<K> Take(size_t n) {
    if (n == 0) return {};
    std::unique_ptr<Block> idle = Reuse(TypeKey<K>(), n * sizeof(K));
    if (idle != nullptr) {
      return std::move(static_cast<Holder<K>&>(*idle).buffer);
    }
    std::vector<K> fresh;
    fresh.reserve(n);
    Allocated(fresh.capacity() * sizeof(K));
    return fresh;
  }

  /// Takes `buffer` back (leaving it empty). Capacity-0 buffers are
  /// ignored; any other buffer is accepted, including one the pool did not
  /// hand out.
  template <typename K>
  void Give(std::vector<K>&& buffer) {
    if (buffer.capacity() == 0) return;
    auto block = std::make_unique<Holder<K>>();
    block->buffer = std::move(buffer);
    block->buffer.clear();
    const size_t bytes = block->buffer.capacity() * sizeof(K);
    Keep(TypeKey<K>(), bytes, std::move(block));
  }

  Stats stats() const;

 private:
  /// An idle buffer of any element type.
  struct Block {
    virtual ~Block() = default;
  };
  template <typename K>
  struct Holder : Block {
    std::vector<K> buffer;
  };
  struct Idle {
    const void* type;
    uint64_t bytes;
    std::unique_ptr<Block> block;
  };

  /// One address per element type: buffers are reused only within a type.
  template <typename K>
  static const void* TypeKey() {
    static const char key = 0;
    return &key;
  }

  std::unique_ptr<Block> Reuse(const void* type, uint64_t bytes);
  void Allocated(uint64_t bytes);
  void Keep(const void* type, uint64_t bytes, std::unique_ptr<Block> block);
  /// Moves idle buffers into `evicted` until idle + outstanding fits under
  /// the high-water mark, then publishes the gauges.
  void TrimLocked(std::vector<std::unique_ptr<Block>>* evicted);
  void PublishLocked();

  mutable std::mutex mutex_;
  std::vector<Idle> idle_;  // oldest first
  uint64_t idle_bytes_ = 0;
  uint64_t outstanding_bytes_ = 0;
  uint64_t high_water_bytes_ = 0;
  Gauge* idle_gauge_ = nullptr;
  Gauge* outstanding_gauge_ = nullptr;
  Gauge* high_water_gauge_ = nullptr;
};

/// A buffer taken from the shared pool for one scope and given back when
/// the scope ends, on every exit path: the run buffer of a consumer loop.
template <typename K>
class PooledBuffer {
 public:
  explicit PooledBuffer(size_t n)
      : buffer_(RunBufferPool::Shared().Take<K>(n)) {}
  ~PooledBuffer() { RunBufferPool::Shared().Give(std::move(buffer_)); }

  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  std::vector<K>* get() { return &buffer_; }
  std::vector<K>* operator->() { return &buffer_; }

 private:
  std::vector<K> buffer_;
};

}  // namespace opaq

#endif  // OPAQ_IO_RUN_BUFFER_POOL_H_
