#ifndef OPAQ_PARALLEL_WORKER_POOL_H_
#define OPAQ_PARALLEL_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace opaq {

/// A fixed set of helper threads that fork-join jobs share: the cores the
/// sample phase stripes one resident run across (select/multi_select.h).
///
/// A job is `slices` independent calls `body(0) … body(slices - 1)`. The
/// caller of `ParallelFor` runs slices itself and idle helpers claim the
/// rest, one atomic increment per slice. A caller only ever waits for
/// slices that some thread has already claimed and is running, never for a
/// free helper, so any number of concurrent callers make progress even
/// when every helper is busy elsewhere (each then runs its whole job
/// alone). Helpers take jobs round-robin, so concurrent callers share them.
///
/// Threads are created once, with the pool, and live until it is
/// destroyed: nothing is spawned per job. Callers should size buffers
/// before the job, so helpers allocate little: glibc keeps a malloc arena
/// per thread, and what a helper frees stays resident there. Run and chunk
/// buffers, the large ones, come from `RunBufferPool` (io/run_buffer_pool.h)
/// instead, which keeps them across threads and jobs.
class WorkerPool {
 public:
  /// Cores this process may use: `hardware_concurrency()`, or 1 when the
  /// platform cannot tell.
  static size_t HardwareWidth();

  /// The process-wide pool of `HardwareWidth() - 1` helpers (the caller is
  /// the last core), created on first use.
  static WorkerPool& Shared();

  explicit WorkerPool(size_t helpers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t helpers() const { return threads_.size(); }

  /// Runs `body(i)` for every i in [0, slices) and returns once all have
  /// finished. Slices may run on any thread and in any order.
  template <typename Body>
  void ParallelFor(size_t slices, Body&& body) {
    using Fn = std::remove_reference_t<Body>;
    if (slices <= 1 || threads_.empty()) {
      for (size_t i = 0; i < slices; ++i) body(i);
      return;
    }
    Job job;
    job.slices = slices;
    job.context = &body;
    job.run = [](void* context, size_t i) { (*static_cast<Fn*>(context))(i); };
    RunJob(&job);
  }

 private:
  struct Job {
    size_t slices = 0;
    void* context = nullptr;
    void (*run)(void*, size_t) = nullptr;
    std::atomic<size_t> next{0};
    size_t helpers = 0;  ///< helpers inside `RunSlices`; guarded by mutex_

    bool Unclaimed() const {
      return next.load(std::memory_order_relaxed) < slices;
    }
    void RunSlices() {
      for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                     slices;) {
        run(context, i);
      }
    }
  };

  void RunJob(Job* job);
  void HelperLoop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< a job was queued, or stop_
  std::condition_variable done_cv_;  ///< some job lost its last helper
  std::deque<Job*> jobs_;            ///< jobs that may have unclaimed slices
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace opaq

#endif  // OPAQ_PARALLEL_WORKER_POOL_H_
