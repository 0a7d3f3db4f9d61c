#include "parallel/worker_pool.h"

#include <algorithm>

namespace opaq {

size_t WorkerPool::HardwareWidth() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores == 0 ? 1 : cores;
}

WorkerPool& WorkerPool::Shared() {
  static WorkerPool pool(HardwareWidth() - 1);
  return pool;
}

WorkerPool::WorkerPool(size_t helpers) {
  threads_.reserve(helpers);
  for (size_t i = 0; i < helpers; ++i) {
    threads_.emplace_back([this] { HelperLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void WorkerPool::RunJob(Job* job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(job);
  }
  work_cv_.notify_all();
  job->RunSlices();
  // Every slice is claimed now. Unqueue the job so no helper picks it up
  // again, then wait for the helpers still running its slices.
  std::unique_lock<std::mutex> lock(mutex_);
  jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
  done_cv_.wait(lock, [job] { return job->helpers == 0; });
}

void WorkerPool::HelperLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
    if (stop_) return;
    Job* job = jobs_.front();
    jobs_.pop_front();
    if (!job->Unclaimed()) continue;  // drained: leave it unqueued
    jobs_.push_back(job);             // round-robin across callers
    ++job->helpers;
    lock.unlock();
    job->RunSlices();
    lock.lock();
    jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
    if (--job->helpers == 0) done_cv_.notify_all();
  }
}

}  // namespace opaq
