#ifndef OPAQ_PARALLEL_CHANNEL_H_
#define OPAQ_PARALLEL_CHANNEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace opaq {

/// A bounded multi-producer/multi-consumer queue with close semantics —
/// the building block for producer/consumer pipelines (the async run
/// reader uses two: a free-buffer channel and a full-buffer channel).
///
/// Semantics:
///  - `Send` blocks while the channel holds `capacity` items; it returns
///    false once the channel is closed, leaving the value with the caller.
///  - `Receive` blocks while the channel is empty and open; after `Close`
///    it keeps draining queued items and returns false only when empty.
///  - `Close` is idempotent and wakes every blocked sender and receiver.
template <typename T>
class Channel {
 public:
  explicit Channel(size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) capacity_ = 1;
  }

  /// Blocks until there is room (or the channel closes). Returns whether
  /// the value was enqueued (moved from); on false `value` is untouched.
  bool Send(T&& value) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      send_cv_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    recv_cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available (or the channel closes empty).
  /// Returns whether `*out` was populated.
  bool Receive(T* out) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      recv_cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
      if (items_.empty()) return false;  // closed and drained
      *out = std::move(items_.front());
      items_.pop_front();
    }
    send_cv_.notify_one();
    return true;
  }

  /// Closes the channel: senders fail fast, receivers drain then stop.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    send_cv_.notify_all();
    recv_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable send_cv_;
  std::condition_variable recv_cv_;
  std::deque<T> items_;
  size_t capacity_;
  bool closed_ = false;
};

/// One untyped message in flight between simulated processors.
struct Message {
  int source = -1;
  int tag = 0;
  std::vector<uint8_t> payload;
};

/// A processor's inbox. Messages are matched on (source, tag) like MPI's
/// point-to-point semantics; order is preserved per (source, tag) pair.
/// Thread-safe: senders push from their own threads, the owner blocks on
/// Receive.
class Mailbox {
 public:
  void Deliver(Message message) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queues_[{message.source, message.tag}].push_back(std::move(message));
    }
    cv_.notify_all();
  }

  /// Blocks until a message from `source` with `tag` arrives.
  Message Receive(int source, int tag) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto key = std::make_pair(source, tag);
    cv_.wait(lock, [&] {
      auto it = queues_.find(key);
      return it != queues_.end() && !it->second.empty();
    });
    auto it = queues_.find(key);
    Message out = std::move(it->second.front());
    it->second.pop_front();
    return out;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::pair<int, int>, std::deque<Message>> queues_;
};

}  // namespace opaq

#endif  // OPAQ_PARALLEL_CHANNEL_H_
