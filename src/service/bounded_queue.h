#ifndef AIB_SERVICE_BOUNDED_QUEUE_H_
#define AIB_SERVICE_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace aib {

/// Outcome of BoundedQueue::TryPush.
enum class PushResult { kOk, kFull, kClosed };

/// Bounded multi-producer/multi-consumer queue with reject-on-full
/// admission control: producers never block and never grow the queue past
/// its capacity — a full queue refuses the item so the caller can push back
/// (QueryService turns kFull into a retriable Busy status and kClosed into
/// Cancelled). Consumers block in Pop until an item arrives or the queue is
/// closed *and* drained, so closing still lets already-admitted work finish.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues `item` unless the queue is closed or full (closed wins when
  /// both hold). Never blocks.
  PushResult TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return PushResult::kOk;
  }

  /// Dequeues the oldest item, blocking while the queue is open but empty.
  /// Returns nullopt once the queue is closed and fully drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Stops admission. Blocked consumers drain the backlog, then see
  /// nullopt. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace aib

#endif  // AIB_SERVICE_BOUNDED_QUEUE_H_
