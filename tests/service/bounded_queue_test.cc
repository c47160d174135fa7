#include "service/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace aib {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(4);
  EXPECT_EQ(queue.TryPush(1), PushResult::kOk);
  EXPECT_EQ(queue.TryPush(2), PushResult::kOk);
  EXPECT_EQ(queue.TryPush(3), PushResult::kOk);
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), 3);
}

TEST(BoundedQueueTest, RejectsWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.TryPush(1), PushResult::kOk);
  EXPECT_EQ(queue.TryPush(2), PushResult::kOk);
  // Admission control, no blocking.
  EXPECT_EQ(queue.TryPush(3), PushResult::kFull);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.TryPush(3), PushResult::kOk);  // freed one slot
}

TEST(BoundedQueueTest, CloseDrainsBacklogThenSignalsEnd) {
  BoundedQueue<int> queue(4);
  EXPECT_EQ(queue.TryPush(7), PushResult::kOk);
  EXPECT_EQ(queue.TryPush(8), PushResult::kOk);
  queue.Close();
  // No admission after close.
  EXPECT_EQ(queue.TryPush(9), PushResult::kClosed);
  EXPECT_EQ(queue.Pop(), 7);       // backlog still served
  EXPECT_EQ(queue.Pop(), 8);
  EXPECT_EQ(queue.Pop(), std::nullopt);  // drained + closed
}

TEST(BoundedQueueTest, PushReportsClosedApartFromFull) {
  BoundedQueue<int> queue(1);
  EXPECT_EQ(queue.TryPush(1), PushResult::kOk);
  // Full but open: the caller may retry after a backoff.
  EXPECT_EQ(queue.TryPush(2), PushResult::kFull);
  queue.Close();
  // Closed wins over full: retrying can never succeed.
  EXPECT_EQ(queue.TryPush(3), PushResult::kClosed);
  EXPECT_EQ(queue.Pop(), 1);
  // Closed and empty is still closed, not full.
  EXPECT_EQ(queue.TryPush(4), PushResult::kClosed);
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumers) {
  BoundedQueue<int> queue(4);
  std::thread consumer([&] { EXPECT_EQ(queue.Pop(), std::nullopt); });
  queue.Close();
  consumer.join();
}

TEST(BoundedQueueTest, ConcurrentProducersConsumersDeliverExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> queue(16);
  std::atomic<int> consumed{0};
  std::atomic<int64_t> sum{0};

  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (std::optional<int> item = queue.Pop()) {
        sum.fetch_add(*item);
        consumed.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int item = p * kPerProducer + i;
        while (queue.TryPush(item) != PushResult::kOk) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (size_t i = kConsumers; i < threads.size(); ++i) threads[i].join();
  queue.Close();
  for (int c = 0; c < kConsumers; ++c) threads[c].join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), int64_t{total} * (total - 1) / 2);
}

}  // namespace
}  // namespace aib
