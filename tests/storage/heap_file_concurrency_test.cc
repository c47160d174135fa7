#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"

namespace aib {
namespace {

// One inserter grows the page directory while readers translate, without
// any lock, every rid already handed out — the way a covered probe
// translates the rids an index lookup returns while DML appends pages.
TEST(HeapFileConcurrencyTest, ReadersTranslatePublishedRidsWhileItGrows) {
  constexpr int kRows = 3000;
  constexpr int kReaders = 3;
  const Schema schema = Schema::PaperSchema(1, 64);
  DiskManager disk(512);
  BufferPool pool(&disk, 64);
  HeapFile heap(&disk, &pool, &schema);
  // Rids are written before `published` covers them (release/acquire),
  // as an index publishes an entry only after its heap insert returned.
  std::vector<Rid> rids(kRows);
  std::atomic<int> published{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      int seen = 0;
      while (seen < kRows) {
        const int n = published.load(std::memory_order_acquire);
        for (int i = 0; i < n; ++i) {
          const Result<size_t> index = heap.PageIndexOf(rids[i].page_id);
          if (!index.ok() || index.value() >= heap.PageCount() ||
              heap.PageIdAt(index.value()) != rids[i].page_id) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        seen = n;
        std::this_thread::yield();
      }
    });
  }
  for (int i = 0; i < kRows; ++i) {
    Result<Rid> rid = heap.Insert(Tuple({i}, {std::string(40, 'x')}));
    ASSERT_TRUE(rid.ok());
    rids[i] = rid.value();
    published.store(i + 1, std::memory_order_release);
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(heap.PageCount(), 200u);  // the directory grew across segments
}

}  // namespace
}  // namespace aib
