// Failure-injection tests: simulated I/O faults must propagate as Status
// through every layer — buffer pool, heap file, executor — without crashes
// and without corrupting in-memory state that later operations rely on.

#include <gtest/gtest.h>

#include <vector>

#include "common/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "storage/heap_file.h"
#include "storage/table.h"

namespace aib {
namespace {

TEST(FaultInjectionTest, ReadFaultSurfacesFromDisk) {
  DiskManager disk(512);
  const PageId id = disk.AllocatePage();
  Page page(512);
  disk.fault_injector().InjectOneShot(FaultOp::kRead, 1);
  EXPECT_TRUE(disk.ReadPage(id, &page).IsCorruption());
  // The fault is one-shot.
  EXPECT_TRUE(disk.ReadPage(id, &page).ok());
}

TEST(FaultInjectionTest, WriteFaultSurfacesFromDisk) {
  DiskManager disk(512);
  const PageId id = disk.AllocatePage();
  Page page(512);
  disk.fault_injector().InjectOneShot(FaultOp::kWrite, 1);
  EXPECT_TRUE(disk.WritePage(id, page).IsCorruption());
  EXPECT_TRUE(disk.WritePage(id, page).ok());
}

TEST(FaultInjectionTest, BufferPoolPropagatesReadFault) {
  DiskManager disk(512);
  BufferPool pool(&disk, 4);
  const PageId id = disk.AllocatePage();
  disk.fault_injector().InjectOneShot(FaultOp::kRead, 1);
  EXPECT_TRUE(pool.FetchPage(id).status().IsCorruption());
  // The pool recovers: the failed fetch must not leak a pinned frame or a
  // stale table entry.
  Result<Page*> ok = pool.FetchPage(id);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(pool.UnpinPage(id, false).ok());
}

TEST(FaultInjectionTest, HeapFileRecoversAfterFaultWindow) {
  Schema schema = Schema::PaperSchema(1, 16);
  DiskManager disk(4096);
  BufferPool pool(&disk, 2);
  HeapFile heap(&disk, &pool, &schema);
  Result<Rid> rid = heap.Insert(Tuple({42}, {"x"}));
  ASSERT_TRUE(rid.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(heap.Insert(Tuple({i}, {std::string(60, 'f')})).ok());
  }
  disk.fault_injector().InjectOneShot(FaultOp::kRead, 1);
  EXPECT_FALSE(heap.Get(rid.value()).ok());
  // After the fault window, the same Get succeeds and returns the data.
  Result<Tuple> tuple = heap.Get(rid.value());
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple->IntValue(schema, 0), 42);
}

TEST(FaultInjectionTest, ScanPropagatesFaultMidway) {
  Schema schema = Schema::PaperSchema(1, 16);
  DiskManager disk(4096);
  BufferPool pool(&disk, 2);
  HeapFile heap(&disk, &pool, &schema);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(heap.Insert(Tuple({i}, {std::string(60, 'f')})).ok());
  }
  ASSERT_GT(heap.PageCount(), 3u);
  disk.fault_injector().InjectOneShot(FaultOp::kRead, 1);
  size_t visited = 0;
  const Status status =
      heap.ForEachTuple([&](const Rid&, const Tuple&) { ++visited; });
  EXPECT_TRUE(status.IsCorruption());
}

TEST(FaultInjectorTest, DisarmedInjectsNothing) {
  FaultInjector injector;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.Decide(FaultOp::kRead).kind, FaultKind::kNone);
    EXPECT_EQ(injector.Decide(FaultOp::kWrite).latency_ticks, 0u);
  }
  EXPECT_FALSE(injector.armed());
  EXPECT_EQ(injector.faults_injected(), 0u);
}

TEST(FaultInjectorTest, SameSeedReplaysIdenticalFaultStream) {
  FaultInjectorOptions options;
  options.seed = 1234;
  options.read_fault_rate = 0.2;
  options.latency_rate = 0.3;
  auto draw_stream = [&options] {
    FaultInjector injector;
    injector.Arm(options);
    std::vector<std::pair<FaultKind, uint64_t>> stream;
    for (int i = 0; i < 500; ++i) {
      const FaultDecision d = injector.Decide(FaultOp::kRead);
      stream.emplace_back(d.kind, d.latency_ticks);
    }
    return stream;
  };
  const auto first = draw_stream();
  EXPECT_EQ(first, draw_stream());
  // Some of each outcome actually occurred at these rates over 500 draws.
  size_t faults = 0, slow = 0;
  for (const auto& [kind, ticks] : first) {
    faults += kind != FaultKind::kNone;
    slow += ticks > 0;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_GT(slow, 0u);
  EXPECT_LT(faults, 500u);
}

TEST(FaultInjectorTest, RatesAreIndependentOfEachOther) {
  // The decision consumes every Bernoulli draw regardless of rates, so
  // changing the latency rate must not shift which operations fail.
  FaultInjectorOptions options;
  options.seed = 77;
  options.read_fault_rate = 0.1;
  options.latency_rate = 0.0;
  FaultInjector a;
  a.Arm(options);
  options.latency_rate = 0.9;
  FaultInjector b;
  b.Arm(options);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(a.Decide(FaultOp::kRead).kind, b.Decide(FaultOp::kRead).kind);
  }
}

TEST(FaultInjectorTest, DisarmClearsOneShots) {
  DiskManager disk(512);
  const PageId id = disk.AllocatePage();
  Page page(512);
  disk.fault_injector().InjectOneShot(FaultOp::kRead, 3);
  disk.fault_injector().Disarm();
  EXPECT_TRUE(disk.ReadPage(id, &page).ok());
}

TEST(FaultInjectorTest, LatencyTicksAreMeteredOnSuccessfulReads) {
  Metrics metrics;
  DiskManager disk(512, &metrics);
  const PageId id = disk.AllocatePage();
  Page page(512);
  FaultInjectorOptions options;
  options.seed = 5;
  options.latency_rate = 1.0;
  options.latency_ticks = 7;
  disk.fault_injector().Arm(options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(disk.ReadPage(id, &page).ok());
  }
  EXPECT_EQ(metrics.Get(kMetricFaultLatencyTicks), 70);
  EXPECT_EQ(metrics.Get(kMetricFaultsInjected), 0);
}

TEST(FaultInjectorTest, BufferPoolAbsorbsTransientFaults) {
  Metrics metrics;
  DiskManager disk(512, &metrics);
  BufferPoolOptions pool_options;
  pool_options.max_transient_retries = 10;
  // Tiny pool: every fetch misses and pays a (possibly faulty) disk read.
  BufferPool pool(&disk, 2, &metrics, pool_options);
  std::vector<PageId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(disk.AllocatePage());
  FaultInjectorOptions options;
  options.seed = 9;
  options.read_fault_rate = 0.3;
  options.corruption_fraction = 0.0;  // transient only
  disk.fault_injector().Arm(options);
  // With retries, every fetch eventually succeeds: per-attempt failure is
  // 0.3 and eleven attempts are allowed, so no fetch in a deterministic
  // 200-fetch run exhausts them.
  for (const PageId id : ids) {
    Result<Page*> page = pool.FetchPage(id);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  }
  EXPECT_GT(metrics.Get(kMetricTransientRetries), 0);
  EXPECT_GT(metrics.Get(kMetricFaultsInjected), 0);
}

TEST(FaultInjectorTest, ScopedSuspendMasksInjection) {
  FaultInjector injector;
  FaultInjectorOptions options;
  options.seed = 3;
  options.read_fault_rate = 1.0;
  injector.Arm(options);
  {
    FaultInjector::ScopedSuspend suspend;
    EXPECT_EQ(injector.Decide(FaultOp::kRead).kind, FaultKind::kNone);
  }
  EXPECT_NE(injector.Decide(FaultOp::kRead).kind, FaultKind::kNone);
}

}  // namespace
}  // namespace aib
