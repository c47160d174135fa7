#include "service/shared_scan_manager.h"

#include <condition_variable>
#include <thread>
#include <vector>

namespace aib {

SharedScanManager::SharedScanManager(Metrics* metrics) : metrics_(metrics) {}

/// One caller inside a scan group. Lives on the calling thread's stack for
/// the duration of Scan and is unlinked before Scan returns.
struct SharedScanManager::Member {
  const std::function<void(const Rid&, const Tuple&)>* fn = nullptr;
  size_t pages_done = 0;
  size_t pages_driven = 0;
  size_t pages_shared = 0;
  bool done = false;
  Status status;
};

/// Shared state of all concurrent scans of one table. Guarded by `mu`;
/// erased from the manager's map when the last member leaves (a straggler
/// holding the shared_ptr just finishes its pass solo).
struct SharedScanManager::ScanGroup {
  explicit ScanGroup(size_t pages) : page_count(pages) {}

  const size_t page_count;
  std::mutex mu;
  std::condition_variable cv;
  /// Next page number the driver will read (circular).
  size_t cursor = 0;
  bool driver_active = false;
  /// Scans that announced an attach but do not hold `mu` yet. The driver
  /// pauses between pages while this is non-zero so a late scan is never
  /// starved out of the lock by the read loop (mutexes are unfair; the
  /// driver would otherwise re-acquire `mu` before a woken waiter runs).
  std::atomic<size_t> attach_pending{0};
  std::vector<Member*> members;
};

Status SharedScanManager::Scan(
    const Table& table, const std::function<void(const Rid&, const Tuple&)>& fn,
    SharedScanStats* stats) {
  const size_t page_count = table.PageCount();
  if (stats != nullptr) *stats = SharedScanStats{};
  if (page_count == 0) return Status::Ok();

  Member me;
  me.fn = &fn;

  // Attach: find or create the table's group; lock order is manager mutex,
  // then group mutex (erase below takes them in the same order).
  std::shared_ptr<ScanGroup> group;
  {
    std::lock_guard<std::mutex> manager_lock(mu_);
    auto it = groups_.find(&table);
    if (it == groups_.end()) {
      it = groups_.emplace(&table, std::make_shared<ScanGroup>(page_count))
               .first;
    }
    group = it->second;
    group->attach_pending.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> group_lock(group->mu);
    if (!group->members.empty()) {
      if (stats != nullptr) stats->attached = true;
      if (metrics_ != nullptr) metrics_->Increment(kMetricSharedScanAttaches);
    }
    group->members.push_back(&me);
    group->attach_pending.fetch_sub(1, std::memory_order_relaxed);
    group->cv.notify_all();
  }

  {
    std::unique_lock<std::mutex> lock(group->mu);
    while (!me.done) {
      if (group->driver_active) {
        // Another member is reading pages for everyone; wait for our share.
        group->cv.wait(lock);
        continue;
      }
      group->driver_active = true;
      while (!me.done) {
        // Let announced attachers join before this page is read, so they
        // share it instead of paying for their own pass.
        while (group->attach_pending.load(std::memory_order_relaxed) > 0) {
          group->cv.wait(lock);
        }
        const size_t page = group->cursor % group->page_count;
        // Read the page with the group unlocked so late scans can attach
        // mid-pass; deliver to whoever is a member once the page is in.
        // The yield stands in for the I/O wait of a real disk read: it is
        // the window in which concurrent scans get scheduled and attach
        // (simulated reads are memcpy-fast, so without it one scan can
        // monopolize a core for its whole pass).
        lock.unlock();
        std::this_thread::yield();
        std::vector<std::pair<Rid, Tuple>> tuples;
        const Status read = table.heap().ForEachTupleOnPage(
            page, [&](const Rid& rid, const Tuple& tuple) {
              tuples.emplace_back(rid, tuple);
            });
        lock.lock();
        if (read.ok()) {
          for (Member* m : group->members) {
            if (m->done) continue;
            for (const auto& [rid, tuple] : tuples) (*m->fn)(rid, tuple);
          }
        }
        if (!read.ok()) {
          // A failed page read fails every in-flight member: they were all
          // promised this page.
          for (Member* m : group->members) {
            if (!m->done) {
              m->status = read;
              m->done = true;
            }
          }
        } else {
          for (Member* m : group->members) {
            if (m->done) continue;
            ++m->pages_done;
            if (m == &me) {
              ++m->pages_driven;
            } else {
              ++m->pages_shared;
            }
            if (m->pages_done >= group->page_count) m->done = true;
          }
          group->cursor = (group->cursor + 1) % group->page_count;
        }
        group->cv.notify_all();
      }
      group->driver_active = false;
      group->cv.notify_all();
    }
  }

  // Detach; the last member out removes the group from the map.
  {
    std::lock_guard<std::mutex> manager_lock(mu_);
    std::lock_guard<std::mutex> group_lock(group->mu);
    std::erase(group->members, &me);
    if (group->members.empty()) {
      auto it = groups_.find(&table);
      if (it != groups_.end() && it->second == group) groups_.erase(it);
    }
  }

  if (stats != nullptr) {
    stats->pages_delivered = me.pages_done;
    stats->pages_driven = me.pages_driven;
    stats->pages_shared = me.pages_shared;
  }
  if (metrics_ != nullptr && me.pages_shared > 0) {
    metrics_->Increment(kMetricSharedScanPagesShared,
                        static_cast<int64_t>(me.pages_shared));
  }
  return me.status;
}

size_t SharedScanManager::ActiveGroups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return groups_.size();
}

}  // namespace aib
