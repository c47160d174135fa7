#ifndef AIB_SERVICE_SHARED_SCAN_MANAGER_H_
#define AIB_SERVICE_SHARED_SCAN_MANAGER_H_

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/table.h"

namespace aib {

/// Per-caller statistics of one shared scan.
struct SharedScanStats {
  /// Pages delivered to this caller — always the table's page count on
  /// success.
  size_t pages_delivered = 0;
  /// Pages this caller read itself while driving the group cursor.
  size_t pages_driven = 0;
  /// Pages delivered while another scan was driving (reads this caller got
  /// for free).
  size_t pages_shared = 0;
  /// True when this scan joined a group that already had an active member.
  bool attached = false;
};

/// Cooperative table scans (after Cooperative Scans / Predictive Buffer
/// Management): concurrent full scans of the same table are merged into one
/// scan *group* with a single circular page cursor. The first arrival
/// becomes the driver and reads pages; every page is handed to all attached
/// members while it is resident, so K overlapping scans cost roughly one
/// pass of page reads instead of K and stop thrashing the buffer pool's LRU
/// against each other. A scan that attaches mid-pass rides the cursor to
/// the end, then the cursor wraps so it (or whoever is left) picks up the
/// pages it missed; each member detaches after seeing every page exactly
/// once. When the driver finishes its own pass, a still-unfinished member
/// takes over driving.
///
/// Thread-safe; the manager is passive (no threads of its own) — it
/// coordinates the calling threads, typically QueryService workers.
class SharedScanManager {
 public:
  explicit SharedScanManager(Metrics* metrics = nullptr);

  SharedScanManager(const SharedScanManager&) = delete;
  SharedScanManager& operator=(const SharedScanManager&) = delete;

  /// Invokes `fn` for every live tuple of `table` exactly once, sharing
  /// page reads with any concurrent Scan of the same table. `fn` may be
  /// called from whichever member thread is currently driving, but always
  /// with the group latched, so it needs no synchronization of its own as
  /// long as it only touches caller-local state. Blocks until this
  /// caller's pass is complete.
  Status Scan(const Table& table,
              const std::function<void(const Rid&, const Tuple&)>& fn,
              SharedScanStats* stats = nullptr);

  /// Number of tables with an in-flight scan group (diagnostics).
  size_t ActiveGroups() const;

 private:
  struct Member;
  struct ScanGroup;

  Metrics* metrics_;  // not owned; may be null
  mutable std::mutex mu_;
  std::map<const Table*, std::shared_ptr<ScanGroup>> groups_;
};

}  // namespace aib

#endif  // AIB_SERVICE_SHARED_SCAN_MANAGER_H_
