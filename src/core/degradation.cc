#include "core/degradation.h"

namespace aib {

void DegradationManager::Quarantine(const PartialIndex* index, size_t page) {
  {
    std::lock_guard lock(mu_);
    quarantined_[index].insert(page);
  }
  if (metrics_ != nullptr) metrics_->Increment(kMetricPartitionsQuarantined);
}

bool DegradationManager::IsQuarantined(const PartialIndex* index,
                                       size_t page) const {
  std::lock_guard lock(mu_);
  auto it = quarantined_.find(index);
  return it != quarantined_.end() && it->second.contains(page);
}

void DegradationManager::OnCleanScan(const PartialIndex* index) {
  std::lock_guard lock(mu_);
  quarantined_.erase(index);
}

}  // namespace aib
