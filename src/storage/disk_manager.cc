#include "storage/disk_manager.h"

#include <cstring>

namespace aib {

DiskManager::DiskManager(uint32_t page_size, Metrics* metrics)
    : page_size_(page_size), metrics_(metrics), injector_(metrics) {
  if (metrics_ != nullptr) {
    pages_read_ = metrics_->Counter(kMetricPagesRead);
    pages_written_ = metrics_->Counter(kMetricPagesWritten);
  }
}

namespace {

Status FaultStatus(FaultKind kind, FaultOp op) {
  const bool read = op == FaultOp::kRead;
  if (kind == FaultKind::kTransient) {
    return Status::IoError(read ? "injected transient read fault"
                                : "injected transient write fault");
  }
  return Status::Corruption(read ? "injected read fault"
                                 : "injected write fault");
}

}  // namespace

PageId DiskManager::AllocatePage() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  pages_.push_back(std::make_unique<Page>(page_size_));
  return static_cast<PageId>(pages_.size() - 1);
}

Status DiskManager::ReadPage(PageId page_id, Page* out) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (page_id >= pages_.size()) {
    return Status::InvalidArgument("read of unallocated page");
  }
  const FaultDecision fault = injector_.Decide(FaultOp::kRead, page_id);
  if (fault.kind != FaultKind::kNone) {
    return FaultStatus(fault.kind, FaultOp::kRead);
  }
  std::memcpy(out->mutable_raw().data(), pages_[page_id]->raw().data(),
              page_size_);
  if (pages_read_ != nullptr) {
    pages_read_->fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status DiskManager::WritePage(PageId page_id, const Page& page) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (page_id >= pages_.size()) {
    return Status::InvalidArgument("write of unallocated page");
  }
  const FaultDecision fault = injector_.Decide(FaultOp::kWrite, page_id);
  if (fault.kind != FaultKind::kNone) {
    return FaultStatus(fault.kind, FaultOp::kWrite);
  }
  std::memcpy(pages_[page_id]->mutable_raw().data(), page.raw().data(),
              page_size_);
  if (pages_written_ != nullptr) {
    pages_written_->fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status DiskManager::RestorePage(PageId page_id,
                                std::span<const uint8_t> bytes) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (page_id >= pages_.size()) {
    return Status::InvalidArgument("restore of unallocated page");
  }
  if (bytes.size() != page_size_) {
    return Status::InvalidArgument("snapshot page size mismatch");
  }
  std::memcpy(pages_[page_id]->mutable_raw().data(), bytes.data(),
              page_size_);
  return Status::Ok();
}

}  // namespace aib
