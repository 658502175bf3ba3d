#include "trie/page_store.hpp"

#include <cstring>
#include <stdexcept>

namespace bmg::trie {

PageStore::PageStore(const PageStoreConfig& cfg) : page_bytes_(cfg.page_bytes) {
  if (page_bytes_ < 256)
    throw std::invalid_argument("PageStore: page_bytes must be >= 256");
  auto table = std::make_unique<std::uint8_t*[]>(kInitialCap);
  table_.store(table.get(), std::memory_order_release);
  cap_ = kInitialCap;
  retired_tables_.push_back(std::move(table));
}

PageId PageStore::alloc() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.pages_allocated;
  ++stats_.pages_live;
  if (!free_.empty()) {
    const PageId id = free_.back();
    free_.pop_back();
    // Same buffer, recycled id: no reader can still reference it
    // (epoch reclamation in StoreCore), so the pointer stays stable
    // and page() stays lock-free.
    std::memset(pages_[id].get(), 0, page_bytes_);
    return id;
  }
  const auto id = static_cast<PageId>(pages_.size());
  if (pages_.size() == cap_) grow();
  pages_.push_back(std::make_unique<std::uint8_t[]>(page_bytes_));
  std::memset(pages_.back().get(), 0, page_bytes_);
  table_.load(std::memory_order_relaxed)[id] = pages_.back().get();
  return id;
}

void PageStore::free_page(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.pages_freed;
  --stats_.pages_live;
  free_.push_back(page);
}

PageStoreStats PageStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PageStoreStats s = stats_;
  s.page_bytes = page_bytes_;
  return s;
}

void PageStore::grow() {
  auto bigger = std::make_unique<std::uint8_t*[]>(cap_ * 2);
  std::uint8_t** old = table_.load(std::memory_order_relaxed);
  std::memcpy(bigger.get(), old, cap_ * sizeof(std::uint8_t*));
  table_.store(bigger.get(), std::memory_order_release);
  cap_ *= 2;
  retired_tables_.push_back(std::move(bigger));
}

}  // namespace bmg::trie
