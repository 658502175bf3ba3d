// Paged backing storage for the sealable trie's node arenas.
//
// Nodes live in fixed-size *pages* (contiguous runs of same-kind
// records, so sibling spines written together stay packed together),
// and pages are owned by a PageStore.  Every page is an in-RAM buffer
// whose address never changes while its id is allocated, so callers
// resolve an id with page() and keep the pointer for as long as they
// need it.  Freed pages go back on a free list and are recycled by
// later allocs, which is what turns sealing into reclaimed memory
// (the paper's §III-A claim).
//
// Thread safety: all methods are safe to call concurrently.  alloc()
// and free_page() take a mutex; page() is lock-free, so immutable
// (snapshotted) pages may be read from other threads while the live
// trie allocates and writes elsewhere.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace bmg::trie {

using PageId = std::uint32_t;
inline constexpr PageId kNoPage = 0xFFFFFFFFu;

struct PageStoreConfig {
  /// Fixed page size in bytes.  Small values (a few records) are
  /// useful in tests to force page-boundary coverage.
  std::size_t page_bytes = 16 * 1024;
};

/// Counters behind the "pages freed vs seal rate" metric (§V-D
/// extension).
struct PageStoreStats {
  std::size_t page_bytes = 0;
  std::size_t pages_allocated = 0;  ///< cumulative alloc() calls
  std::size_t pages_freed = 0;      ///< cumulative free_page() calls
  std::size_t pages_live = 0;       ///< currently allocated
  [[nodiscard]] std::size_t live_bytes() const { return pages_live * page_bytes; }
};

class PageStore {
 public:
  /// Throws std::invalid_argument if `cfg.page_bytes` is below 256.
  explicit PageStore(const PageStoreConfig& cfg);

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  [[nodiscard]] std::size_t page_bytes() const noexcept { return page_bytes_; }

  /// Allocates a zero-filled page (recycling freed ids first).
  [[nodiscard]] PageId alloc();

  /// Returns `page` to the free list.
  void free_page(PageId page);

  /// The page's buffer: `page_bytes()` bytes, stable until the id is
  /// freed.
  [[nodiscard]] std::uint8_t* page(PageId page) const noexcept {
    // Lock-free: this is the hottest call in the trie (every node
    // access).  A page's buffer pointer never changes once its id is
    // published — grows swap in a copied table, recycled ids keep
    // their buffer — and the id handoff (trie mutation order, snapshot
    // publish) provides the happens-before for the slot's contents.
    return table_.load(std::memory_order_acquire)[page];
  }

  [[nodiscard]] PageStoreStats stats() const;

 private:
  static constexpr std::size_t kInitialCap = 64;

  /// Doubles the pointer table.  The old table is retired, not freed:
  /// a concurrent page() may still be reading it, and every entry it
  /// holds stays valid because buffer pointers are stable.
  void grow();

  std::size_t page_bytes_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::uint8_t[]>> pages_;  ///< buffer owner, by id
  std::atomic<std::uint8_t**> table_{nullptr};          ///< lock-free id -> buffer
  std::size_t cap_ = 0;
  std::vector<std::unique_ptr<std::uint8_t*[]>> retired_tables_;
  std::vector<PageId> free_;
  PageStoreStats stats_;
};

}  // namespace bmg::trie
