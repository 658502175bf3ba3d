// Paged backing storage for the sealable trie's node arenas.
//
// The trie no longer keeps every node in growable in-RAM slabs:
// nodes live in fixed-size *pages* (contiguous runs of same-kind
// records, so sibling spines written together stay packed together),
// and pages are owned by a PageStore.  Two backends share the
// interface:
//
//   * InMemoryPageStore — every page resident, pin() is a pointer
//     lookup.  The default for tests, determinism checks, and every
//     workload that fits in RAM (identical behaviour to the old
//     slabs, minus their realloc copies).
//   * FilePageStore — a bounded LRU of resident frames backed by an
//     unlinked spill file.  Cold pages are written out and re-read on
//     demand, so a trie with 10^8+ entries no longer needs to fit in
//     RAM.  Freed pages are hole-punched out of the file where the
//     filesystem supports it, making sealing *measurable* space
//     reclamation (the paper's §III-A claim).
//
// Page contents are identical across backends by construction — the
// store never interprets record bytes — which is what the trie-page
// determinism CI job (roots + proofs diffed across backends) pins.
//
// Thread safety: all methods are safe to call concurrently.  A pinned
// page is never evicted or moved, so the returned frame pointer stays
// valid until the matching unpin(); immutable (snapshotted) pages may
// be pinned and read from proof-service threads while the live trie
// allocates and writes elsewhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace bmg::trie {

using PageId = std::uint32_t;
inline constexpr PageId kNoPage = 0xFFFFFFFFu;

struct PageStoreConfig {
  enum class Backend { kMemory, kFile };
  Backend backend = Backend::kMemory;
  /// Fixed page size in bytes.  Small values (a few records) are
  /// useful in tests to force page-boundary and eviction coverage.
  std::size_t page_bytes = 16 * 1024;
  /// FilePageStore only: number of page frames kept resident.  Pinned
  /// frames can push residency above this bound temporarily (a pin is
  /// a promise the pointer stays valid), so it must comfortably exceed
  /// one operation's working set — a root-to-leaf spine plus, during
  /// commit(), the pages holding that block's dirty refs.
  std::size_t max_resident_pages = 4096;
  /// FilePageStore only: spill file path.  Empty uses an anonymous
  /// unlinked temporary in $TMPDIR (freed by the OS on process exit).
  std::string file_path;
};

/// Counters behind the "pages freed vs seal rate" metric (§V-D
/// extension) and the out-of-core residency accounting.
struct PageStoreStats {
  std::size_t page_bytes = 0;
  std::size_t pages_allocated = 0;  ///< cumulative alloc() calls
  std::size_t pages_freed = 0;      ///< cumulative free_page() calls
  std::size_t pages_live = 0;       ///< currently allocated
  std::size_t resident_pages = 0;   ///< frames in RAM right now
  std::size_t pinned_pages = 0;     ///< frames with an active pin
  std::size_t evictions = 0;        ///< cumulative frames dropped to disk
  std::size_t faults = 0;           ///< cumulative re-reads from disk
  std::size_t holes_punched = 0;    ///< freed pages returned to the fs
  std::size_t spill_bytes = 0;      ///< high-water spill-file size
  [[nodiscard]] std::size_t resident_bytes() const { return resident_pages * page_bytes; }
};

class PageStore {
 public:
  virtual ~PageStore() = default;

  [[nodiscard]] std::size_t page_bytes() const noexcept { return page_bytes_; }

  /// Allocates a zero-filled page (recycling freed ids first).
  [[nodiscard]] virtual PageId alloc() = 0;

  /// Returns `page` to the free list.  The page must be unpinned.
  virtual void free_page(PageId page) = 0;

  /// Makes `page` resident and pins it; the pointer stays valid (and
  /// the frame un-evictable) until the matching unpin().  Pins nest.
  [[nodiscard]] virtual std::uint8_t* pin(PageId page) = 0;

  /// Releases one pin.  `dirty` marks the frame as modified since it
  /// was last written to the backing file (ignored by the in-RAM
  /// backend, which has no backing file).
  virtual void unpin(PageId page, bool dirty) = 0;

  [[nodiscard]] virtual PageStoreStats stats() const = 0;

  [[nodiscard]] static std::unique_ptr<PageStore> create(const PageStoreConfig& cfg);

 protected:
  explicit PageStore(std::size_t page_bytes) : page_bytes_(page_bytes) {}

 private:
  std::size_t page_bytes_;
};

/// RAII pin: resolves a page to a frame pointer for the lifetime of
/// the guard.  Movable so walkers can hand pins up a call chain.
class PagePin {
 public:
  PagePin() = default;
  PagePin(PageStore& store, PageId page)
      : store_(&store), page_(page), data_(store.pin(page)) {}
  PagePin(PagePin&& other) noexcept
      : store_(other.store_), page_(other.page_), data_(other.data_),
        dirty_(other.dirty_) {
    other.store_ = nullptr;
  }
  PagePin& operator=(PagePin&& other) noexcept {
    if (this != &other) {
      reset();
      store_ = other.store_;
      page_ = other.page_;
      data_ = other.data_;
      dirty_ = other.dirty_;
      other.store_ = nullptr;
    }
    return *this;
  }
  PagePin(const PagePin&) = delete;
  PagePin& operator=(const PagePin&) = delete;
  ~PagePin() { reset(); }

  void reset() {
    if (store_ != nullptr) store_->unpin(page_, dirty_);
    store_ = nullptr;
    data_ = nullptr;
  }

  [[nodiscard]] std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] PageId page() const noexcept { return page_; }
  [[nodiscard]] bool valid() const noexcept { return store_ != nullptr; }
  void mark_dirty() noexcept { dirty_ = true; }

 private:
  PageStore* store_ = nullptr;
  PageId page_ = kNoPage;
  std::uint8_t* data_ = nullptr;
  bool dirty_ = false;
};

}  // namespace bmg::trie
