// Paged node storage core for the sealable trie.
//
// This header is the storage layer under SealableTrie (trie.hpp) and
// TrieSnapshot (snapshot.hpp):
//
//   * POD node records (LeafRec/BranchRec/ExtRec) that live inside
//     fixed-size pages owned by a PageStore (page_store.hpp).  Records
//     are trivially copyable so a page can be copied byte-for-byte
//     (copy-on-write, clone).  Node ids keep the historical packing —
//     kind in the top 2 bits, a 30-bit slot index below — where the
//     slot index is `logical_page * slots_per_page + slot`.
//   * StoreCore: per-kind paged arenas with a chunked copy-on-write
//     logical→physical page table, epoch-based snapshot visibility,
//     and deferred physical-page reclamation.  Fully emptied pages
//     (everything on them sealed) are returned to the PageStore, which
//     is what turns the paper's sealing claim (§III-A) into measured
//     space reclamation.
//   * Shared read walkers (walk_get / walk_prove) used by both the
//     live trie and immutable snapshots, so proofs are byte-identical
//     no matter which side generates them.
//
// Snapshot model (shadow paging): the live trie mutates records in
// place while a logical page is *private* (born in the current epoch
// window, or invisible to every live snapshot).  `publish()` registers
// the current epoch and hands out a cheap copy of the chunked page
// tables; the first write to a page a snapshot can see copies the page
// and repoints the (privately cloned) table chunk.  Retired physical
// pages are freed immediately when no live snapshot can reference
// them, otherwise they sit on a pending list swept as snapshot epochs
// are released.
//
// Record pointers: a page's buffer never moves while its id is
// allocated, so read_rec/write_rec hand out plain pointers.  A
// write_rec may copy the page (COW); earlier pointers into it then
// still read the old bytes, so callers re-resolve a node after
// anything that may have written it.
//
// Thread model: all *mutations* (set/seal/commit/publish/alloc/free)
// happen on one thread — the trie owner's.  Snapshot *reads* may run
// concurrently on any thread: they resolve pages through their own
// table copy and touch only pages the copy references, which the live
// side never writes again (COW) and never frees while the snapshot
// lives.  The epoch registry and pending-free list are
// mutex-protected because snapshot destructors run on reader threads.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "trie/node.hpp"
#include "trie/page_store.hpp"

namespace bmg::trie {

class TrieError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};
/// Operation would read or modify a sealed region.
class SealedError : public TrieError {
 public:
  using TrieError::TrieError;
};
/// Key is a prefix of an existing key or vice versa.
class PrefixError : public TrieError {
 public:
  using TrieError::TrieError;
};
/// seal() of a key that is not present.
class NotFoundError : public TrieError {
 public:
  using TrieError::TrieError;
};

/// Result of a point lookup (shared by the live trie and snapshots).
enum class Lookup {
  kFound,   ///< key present, value returned
  kAbsent,  ///< key not in the trie
  kSealed,  ///< key's path enters a sealed region: inaccessible
};

/// Storage accounting (drives the §V-D storage-cost experiment).
/// Maintained incrementally by the trie; `debug_check_stats()`
/// recomputes it from the live nodes and verifies the two agree.
struct TrieStats {
  std::size_t leaf_count = 0;
  std::size_t branch_count = 0;
  std::size_t extension_count = 0;
  /// Child references whose subtree has been sealed away.
  std::size_t sealed_refs = 0;
  /// Approximate serialized size of all live nodes, i.e. what the
  /// host-chain account actually has to store.
  std::size_t byte_size = 0;
  [[nodiscard]] std::size_t node_count() const {
    return leaf_count + branch_count + extension_count;
  }

  friend bool operator==(const TrieStats&, const TrieStats&) = default;
};

// ---------------------------------------------------------------------------
// Node ids and on-page records

inline constexpr std::uint32_t kNilNode = 0xFFFFFFFFu;
inline constexpr std::uint32_t kKindShift = 30;
inline constexpr std::uint32_t kIndexMask = (1u << kKindShift) - 1;

enum NodeKind : std::uint32_t { kLeaf = 0, kBranch = 1, kExt = 2 };
inline constexpr std::size_t kNumKinds = 3;

[[nodiscard]] inline NodeKind kind_of(std::uint32_t node) noexcept {
  return static_cast<NodeKind>(node >> kKindShift);
}
[[nodiscard]] inline std::uint32_t index_of(std::uint32_t node) noexcept {
  return node & kIndexMask;
}
[[nodiscard]] inline std::uint32_t make_node_id(NodeKind k, std::uint32_t index) noexcept {
  return (static_cast<std::uint32_t>(k) << kKindShift) | index;
}

/// Child reference: empty, live (points at a paged node) or sealed
/// (hash retained, node storage reclaimed).  kDirty marks a live ref
/// whose recorded hash is stale pending commit(); a dirty ref's
/// ancestors are always dirty too.
struct RefRec {
  static constexpr std::uint8_t kSealedFlag = 1;
  static constexpr std::uint8_t kDirtyFlag = 2;

  Hash32 hash{};
  std::uint32_t node = kNilNode;
  std::uint8_t flags = 0;
  std::uint8_t pad[3] = {0, 0, 0};

  [[nodiscard]] bool is_empty() const noexcept {
    return node == kNilNode && (flags & kSealedFlag) == 0;
  }
  [[nodiscard]] bool is_live() const noexcept { return node != kNilNode; }
  [[nodiscard]] bool sealed() const noexcept { return (flags & kSealedFlag) != 0; }
  [[nodiscard]] bool dirty() const noexcept { return (flags & kDirtyFlag) != 0; }
  void set_sealed(bool v) noexcept {
    flags = static_cast<std::uint8_t>(v ? (flags | kSealedFlag) : (flags & ~kSealedFlag));
  }
  void set_dirty(bool v) noexcept {
    flags = static_cast<std::uint8_t>(v ? (flags | kDirtyFlag) : (flags & ~kDirtyFlag));
  }

  [[nodiscard]] static RefRec live_dirty(std::uint32_t node_id) noexcept {
    RefRec r;
    r.node = node_id;
    r.flags = kDirtyFlag;
    return r;
  }
};

/// Fixed-capacity nibble path.  64 nibbles covers a 32-byte (hashed)
/// key, the longest path the IBC layer ever stores; set()/seal()
/// reject longer keys so a record never needs out-of-line storage and
/// stays copyable as raw bytes.
struct PathRec {
  static constexpr std::size_t kMaxNibbles = 64;
  std::uint32_t len = 0;
  std::uint8_t nibs[kMaxNibbles] = {};

  [[nodiscard]] ByteView view() const noexcept { return ByteView{nibs, len}; }
  [[nodiscard]] std::size_t size() const noexcept { return len; }

  void assign(const std::uint8_t* data, std::size_t n) {
    if (n > kMaxNibbles) throw TrieError("trie: key path exceeds 64 nibbles");
    len = static_cast<std::uint32_t>(n);
    if (n != 0) std::memcpy(nibs, data, n);
  }
};

struct LeafRec {
  PathRec suffix;
  Hash32 value;
};
struct BranchRec {
  std::array<RefRec, 16> children;
};
struct ExtRec {
  PathRec path;
  RefRec child;
};

static_assert(std::is_trivially_copyable_v<RefRec> && sizeof(RefRec) == 40);
static_assert(std::is_trivially_copyable_v<LeafRec> && sizeof(LeafRec) == 100);
static_assert(std::is_trivially_copyable_v<BranchRec> && sizeof(BranchRec) == 640);
static_assert(std::is_trivially_copyable_v<ExtRec> && sizeof(ExtRec) == 108);

[[nodiscard]] inline std::size_t common_prefix_span(ByteView a, ByteView b) noexcept {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

// ---------------------------------------------------------------------------
// Page tables

/// One chunk of the logical→physical page table.  Chunks are shared
/// between the live trie and snapshots via shared_ptr; the live side
/// clones a chunk before writing to it while it is shared, so a
/// snapshot's table copy is frozen at publish time for the cost of
/// copying ~(pages/1024) shared_ptrs.
struct TableChunk {
  static constexpr std::size_t kEntries = 1024;
  struct Entry {
    PageId phys = kNoPage;
    std::uint32_t birth = 0;  ///< epoch window the mapping was (re)created in
  };
  std::array<Entry, kEntries> e{};
};

/// Per-kind chunked page tables.  A snapshot captures one of these by
/// value; the live trie owns the mutable current one.
using TableSet = std::array<std::vector<std::shared_ptr<TableChunk>>, kNumKinds>;

// ---------------------------------------------------------------------------
// StoreCore

/// The paged arena allocator + snapshot machinery shared (via
/// shared_ptr) by one SealableTrie and every TrieSnapshot published
/// from it.  See the file comment for the model.
class StoreCore {
 public:
  explicit StoreCore(const PageStoreConfig& cfg);

  StoreCore(const StoreCore&) = delete;
  StoreCore& operator=(const StoreCore&) = delete;

  /// Deep copy of the live state into a fresh store: every mapped page
  /// is copied byte-for-byte under its logical id and the slot
  /// allocator (live counts, free lists, bump cursor) is duplicated, so
  /// the copy hands out exactly the node ids the source would.  No
  /// snapshot epoch carries over: the copy starts unshared.
  [[nodiscard]] std::shared_ptr<StoreCore> clone() const;

  [[nodiscard]] const TableSet& live_tables() const noexcept { return tables_; }
  [[nodiscard]] PageStoreStats page_stats() const { return store_.stats(); }

  /// Allocates a slot for a `kind` record and returns the packed node
  /// id.  The record bytes are whatever the page holds — the caller
  /// must immediately initialise them through write_rec().
  [[nodiscard]] std::uint32_t alloc_slot(NodeKind kind);

  /// Releases a node's slot.  When this empties the slot's page the
  /// physical page is retired (freed now, or parked until the last
  /// snapshot that can see it is released).
  void free_slot(std::uint32_t node_id);

  /// Read access to a record through an arbitrary table set (the live
  /// one or a snapshot's copy).
  [[nodiscard]] const std::uint8_t* read_rec(const TableSet& tables,
                                             std::uint32_t node_id) const;

  /// Write access through the live tables.  Copies the page first if
  /// any live snapshot can see it (shadow paging), so snapshot readers
  /// never observe the mutation.
  [[nodiscard]] std::uint8_t* write_rec(std::uint32_t node_id);

  /// Registers the current epoch as a published snapshot and returns
  /// (epoch, frozen table copy).  The caller pairs it with the root
  /// ref + stats to form a TrieSnapshot.  Mutator thread only.
  struct Published {
    std::uint32_t epoch = 0;
    TableSet tables;
  };
  [[nodiscard]] Published publish();

  /// Releases a published epoch (snapshot destructor; any thread) and
  /// frees pending pages no remaining snapshot can reference.
  void release_epoch(std::uint32_t epoch);

  /// commit() guard: while set, a write_rec that would need to copy a
  /// page throws std::logic_error.  Dirty refs are only ever created
  /// on already-private pages, so commit's raw record pointers cannot
  /// be invalidated by a COW — this enforces that invariant.
  void set_expect_no_cow(bool v) noexcept { expect_no_cow_ = v; }

  [[nodiscard]] std::size_t slots_per_page(NodeKind k) const noexcept {
    return arenas_[k].slots_per_page;
  }
  /// Physical pages currently parked until a snapshot release.
  [[nodiscard]] std::size_t pending_free_pages() const;

  /// Cross-checks arena metadata against `occupancy`: per-kind counts
  /// of live node slots per logical page, as recomputed by a full trie
  /// walk.  Verifies live-slot counts, that mapped pages are exactly
  /// the occupied ones (modulo retained bump pages), and that every
  /// mapped logical page has a distinct physical page.  Throws
  /// std::logic_error on any mismatch.
  void debug_check_pages(
      const std::array<std::unordered_map<std::uint32_t, std::uint32_t>, kNumKinds>&
          occupancy) const;

 private:
  struct Arena {
    std::uint32_t rec_size = 0;
    std::uint32_t slots_per_page = 0;
    /// Live-slot count per logical page (live trie only).
    std::vector<std::uint32_t> live;
    /// Bumped when a logical page is retired; stale free-list entries
    /// from before the retire are skipped by generation mismatch.
    std::vector<std::uint32_t> gen;
    /// Free slots: (gen << 32) | slot_index, LIFO for locality.
    std::vector<std::uint64_t> free_slots;
    /// Retired logical page ids available for reuse.
    std::vector<std::uint32_t> free_logical;
    /// Current bump page (kNilNode when none); never retired while
    /// current so in-flight bump slots stay valid.
    std::uint32_t bump_page = kNilNode;
    std::uint32_t bump_slot = 0;
  };

  [[nodiscard]] TableChunk::Entry table_entry(const TableSet& tables, NodeKind k,
                                              std::uint32_t logical) const;
  void set_table_entry(NodeKind k, std::uint32_t logical, TableChunk::Entry entry);
  [[nodiscard]] std::uint32_t new_logical_page(NodeKind k);
  void retire_logical_page(NodeKind k, std::uint32_t logical);
  void retire_phys(PageId phys, std::uint32_t birth);
  /// True if some live snapshot's tables may reference a physical page
  /// whose mapping was created in `birth`.
  [[nodiscard]] bool shared_with_snapshot(std::uint32_t birth) const;

  PageStore store_;
  std::array<Arena, kNumKinds> arenas_;
  TableSet tables_;
  std::uint32_t epoch_ = 1;  ///< current mutation window
  bool expect_no_cow_ = false;

  mutable std::mutex mu_;  ///< guards live_epochs_ + pending_
  std::multiset<std::uint32_t> live_epochs_;
  struct PendingFree {
    PageId phys;
    std::uint32_t birth;
    std::uint32_t retire;
  };
  std::vector<PendingFree> pending_;
};

// ---------------------------------------------------------------------------
// Shared read walkers

/// Point lookup against `root` through `tables`.  Used by both
/// SealableTrie::get (live tables) and TrieSnapshot::get (frozen
/// copy), so live and snapshot reads cannot diverge.
[[nodiscard]] Lookup walk_get(const StoreCore& core, const TableSet& tables,
                              const RefRec& root, ByteView key, Hash32* value_out);

/// (Non-)membership proof for `key` against `root` through `tables`.
/// Throws SealedError if the path enters a sealed region.  The caller
/// must have committed `root` (snapshots are committed by
/// construction).
[[nodiscard]] Proof walk_prove(const StoreCore& core, const TableSet& tables,
                               const RefRec& root, ByteView key);

}  // namespace bmg::trie
