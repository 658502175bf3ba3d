// The sealable Merkle-Patricia trie — the paper's core data structure
// (§III-A).
//
// A normal Merkle trie only ever grows: the Guest Contract must
// remember every processed packet forever to prevent double delivery.
// The sealable trie lets the contract *seal* entries that will never
// be read again: the node's storage is reclaimed while its hash stays
// embedded in the parent, so the root commitment — and every proof
// against it — remains valid.  Sealed keys become permanently
// inaccessible: `get` reports kSealed, and inserting or proving
// through a sealed region fails.  That inaccessibility is exactly the
// double-delivery guard: `assert ph ∉ trie` fails for a sealed ph.
//
// Writes are committed lazily: `set()` and `seal()` only mark the
// modified spine dirty, and `commit()` recomputes the dirty hashes
// bottom-up, hashing the independent nodes of each depth in one
// `sha256_batch` call.  This mirrors the paper's Alg. 1, where the state
// root is committed once per guest block (GenerateBlock), not once
// per write.  `root_hash()` and `prove()` auto-commit, so callers can
// stay oblivious; batch writers get the speedup for free.
//
// Nodes live in paged arenas (paged.hpp) behind a PageStore
// (page_store.hpp): fixed-size in-RAM pages of contiguous same-kind
// records.  Sealing is real reclamation — a fully sealed page is
// returned to the store.  `snapshot()` publishes an immutable, cheaply
// copyable TrieSnapshot of the committed state via shadow paging;
// snapshot reads (get/prove) may run on other threads while this trie
// keeps mutating.
//
// Keys must be prefix-free (no key may be a prefix of another) and at
// most 32 bytes; the IBC layer guarantees both by hashing commitment
// paths.  Violations throw PrefixError / TrieError.
#pragma once

#include <memory>

#include "common/bytes.hpp"
#include "trie/node.hpp"
#include "trie/paged.hpp"

namespace bmg::trie {

class TrieSnapshot;

class SealableTrie {
 public:
  using Lookup = trie::Lookup;

  /// In-RAM paged storage with default page size.
  SealableTrie() : SealableTrie(PageStoreConfig{}) {}
  /// Storage with `cfg`'s page size — tiny pages stress page
  /// boundaries in tests.
  explicit SealableTrie(const PageStoreConfig& cfg)
      : core_(std::make_shared<StoreCore>(cfg)) {}

  // Not copyable: per-block state capture is snapshot()'s job and is
  // O(pages/1024) instead of a deep copy; clone() is the explicit deep
  // copy.  Movable; a moved-from trie may only be destroyed or assigned
  // to.  Snapshots published before a trie is destroyed or assigned
  // over keep their own store alive and stay readable.
  SealableTrie(const SealableTrie&) = delete;
  SealableTrie& operator=(const SealableTrie&) = delete;
  SealableTrie(SealableTrie&&) noexcept = default;
  SealableTrie& operator=(SealableTrie&&) noexcept = default;

  /// Inserts or updates `key`.  Throws SealedError if the path crosses
  /// a sealed region, PrefixError on prefix-freedom violations.  The
  /// modified spine is only marked dirty — no hashing happens until
  /// commit() (or an auto-committing read).
  void set(ByteView key, const Hash32& value);

  /// Looks up `key`; on kFound stores the value into `*value_out`
  /// (if non-null).  Never triggers a commit.
  [[nodiscard]] Lookup get(ByteView key, Hash32* value_out = nullptr) const;

  /// Seals the entry for `key`: reclaims its storage while keeping the
  /// root commitment unchanged.  Throws NotFoundError if absent,
  /// SealedError if already sealed.
  void seal(ByteView key);

  /// Recomputes every dirty node hash bottom-up, hashing independent
  /// siblings per level as one SHA-256 batch.  No-op when clean.  The
  /// guest contract calls this once per generated block (Alg. 1).
  void commit();

  /// True if there are writes whose hashes have not been committed.
  [[nodiscard]] bool has_uncommitted() const noexcept { return root_.dirty(); }

  /// Root commitment.  All-zero for the empty trie.  Auto-commits
  /// pending writes.
  [[nodiscard]] Hash32 root_hash() const;

  [[nodiscard]] bool empty() const noexcept { return root_.is_empty(); }

  /// Builds a membership or non-membership proof for `key`.
  /// Throws SealedError if the path enters a sealed region.
  /// Auto-commits pending writes.
  [[nodiscard]] Proof prove(ByteView key) const;

  /// Publishes an immutable snapshot of the committed state (commits
  /// first if needed).  The snapshot stays valid — and readable from
  /// any thread — for its whole lifetime, even across later mutations
  /// of this trie or its destruction.
  [[nodiscard]] TrieSnapshot snapshot();

  /// Deep copy of the live trie, uncommitted writes included, into a
  /// fresh store (StoreCore::clone).  It shares nothing with this trie
  /// or its snapshots, so a write to either never shows in the other.
  /// O(live pages); the guest contract's fork checkpoint takes one.
  [[nodiscard]] SealableTrie clone() const;

  [[nodiscard]] TrieStats stats() const { return stats_; }

  /// Backing-store counters: pages allocated/freed/live.  "pages freed
  /// vs seal rate" comes from here.
  [[nodiscard]] PageStoreStats page_stats() const { return core_->page_stats(); }
  /// Physical pages retired but parked until snapshots release them.
  [[nodiscard]] std::size_t pending_free_pages() const {
    return core_->pending_free_pages();
  }

  /// Recomputes TrieStats from the live nodes and throws
  /// std::logic_error if the incrementally maintained counters have
  /// drifted.  Also cross-checks page residency: per-page live-slot
  /// counts, mapped-vs-occupied agreement, and physical-page
  /// uniqueness.  Used by tests and sanitizer runs.
  void debug_check_stats() const;

 private:
  friend class TrieSnapshot;

  explicit SealableTrie(std::shared_ptr<StoreCore> core) : core_(std::move(core)) {}

  [[nodiscard]] std::uint32_t alloc_leaf(ByteView suffix, const Hash32& value);
  [[nodiscard]] std::uint32_t alloc_branch_pair(std::uint8_t nib_a, RefRec ref_a,
                                                std::uint8_t nib_b, RefRec ref_b);
  [[nodiscard]] std::uint32_t alloc_ext(ByteView path, RefRec child);
  void free_node(std::uint32_t node_id);
  void add_node_stats(std::uint32_t node_id);
  void sub_node_stats(std::uint32_t node_id);

  [[nodiscard]] Hash32 node_hash(std::uint32_t node_id) const;

  RefRec set_rec(RefRec ref, ByteView path, std::size_t pos, const Hash32& value);
  void ensure_committed() const;
  [[nodiscard]] TrieStats recompute_stats(
      std::array<std::unordered_map<std::uint32_t, std::uint32_t>, kNumKinds>*
          occupancy) const;

  std::shared_ptr<StoreCore> core_;
  RefRec root_;
  TrieStats stats_;
};

}  // namespace bmg::trie
