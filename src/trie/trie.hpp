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
// Nodes are reference-counted copy-on-write heap objects, each stamped
// with the epoch of the trie that created it.  A trie writes a node in
// place only during its current epoch; `snapshot()` and `clone()` move
// it to a fresh epoch, so the next write copies the path from the root
// down and every node a snapshot or clone reaches stays as it was.  A
// snapshot or clone therefore costs one root copy, and a sealed node is
// freed once nothing reaches it.  Snapshot reads (get/prove) may run on
// other threads while this trie keeps mutating.
//
// Keys must be prefix-free (no key may be a prefix of another) and at
// most 32 bytes; the IBC layer guarantees both by hashing commitment
// paths.  Violations throw PrefixError / TrieError.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/bytes.hpp"
#include "trie/node.hpp"

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
// Nodes

enum NodeKind : std::uint8_t { kLeaf, kBranch, kExt };

/// Common header of every node.  A node is immutable once its epoch is
/// no longer the current epoch of the trie that created it, which is
/// what lets snapshots read it from any thread.
struct Node {
  NodeKind kind = kLeaf;
  std::uint64_t epoch = 0;
};

/// Child reference: empty, live (points at a node) or sealed (hash
/// retained, node released).  kDirty marks a live ref whose recorded
/// hash is stale pending commit(); a dirty ref's ancestors are always
/// dirty too.
struct RefRec {
  static constexpr std::uint8_t kSealedFlag = 1;
  static constexpr std::uint8_t kDirtyFlag = 2;

  Hash32 hash{};
  std::shared_ptr<Node> node;
  std::uint8_t flags = 0;

  [[nodiscard]] bool is_empty() const noexcept {
    return node == nullptr && (flags & kSealedFlag) == 0;
  }
  [[nodiscard]] bool is_live() const noexcept { return node != nullptr; }
  [[nodiscard]] bool sealed() const noexcept { return (flags & kSealedFlag) != 0; }
  [[nodiscard]] bool dirty() const noexcept { return (flags & kDirtyFlag) != 0; }
  void set_sealed(bool v) noexcept {
    flags = static_cast<std::uint8_t>(v ? (flags | kSealedFlag) : (flags & ~kSealedFlag));
  }
  void set_dirty(bool v) noexcept {
    flags = static_cast<std::uint8_t>(v ? (flags | kDirtyFlag) : (flags & ~kDirtyFlag));
  }

  [[nodiscard]] static RefRec live_dirty(std::shared_ptr<Node> n) noexcept {
    RefRec r;
    r.node = std::move(n);
    r.flags = kDirtyFlag;
    return r;
  }
};

/// Fixed-capacity nibble path.  64 nibbles covers a 32-byte (hashed)
/// key, the longest path the IBC layer ever stores; set()/seal()
/// reject longer keys so a node never needs out-of-line storage.
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

struct LeafNode : Node {
  static constexpr NodeKind kKind = kLeaf;
  PathRec suffix;
  Hash32 value;
};
struct BranchNode : Node {
  static constexpr NodeKind kKind = kBranch;
  std::array<RefRec, 16> children;
};
struct ExtNode : Node {
  static constexpr NodeKind kKind = kExt;
  PathRec path;
  RefRec child;
};

[[nodiscard]] inline std::size_t common_prefix_span(ByteView a, ByteView b) noexcept {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// Point lookup against `root`.  Used by both SealableTrie::get and
/// TrieSnapshot::get, so live and snapshot reads cannot diverge.
[[nodiscard]] Lookup walk_get(const RefRec& root, ByteView key, Hash32* value_out);

/// (Non-)membership proof for `key` against `root`.  Throws
/// SealedError if the path enters a sealed region.  The caller must
/// have committed `root` (snapshots are committed by construction).
[[nodiscard]] Proof walk_prove(const RefRec& root, ByteView key);

// ---------------------------------------------------------------------------
// SealableTrie

class TrieSnapshot;

class SealableTrie {
 public:
  using Lookup = trie::Lookup;

  SealableTrie();

  // Not copyable: per-block state capture is snapshot()'s job and
  // clone() is the explicit copy, both one root copy.  Movable; a
  // moved-from trie may only be destroyed or assigned to.  Snapshots
  // published before a trie is destroyed or assigned over keep their
  // nodes alive and stay readable.
  SealableTrie(const SealableTrie&) = delete;
  SealableTrie& operator=(const SealableTrie&) = delete;
  SealableTrie(SealableTrie&&) noexcept = default;
  SealableTrie& operator=(SealableTrie&&) noexcept = default;

  /// Inserts or updates `key`.  Throws SealedError if the path crosses
  /// a sealed region, PrefixError on prefix-freedom violations; either
  /// leaves the trie unchanged.  The modified spine is only marked
  /// dirty — no hashing happens until commit() (or an auto-committing
  /// read).
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

  /// Copy of the live trie, uncommitted writes included.  The copy and
  /// this trie share every node until one of them writes it, and a
  /// write to either never shows in the other.  The guest contract's
  /// fork checkpoint takes one.
  [[nodiscard]] SealableTrie clone() const;

  [[nodiscard]] TrieStats stats() const { return stats_; }

  /// Recomputes TrieStats from the live nodes and throws
  /// std::logic_error if the incrementally maintained counters have
  /// drifted.  Used by tests and sanitizer runs.
  void debug_check_stats() const;

 private:
  /// The node `ref` points at, made writable: copied into this trie's
  /// current epoch (and `ref` repointed) unless it already belongs to
  /// it.  The one write path of the trie.
  template <typename T>
  T& own(RefRec& ref);

  template <typename T>
  [[nodiscard]] std::shared_ptr<T> make_node();
  [[nodiscard]] RefRec new_leaf(ByteView suffix, const Hash32& value);
  [[nodiscard]] RefRec new_branch_pair(std::uint8_t nib_a, RefRec ref_a,
                                       std::uint8_t nib_b, RefRec ref_b);
  [[nodiscard]] RefRec new_ext(ByteView path, RefRec child);
  /// Releases `ref`'s node from this trie and marks the ref sealed.
  void seal_ref(RefRec& ref);

  RefRec set_rec(RefRec ref, ByteView path, std::size_t pos, const Hash32& value);
  void ensure_committed() const;

  RefRec root_;
  TrieStats stats_;
  /// Nodes stamped with this epoch are private to this trie; clone()
  /// moves a const source to a fresh one, hence mutable.
  mutable std::uint64_t epoch_;
};

}  // namespace bmg::trie
