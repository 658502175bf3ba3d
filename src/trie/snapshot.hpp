// Immutable trie snapshots and batch proving.
//
// TrieSnapshot is the per-committed-root view published by
// SealableTrie::snapshot(): a copy of the root ref, sharing every node
// with the trie.  The trie copies a node before writing it once a
// snapshot can reach it, so the nodes under a snapshot never change.
// Copying a snapshot is a shared_ptr copy; the guest contract keeps
// one per recent block height instead of a deep trie copy per block.
// get()/prove() are safe from any thread while the live trie commits
// the next block, and the proofs produced are byte-identical to what
// the live trie would have produced at that root.
//
// ProofService::prove_batch proves a batch of keys against one
// snapshot on the calling thread and returns the proofs in key order.
#pragma once

#include <vector>

#include "trie/trie.hpp"

namespace bmg::trie {

class TrieSnapshot {
 public:
  /// Null snapshot: valid() is false, reads throw TrieError.
  TrieSnapshot() = default;

  [[nodiscard]] bool valid() const noexcept { return valid_; }

  /// Root commitment the snapshot was published at (all-zero for a
  /// snapshot of the empty trie).
  [[nodiscard]] Hash32 root_hash() const;

  /// Point lookup at the snapshot's root.  Thread-safe.
  [[nodiscard]] Lookup get(ByteView key, Hash32* value_out = nullptr) const;

  /// (Non-)membership proof at the snapshot's root; byte-identical to
  /// the live trie's prove() at the same root.  Thread-safe.  Throws
  /// SealedError if the path enters a sealed region.
  [[nodiscard]] Proof prove(ByteView key) const;

 private:
  friend class SealableTrie;

  explicit TrieSnapshot(RefRec root) : root_(std::move(root)), valid_(true) {}

  [[nodiscard]] const RefRec& root() const;

  RefRec root_;
  bool valid_ = false;
};

/// Batch proof generation against immutable snapshots.
class ProofService {
 public:
  /// Proves every key on the calling thread: one proof per key, in
  /// key order; a SealedError on any key fails the batch.
  [[nodiscard]] static std::vector<Proof> prove_batch(const TrieSnapshot& snapshot,
                                                     const std::vector<Bytes>& keys);
};

}  // namespace bmg::trie
