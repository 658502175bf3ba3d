// Immutable trie snapshots and the concurrent proof service.
//
// TrieSnapshot is the per-committed-root view published by
// SealableTrie::snapshot() (shadow paging: a frozen copy of the
// chunked page tables plus the root ref — no node data is copied).
// Copying a snapshot is a shared_ptr copy; the guest contract keeps
// one per recent block height instead of a deep trie copy per block.
// A snapshot's pages are immutable by construction, so get()/prove()
// are safe from any thread while the live trie commits the next
// block, and the proofs produced are byte-identical to what the live
// trie would have produced at that root.
//
// ProofService runs proof generation off the block-producing thread:
// submit() hands a (snapshot, keys) batch to a worker and returns a
// future, so relayers can have the previous block's proofs built
// while the next block commits.  The static prove_batch() is the
// synchronous form, run on the calling thread; both return proofs in
// key order.
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "trie/trie.hpp"

namespace bmg::trie {

class TrieSnapshot {
 public:
  /// Null snapshot: valid() is false, reads throw TrieError.
  TrieSnapshot() = default;

  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }

  /// Root commitment the snapshot was published at (all-zero for a
  /// snapshot of the empty trie).
  [[nodiscard]] Hash32 root_hash() const;

  /// Point lookup at the snapshot's root.  Thread-safe.
  [[nodiscard]] Lookup get(ByteView key, Hash32* value_out = nullptr) const;

  /// (Non-)membership proof at the snapshot's root; byte-identical to
  /// the live trie's prove() at the same root.  Thread-safe.  Throws
  /// SealedError if the path enters a sealed region.
  [[nodiscard]] Proof prove(ByteView key) const;

  /// Storage accounting as of the snapshot.
  [[nodiscard]] TrieStats stats() const;

 private:
  friend class SealableTrie;

  struct Impl {
    std::shared_ptr<StoreCore> core;
    TableSet tables;
    RefRec root;
    TrieStats trie_stats;
    std::uint32_t epoch = 0;

    ~Impl() {
      // Releasing the epoch lets the store reclaim pages that were
      // parked while this snapshot could still reference them.
      if (core != nullptr) core->release_epoch(epoch);
    }
  };

  explicit TrieSnapshot(std::shared_ptr<const Impl> impl) : impl_(std::move(impl)) {}

  [[nodiscard]] const Impl& impl() const;

  std::shared_ptr<const Impl> impl_;
};

/// Background proof generation against immutable snapshots.  One
/// worker thread drains submitted batches in FIFO order; each batch
/// resolves its future with proofs in key order (or the first error).
class ProofService {
 public:
  ProofService();
  ~ProofService();
  ProofService(const ProofService&) = delete;
  ProofService& operator=(const ProofService&) = delete;

  /// Enqueues a proof batch.  The returned future yields one proof per
  /// key, in key order; a SealedError on any key fails the batch.
  [[nodiscard]] std::future<std::vector<Proof>> submit(TrieSnapshot snapshot,
                                                       std::vector<Bytes> keys);

  /// Synchronous batch proving on the calling thread: one proof per
  /// key, in key order; a SealedError on any key fails the batch.
  [[nodiscard]] static std::vector<Proof> prove_batch(const TrieSnapshot& snapshot,
                                                     const std::vector<Bytes>& keys);

 private:
  struct Job {
    TrieSnapshot snapshot;
    std::vector<Bytes> keys;
    std::promise<std::vector<Proof>> done;
  };

  void run();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace bmg::trie
