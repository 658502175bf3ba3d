// Pinned workload digest: every root and proof byte of one long,
// deterministic trie workload, with and without clones in its history.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "trie/snapshot.hpp"
#include "trie/trie.hpp"

namespace bmg::trie {
namespace {

Bytes seq_key(std::uint64_t space, std::uint64_t seq) {
  Encoder e;
  e.u64(space).u64(seq);
  return e.take();
}

Hash32 val(std::uint64_t v) {
  Encoder e;
  e.u64(v);
  return crypto::Sha256::digest(e.out());
}

/// One deterministic workload — inserts, overwrites, seals, commits
/// every 128 steps, and every 500 steps a snapshot whose live window
/// is batch-proved — digested over every checkpoint root and every
/// serialized proof byte.  Each checkpoint also re-proves the previous
/// checkpoint's snapshot, which has lived through 500 steps of live
/// writes since, and expects its proofs unchanged.
///
/// With `clone_every` set, the workload replaces its trie by a clone
/// that often (uncommitted writes included, at 250) and goes on with
/// the clone, while the old trie takes writes of its own: an overwrite
/// and an insert that must reach neither the clone nor any snapshot.
Hash32 workload_digest(std::size_t steps, std::uint64_t seed, std::size_t clone_every) {
  SealableTrie t;
  Rng rng(seed);
  std::vector<std::uint64_t> live;
  std::uint64_t next = 0;
  Bytes transcript;  // hashed once at the end
  const auto append = [&](ByteView b) {
    transcript.insert(transcript.end(), b.begin(), b.end());
  };
  TrieSnapshot prev_snap;
  std::vector<Bytes> prev_keys;
  std::vector<Bytes> prev_wire;
  for (std::size_t step = 0; step < steps; ++step) {
    if (live.size() < 4 || rng.chance(0.65)) {
      t.set(seq_key(7, next), val(next * 31 + 1));
      live.push_back(next++);
    } else if (rng.chance(0.5)) {
      const std::size_t pick = rng.uniform_int(live.size());
      t.set(seq_key(7, live[pick]), val(rng.next()));
    } else {
      // Seal a random non-maximum live entry.
      const std::size_t pick = rng.uniform_int(live.size() - 1);
      t.seal(seq_key(7, live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if ((step + 1) % 128 == 0) t.commit();
    if (clone_every != 0 && (step + 1) % clone_every == 0) {
      SealableTrie old = std::exchange(t, t.clone());
      old.set(seq_key(7, live.back()), val(~step));
      old.set(seq_key(8, step), val(step));
      old.commit();
    }
    if ((step + 1) % 500 != 0) continue;
    append(t.root_hash().view());
    std::size_t moved = 0;
    for (std::size_t i = 0; i < prev_keys.size(); ++i)
      moved += prev_snap.prove(prev_keys[i]).serialize() != prev_wire[i];
    EXPECT_EQ(moved, 0u) << "snapshot proofs changed by later writes, step " << step;
    prev_snap = t.snapshot();
    prev_keys.clear();
    const std::size_t limit = std::min<std::size_t>(live.size(), 96);
    for (std::size_t i = 0; i < limit; ++i) prev_keys.push_back(seq_key(7, live[i]));
    prev_wire.clear();
    for (const Proof& p : ProofService::prove_batch(prev_snap, prev_keys)) {
      prev_wire.push_back(p.serialize());
      append(prev_wire.back());
    }
  }
  append(t.root_hash().view());
  t.debug_check_stats();
  return crypto::Sha256::digest(transcript);
}

TEST(TrieWorkload, DigestIsPinned) {
  // Pinned to the digest this workload (6,000 steps, seed 42) gave on
  // the earlier paged node store, at 2 KiB and 16 KiB pages, in RAM
  // and file-backed.  Roots and proof bytes depend on the operations
  // alone: not on how the storage laid nodes out, nor on which nodes
  // clones and snapshots share.
  constexpr const char* kPinned =
      "10554e94b54441be1e30d812e02aff03617714da5788a2bbc336680585e72576";
  EXPECT_EQ(workload_digest(6000, 42, 0).hex(), kPinned) << "no clones";
  EXPECT_EQ(workload_digest(6000, 42, 250).hex(), kPinned) << "a clone every 250 steps";
}

}  // namespace
}  // namespace bmg::trie
