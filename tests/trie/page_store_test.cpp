#include "trie/page_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "trie/snapshot.hpp"
#include "trie/trie.hpp"

namespace bmg::trie {
namespace {

TEST(PageStore, RejectsTinyPages) {
  EXPECT_THROW(PageStore{PageStoreConfig{64}}, std::invalid_argument);
}

TEST(PageStore, AllocZeroesAndReusesIds) {
  PageStore store{PageStoreConfig{256}};
  const PageId a = store.alloc();
  std::memset(store.page(a), 0x5A, store.page_bytes());
  store.free_page(a);
  const PageId b = store.alloc();
  // Freed ids are recycled, and recycled pages come back zeroed.
  EXPECT_EQ(b, a);
  for (std::size_t i = 0; i < store.page_bytes(); ++i)
    ASSERT_EQ(store.page(b)[i], 0) << "byte " << i;
}

TEST(PageStore, StatsTrackLiveAndFreed) {
  PageStore store{PageStoreConfig{256}};
  const PageId a = store.alloc();
  const PageId b = store.alloc();
  (void)b;
  EXPECT_EQ(store.stats().pages_live, 2u);
  EXPECT_EQ(store.stats().pages_allocated, 2u);
  store.free_page(a);
  EXPECT_EQ(store.stats().pages_live, 1u);
  EXPECT_EQ(store.stats().pages_freed, 1u);
  EXPECT_EQ(store.stats().live_bytes(), store.page_bytes());
}

// --- Pinned workload digest --------------------------------------------

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
Hash32 workload_digest(const PageStoreConfig& cfg, std::size_t steps, std::uint64_t seed) {
  SealableTrie t{cfg};
  Rng rng(seed);
  std::vector<std::uint64_t> live;
  std::uint64_t next = 0;
  crypto::Sha256 digest;
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
    if ((step + 1) % 500 != 0) continue;
    digest.update(t.root_hash().view());
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
      digest.update(prev_wire.back());
    }
  }
  digest.update(t.root_hash().view());
  return digest.finish();
}

TEST(TriePages, WorkloadDigestIsPinned) {
  // Pinned to the digest this workload (6,000 steps, seed 42) gave on
  // the earlier two-backend store, in RAM at 16 KiB pages and
  // file-backed at 2 KiB.  Roots and proof bytes must not depend on
  // the page size.
  constexpr const char* kPinned =
      "10554e94b54441be1e30d812e02aff03617714da5788a2bbc336680585e72576";
  for (const std::size_t page_bytes : {std::size_t{2048}, std::size_t{16384}})
    EXPECT_EQ(workload_digest(PageStoreConfig{page_bytes}, 6000, 42).hex(), kPinned)
        << page_bytes << "-byte pages";
}

}  // namespace
}  // namespace bmg::trie
