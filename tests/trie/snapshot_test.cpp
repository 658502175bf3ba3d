#include "trie/snapshot.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "trie/trie.hpp"

namespace bmg::trie {
namespace {

using crypto::Sha256;

Hash32 val(std::string_view s) { return Sha256::digest(bytes_of(s)); }

Bytes key_of(std::string_view s) {
  const Hash32 h = Sha256::digest(bytes_of(s));
  return Bytes(h.bytes.begin(), h.bytes.end());
}

TEST(TrieSnapshot, NullSnapshotThrows) {
  const TrieSnapshot snap;
  EXPECT_FALSE(snap.valid());
  EXPECT_THROW((void)snap.root_hash(), TrieError);
  EXPECT_THROW((void)snap.get(key_of("a")), TrieError);
  EXPECT_THROW((void)snap.prove(key_of("a")), TrieError);
}

TEST(TrieSnapshot, EmptyTrieSnapshotHasZeroRoot) {
  SealableTrie t;
  const TrieSnapshot snap = t.snapshot();
  ASSERT_TRUE(snap.valid());
  EXPECT_TRUE(snap.root_hash().is_zero());
  EXPECT_EQ(snap.get(key_of("a")), Lookup::kAbsent);
  EXPECT_TRUE(snap.prove(key_of("a")).nodes.empty());
}

TEST(TrieSnapshot, ReadsAreIsolatedFromLaterWrites) {
  SealableTrie t;
  for (int i = 0; i < 100; ++i)
    t.set(key_of("k" + std::to_string(i)), val("v" + std::to_string(i)));
  const Hash32 root_then = t.root_hash();
  const TrieSnapshot snap = t.snapshot();

  // Mutate heavily after the snapshot: overwrite, insert, seal.
  for (int i = 0; i < 100; ++i)
    t.set(key_of("k" + std::to_string(i)), val("overwritten"));
  for (int i = 100; i < 300; ++i) t.set(key_of("k" + std::to_string(i)), val("new"));
  for (int i = 0; i < 50; ++i) t.seal(key_of("k" + std::to_string(i)));
  t.commit();
  ASSERT_NE(t.root_hash(), root_then);

  // The snapshot still serves the old state, including entries the
  // live trie has since sealed away.
  EXPECT_EQ(snap.root_hash(), root_then);
  for (int i = 0; i < 100; ++i) {
    Hash32 out;
    ASSERT_EQ(snap.get(key_of("k" + std::to_string(i)), &out), Lookup::kFound) << i;
    EXPECT_EQ(out, val("v" + std::to_string(i)));
  }
  EXPECT_EQ(snap.get(key_of("k200")), Lookup::kAbsent);
}

TEST(TrieSnapshot, ProofsByteIdenticalToLiveAtSameRoot) {
  SealableTrie t;
  for (int i = 0; i < 200; ++i)
    t.set(key_of("p" + std::to_string(i)), val(std::to_string(i)));
  t.commit();
  // Proofs from the live trie, captured before any further mutation.
  std::vector<Bytes> live_proofs;
  for (int i = 0; i < 220; ++i)
    live_proofs.push_back(t.prove(key_of("p" + std::to_string(i))).serialize());

  const TrieSnapshot snap = t.snapshot();
  for (int i = 300; i < 500; ++i) t.set(key_of("p" + std::to_string(i)), val("x"));
  t.commit();

  for (int i = 0; i < 220; ++i) {
    const Bytes snap_proof = snap.prove(key_of("p" + std::to_string(i))).serialize();
    ASSERT_EQ(snap_proof, live_proofs[static_cast<std::size_t>(i)]) << "key " << i;
  }
}

TEST(TrieSnapshot, OutlivesTheTrie) {
  std::optional<TrieSnapshot> snap;
  Hash32 root;
  {
    SealableTrie t;
    for (int i = 0; i < 64; ++i) t.set(key_of(std::to_string(i)), val("v"));
    root = t.root_hash();
    snap = t.snapshot();
  }  // trie destroyed; the snapshot keeps its nodes alive
  ASSERT_TRUE(snap->valid());
  EXPECT_EQ(snap->root_hash(), root);
  Hash32 out;
  EXPECT_EQ(snap->get(key_of("7"), &out), Lookup::kFound);
  const VerifyOutcome vo = verify_proof(root, key_of("7"), snap->prove(key_of("7")));
  EXPECT_EQ(vo.kind, VerifyOutcome::Kind::kFound);
}

TEST(TrieSnapshot, SnapshotKeepsOverwrittenNodesUntilReleased) {
  SealableTrie t;
  for (int i = 0; i < 400; ++i) t.set(key_of(std::to_string(i)), val("a"));
  t.commit();
  {
    const TrieSnapshot snap = t.snapshot();
    // Overwriting every key copies every node; the snapshot keeps the
    // originals alive and still reads them.
    for (int i = 0; i < 400; ++i) t.set(key_of(std::to_string(i)), val("b"));
    t.commit();
    Hash32 out;
    ASSERT_EQ(snap.get(key_of("0"), &out), Lookup::kFound);
    EXPECT_EQ(out, val("a"));
  }
  // Snapshot gone: the live trie reads and writes on unchanged.
  for (int i = 0; i < 400; ++i) t.set(key_of(std::to_string(i)), val("c"));
  const TrieSnapshot after = t.snapshot();
  Hash32 out;
  ASSERT_EQ(after.get(key_of("399"), &out), Lookup::kFound);
  EXPECT_EQ(out, val("c"));
  t.debug_check_stats();
}

TEST(TrieSnapshot, ManySnapshotsEachServeTheirOwnHeight) {
  SealableTrie t;
  std::vector<TrieSnapshot> snaps;
  std::vector<Hash32> roots;
  for (int h = 0; h < 16; ++h) {
    for (int i = 0; i < 32; ++i)
      t.set(key_of("h" + std::to_string(h) + "-" + std::to_string(i)),
            val(std::to_string(h)));
    snaps.push_back(t.snapshot());
    roots.push_back(t.root_hash());
  }
  for (int h = 0; h < 16; ++h) {
    EXPECT_EQ(snaps[static_cast<std::size_t>(h)].root_hash(),
              roots[static_cast<std::size_t>(h)]);
    // A key from the *next* batch is absent in this snapshot.
    const std::string next =
        "h" + std::to_string(h + 1) + "-" + std::to_string(0);
    EXPECT_EQ(snaps[static_cast<std::size_t>(h)].get(key_of(next)), Lookup::kAbsent)
        << h;
  }
  // Release out of order: the survivors still serve their heights.
  snaps.erase(snaps.begin() + 3, snaps.begin() + 12);
  ASSERT_EQ(snaps.size(), 7u);
  EXPECT_EQ(snaps[3].root_hash(), roots[12]);
  EXPECT_EQ(snaps[3].get(key_of("h12-0")), Lookup::kFound);
  EXPECT_EQ(snaps[3].get(key_of("h13-0")), Lookup::kAbsent);
  snaps.clear();
  t.debug_check_stats();
}

// --- clone() -----------------------------------------------------------

/// One random trie operation, replayable on any trie: insert a fresh
/// key, overwrite or seal an earlier one, or commit.  Returns an
/// outcome code so two tries fed the same operation can be compared
/// even where an operation is rejected (a sealed region swallowed the
/// key).
struct TrieOp {
  enum Kind { kSet, kSeal, kCommit } kind = kSet;
  Bytes key;
  Hash32 value{};

  int apply(SealableTrie& t) const {
    try {
      switch (kind) {
        case kSet:
          t.set(key, value);
          break;
        case kSeal:
          t.seal(key);
          break;
        case kCommit:
          t.commit();
          break;
      }
      return 0;
    } catch (const SealedError&) {
      return 1;
    } catch (const NotFoundError&) {
      return 2;
    }
  }
};

/// Keys are sealed oldest first, as the IBC layer seals sequences,
/// always leaving the newest 16 live so the trie never seals shut.
struct OpSource {
  Rng rng{0xC10E};
  std::vector<Bytes> keys;
  std::size_t sealed = 0;

  std::vector<TrieOp> next(int n) {
    std::vector<TrieOp> ops;
    for (int i = 0; i < n; ++i) {
      TrieOp op;
      op.value = val("v" + std::to_string(rng.uniform_int(1u << 30)));
      const std::uint64_t roll = rng.uniform_int(100);
      if (roll < 20 && sealed + 16 < keys.size()) {
        op.kind = TrieOp::kSeal;
        op.key = keys[sealed++];
      } else if (roll < 40 && sealed < keys.size()) {
        op.key = keys[sealed + rng.uniform_int(keys.size() - sealed)];
      } else if (roll < 45) {
        op.kind = TrieOp::kCommit;
      } else {
        op.key = key_of("clone-" + std::to_string(keys.size()));
        keys.push_back(op.key);
      }
      ops.push_back(std::move(op));
    }
    return ops;
  }
};

/// Roots, stats, lookups and proofs of `a` and `b` agree for every key
/// either ever held.
void expect_same_trie(const SealableTrie& a, const SealableTrie& b,
                      const std::vector<Bytes>& keys) {
  a.debug_check_stats();
  b.debug_check_stats();
  ASSERT_EQ(a.root_hash(), b.root_hash());
  ASSERT_EQ(a.stats(), b.stats());
  for (const Bytes& k : keys) {
    Hash32 va, vb;
    const Lookup la = a.get(k, &va);
    ASSERT_EQ(la, b.get(k, &vb));
    if (la == Lookup::kFound) {
      ASSERT_EQ(va, vb);
    }
    if (la == Lookup::kSealed) {
      EXPECT_THROW((void)b.prove(k), SealedError);
      continue;
    }
    ASSERT_EQ(a.prove(k).serialize(), b.prove(k).serialize());
  }
}

/// A key whose insertion no sealed region swallows.
Bytes insertable_key(const SealableTrie& t, const std::string& tag) {
  for (int attempt = 0;; ++attempt) {
    Bytes k = key_of(tag + "-" + std::to_string(attempt));
    if (t.get(k) == Lookup::kAbsent) return k;
  }
}

TEST(TrieSnapshot, CloneSharesNodesButIsolatesWrites) {
  // A clone shares every node with its source, yet must behave as a
  // deep copy: each side copies what it writes.
  for (int round = 0; round < 12; ++round) {
    OpSource source;
    source.rng = Rng(0xC10E + static_cast<std::uint64_t>(round));
    SealableTrie src;
    for (const TrieOp& op : source.next(60 + static_cast<int>(source.rng.uniform_int(240))))
      (void)op.apply(src);
    // Half the rounds clone with a write still uncommitted.
    src.commit();
    if (round % 2 == 0) {
      source.keys.push_back(insertable_key(src, "dirty-" + std::to_string(round)));
      src.set(source.keys.back(), val("dirty"));
    }
    ASSERT_EQ(src.has_uncommitted(), round % 2 == 0);
    SealableTrie copy = src.clone();
    EXPECT_EQ(copy.has_uncommitted(), round % 2 == 0);
    expect_same_trie(src, copy, source.keys);

    // Isolation, both directions: a write to one trie never shows in
    // the other.  The last write then lands on both, so they converge.
    const Hash32 src_root = src.root_hash();
    const Bytes fresh = insertable_key(src, "isolated-" + std::to_string(round));
    copy.set(fresh, val("copy-side"));
    EXPECT_EQ(src.get(fresh), Lookup::kAbsent);
    EXPECT_EQ(src.root_hash(), src_root);
    src.set(fresh, val("src-side"));
    Hash32 seen;
    ASSERT_EQ(copy.get(fresh, &seen), Lookup::kFound);
    EXPECT_EQ(seen, val("copy-side"));
    copy.set(fresh, val("src-side"));
    source.keys.push_back(fresh);
    expect_same_trie(src, copy, source.keys);

    // Identical further histories stay identical.
    for (const TrieOp& op : source.next(80)) ASSERT_EQ(op.apply(src), op.apply(copy));
    expect_same_trie(src, copy, source.keys);

    // The guest's rollback: a snapshot published by the live trie, then
    // the live trie move-assigned from a clone.  The snapshot keeps its
    // nodes and still reads and proves.
    const TrieSnapshot snap = src.snapshot();
    const Hash32 snap_root = snap.root_hash();
    std::vector<std::pair<Bytes, Hash32>> present;
    for (const Bytes& k : source.keys) {
      Hash32 v;
      if (src.get(k, &v) == Lookup::kFound) present.emplace_back(k, v);
    }
    ASSERT_FALSE(present.empty());
    src = copy.clone();
    for (const TrieOp& op : source.next(80)) (void)op.apply(src);
    src.commit();
    src.debug_check_stats();
    EXPECT_EQ(snap.root_hash(), snap_root);
    for (const auto& [k, v] : present) {
      Hash32 got;
      ASSERT_EQ(snap.get(k, &got), Lookup::kFound);
      EXPECT_EQ(got, v);
      const VerifyOutcome vo = verify_proof(snap_root, k, snap.prove(k));
      ASSERT_EQ(vo.kind, VerifyOutcome::Kind::kFound);
      EXPECT_EQ(vo.value, v);
    }
  }
}

// --- Batch proving -----------------------------------------------------

TEST(ProofService, BatchMatchesSerialProving) {
  SealableTrie t;
  for (int i = 0; i < 256; ++i) t.set(key_of("b" + std::to_string(i)), val("v"));
  const TrieSnapshot snap = t.snapshot();
  std::vector<Bytes> keys;
  for (int i = 0; i < 300; ++i) keys.push_back(key_of("b" + std::to_string(i)));

  const std::vector<Proof> batch = ProofService::prove_batch(snap, keys);
  ASSERT_EQ(batch.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    ASSERT_EQ(batch[i].serialize(), snap.prove(keys[i]).serialize()) << i;
}

TEST(ProofService, SealedKeyFailsTheBatch) {
  SealableTrie t;
  t.set(key_of("a"), val("1"));
  t.set(key_of("b"), val("2"));
  t.seal(key_of("a"));
  const TrieSnapshot snap = t.snapshot();
  EXPECT_THROW((void)ProofService::prove_batch(snap, {key_of("a"), key_of("b")}),
               SealedError);
}

TEST(TrieSnapshot, ProvesConcurrentlyWithCommits) {
  SealableTrie t;
  for (int i = 0; i < 512; ++i) t.set(key_of("c" + std::to_string(i)), val("0"));
  t.commit();

  // Interleave: publish a snapshot, hand its proof batch to a prover
  // thread, and immediately start mutating and committing the next
  // block while that thread proves against the frozen pages.  A batch
  // that throws leaves its slot empty, which fails the size check.
  std::vector<std::vector<Proof>> proofs(8);
  std::vector<Hash32> roots;
  std::vector<std::vector<Bytes>> key_batches;
  std::vector<std::jthread> provers;  // declared last: joined before the rest go
  for (std::size_t block = 0; block < 8; ++block) {
    const TrieSnapshot snap = t.snapshot();
    roots.push_back(snap.root_hash());
    std::vector<Bytes> keys;
    for (std::size_t i = 0; i < 64; ++i)
      keys.push_back(key_of("c" + std::to_string((block * 37 + i) % 512)));
    key_batches.push_back(keys);
    provers.emplace_back([snap, keys = std::move(keys), out = &proofs[block]] {
      try {
        *out = ProofService::prove_batch(snap, keys);
      } catch (const TrieError&) {
      }
    });
    for (int i = 0; i < 512; i += 3)
      t.set(key_of("c" + std::to_string(i)), val("b" + std::to_string(block)));
    t.commit();
  }
  for (std::jthread& p : provers) p.join();
  for (std::size_t b = 0; b < proofs.size(); ++b) {
    ASSERT_EQ(proofs[b].size(), key_batches[b].size());
    for (std::size_t i = 0; i < proofs[b].size(); ++i) {
      const VerifyOutcome vo = verify_proof(roots[b], key_batches[b][i], proofs[b][i]);
      ASSERT_EQ(vo.kind, VerifyOutcome::Kind::kFound) << "block " << b << " key " << i;
    }
  }
}

}  // namespace
}  // namespace bmg::trie
