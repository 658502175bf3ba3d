#include "trie/trie.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"

namespace bmg::trie {
namespace {

using crypto::Sha256;

Hash32 val(std::string_view s) { return Sha256::digest(bytes_of(s)); }

Bytes key_of(std::string_view s) {
  // Hash keys to guarantee prefix freedom, as the IBC layer does.
  const Hash32 h = Sha256::digest(bytes_of(s));
  return Bytes(h.bytes.begin(), h.bytes.end());
}

TEST(Trie, EmptyTrieHasZeroRoot) {
  const SealableTrie t;
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.root_hash().is_zero());
}

TEST(Trie, SetThenGet) {
  SealableTrie t;
  t.set(key_of("a"), val("1"));
  Hash32 out;
  EXPECT_EQ(t.get(key_of("a"), &out), SealableTrie::Lookup::kFound);
  EXPECT_EQ(out, val("1"));
  EXPECT_EQ(t.get(key_of("b")), SealableTrie::Lookup::kAbsent);
  EXPECT_FALSE(t.root_hash().is_zero());
}

TEST(Trie, UpdateExistingKey) {
  SealableTrie t;
  t.set(key_of("k"), val("v1"));
  const Hash32 r1 = t.root_hash();
  t.set(key_of("k"), val("v2"));
  EXPECT_NE(t.root_hash(), r1);
  Hash32 out;
  ASSERT_EQ(t.get(key_of("k"), &out), SealableTrie::Lookup::kFound);
  EXPECT_EQ(out, val("v2"));
  // Setting the same value back restores the old root.
  t.set(key_of("k"), val("v1"));
  EXPECT_EQ(t.root_hash(), r1);
}

TEST(Trie, ManyKeysAllRetrievable) {
  SealableTrie t;
  for (int i = 0; i < 500; ++i)
    t.set(key_of("key-" + std::to_string(i)), val("val-" + std::to_string(i)));
  for (int i = 0; i < 500; ++i) {
    Hash32 out;
    ASSERT_EQ(t.get(key_of("key-" + std::to_string(i)), &out),
              SealableTrie::Lookup::kFound)
        << i;
    EXPECT_EQ(out, val("val-" + std::to_string(i)));
  }
  EXPECT_EQ(t.get(key_of("key-500")), SealableTrie::Lookup::kAbsent);
}

TEST(Trie, RootIsInsertOrderIndependent) {
  std::vector<int> order(64);
  for (int i = 0; i < 64; ++i) order[static_cast<std::size_t>(i)] = i;

  SealableTrie forward;
  for (int i : order) forward.set(key_of(std::to_string(i)), val(std::to_string(i)));

  std::reverse(order.begin(), order.end());
  SealableTrie backward;
  for (int i : order) backward.set(key_of(std::to_string(i)), val(std::to_string(i)));

  Rng rng(99);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_int(i)]);
  SealableTrie shuffled;
  for (int i : order) shuffled.set(key_of(std::to_string(i)), val(std::to_string(i)));

  EXPECT_EQ(forward.root_hash(), backward.root_hash());
  EXPECT_EQ(forward.root_hash(), shuffled.root_hash());
}

TEST(Trie, PrefixViolationThrows) {
  SealableTrie t;
  const Bytes shorter = {0x12, 0x34};
  const Bytes longer = {0x12, 0x34, 0x56};
  t.set(shorter, val("a"));
  EXPECT_THROW(t.set(longer, val("b")), PrefixError);

  SealableTrie t2;
  t2.set(longer, val("b"));
  EXPECT_THROW(t2.set(shorter, val("a")), PrefixError);

  // Violations found below a branch and an extension leave the trie as
  // it was: same root, same counters, nothing left dirty.
  SealableTrie t3;
  t3.set(Bytes{0x12, 0x34, 0x56}, val("c"));
  t3.set(Bytes{0x12, 0x35, 0x01}, val("d"));
  const Hash32 root = t3.root_hash();
  const TrieStats stats = t3.stats();
  EXPECT_THROW(t3.set(Bytes{0x12, 0x35, 0x01, 0x77}, val("e")), PrefixError);
  EXPECT_THROW(t3.set(Bytes{0x12, 0x35}, val("e")), PrefixError);
  EXPECT_THROW(t3.set(Bytes{0x12}, val("e")), PrefixError);
  EXPECT_FALSE(t3.has_uncommitted());
  EXPECT_EQ(t3.root_hash(), root);
  EXPECT_EQ(t3.stats(), stats);
  t3.debug_check_stats();
}

TEST(Trie, DistinctRootsForDistinctContents) {
  SealableTrie a, b;
  a.set(key_of("x"), val("1"));
  b.set(key_of("x"), val("2"));
  EXPECT_NE(a.root_hash(), b.root_hash());

  SealableTrie c;
  c.set(key_of("y"), val("1"));
  EXPECT_NE(a.root_hash(), c.root_hash());
}

// --- Proofs -----------------------------------------------------------

TEST(TrieProof, MembershipVerifies) {
  SealableTrie t;
  for (int i = 0; i < 50; ++i) t.set(key_of(std::to_string(i)), val(std::to_string(i)));
  for (int i = 0; i < 50; ++i) {
    const Bytes k = key_of(std::to_string(i));
    const Proof p = t.prove(k);
    const VerifyOutcome out = verify_proof(t.root_hash(), k, p);
    ASSERT_EQ(out.kind, VerifyOutcome::Kind::kFound) << i;
    EXPECT_EQ(out.value, val(std::to_string(i)));
  }
}

TEST(TrieProof, NonMembershipVerifies) {
  SealableTrie t;
  for (int i = 0; i < 50; ++i) t.set(key_of(std::to_string(i)), val(std::to_string(i)));
  for (int i = 50; i < 80; ++i) {
    const Bytes k = key_of(std::to_string(i));
    const Proof p = t.prove(k);
    EXPECT_EQ(verify_proof(t.root_hash(), k, p).kind, VerifyOutcome::Kind::kAbsent) << i;
  }
}

TEST(TrieProof, EmptyTrieProvesAbsence) {
  const SealableTrie t;
  const Proof p = t.prove(key_of("anything"));
  EXPECT_TRUE(p.nodes.empty());
  EXPECT_EQ(verify_proof(t.root_hash(), key_of("anything"), p).kind,
            VerifyOutcome::Kind::kAbsent);
}

TEST(TrieProof, WrongRootRejected) {
  SealableTrie t;
  t.set(key_of("a"), val("1"));
  const Proof p = t.prove(key_of("a"));
  Hash32 wrong = t.root_hash();
  wrong.bytes[0] ^= 1;
  EXPECT_EQ(verify_proof(wrong, key_of("a"), p).kind, VerifyOutcome::Kind::kInvalid);
}

TEST(TrieProof, ProofForOtherKeyRejected) {
  SealableTrie t;
  t.set(key_of("a"), val("1"));
  t.set(key_of("b"), val("2"));
  const Proof pa = t.prove(key_of("a"));
  // Verifying a's proof against b's key must not report b present.
  const VerifyOutcome out = verify_proof(t.root_hash(), key_of("b"), pa);
  EXPECT_NE(out.kind, VerifyOutcome::Kind::kFound);
}

TEST(TrieProof, TamperedValueRejected) {
  SealableTrie t;
  t.set(key_of("a"), val("1"));
  Proof p = t.prove(key_of("a"));
  auto& leaf = std::get<ProofLeaf>(p.nodes.back());
  leaf.value = val("2");
  EXPECT_EQ(verify_proof(t.root_hash(), key_of("a"), p).kind,
            VerifyOutcome::Kind::kInvalid);
}

TEST(TrieProof, TruncatedProofRejected) {
  SealableTrie t;
  for (int i = 0; i < 64; ++i) t.set(key_of(std::to_string(i)), val("x"));
  Proof p = t.prove(key_of("5"));
  ASSERT_GT(p.nodes.size(), 1u);
  p.nodes.pop_back();
  EXPECT_EQ(verify_proof(t.root_hash(), key_of("5"), p).kind,
            VerifyOutcome::Kind::kInvalid);
}

TEST(TrieProof, SerializationRoundTrip) {
  SealableTrie t;
  for (int i = 0; i < 64; ++i) t.set(key_of(std::to_string(i)), val(std::to_string(i)));
  const Proof p = t.prove(key_of("7"));
  const Bytes wire = p.serialize();
  EXPECT_EQ(wire.size(), p.byte_size());
  const Proof q = Proof::deserialize(wire);
  EXPECT_EQ(verify_proof(t.root_hash(), key_of("7"), q).kind,
            VerifyOutcome::Kind::kFound);
}

TEST(TrieProof, DeserializeRejectsGarbage) {
  EXPECT_THROW((void)Proof::deserialize(bytes_of("nonsense")), CodecError);
  Encoder e;
  e.u32(1).u8(99);  // unknown tag
  EXPECT_THROW((void)Proof::deserialize(e.out()), CodecError);
}

// --- Sealing ----------------------------------------------------------

TEST(TrieSeal, SealPreservesRoot) {
  SealableTrie t;
  for (int i = 0; i < 20; ++i) t.set(key_of(std::to_string(i)), val(std::to_string(i)));
  const Hash32 root = t.root_hash();
  for (int i = 0; i < 10; ++i) t.seal(key_of(std::to_string(i)));
  EXPECT_EQ(t.root_hash(), root);
}

TEST(TrieSeal, SealedKeyReportsSealed) {
  SealableTrie t;
  t.set(key_of("a"), val("1"));
  t.set(key_of("b"), val("2"));
  t.seal(key_of("a"));
  EXPECT_EQ(t.get(key_of("a")), SealableTrie::Lookup::kSealed);
  EXPECT_EQ(t.get(key_of("b")), SealableTrie::Lookup::kFound);
}

TEST(TrieSeal, DoubleDeliveryGuard) {
  // The Guest Contract's pattern: record packet, seal it; a second
  // delivery attempt must not see "absent".
  SealableTrie t;
  const Bytes packet_hash = key_of("packet-1");
  ASSERT_EQ(t.get(packet_hash), SealableTrie::Lookup::kAbsent);  // first delivery ok
  t.set(packet_hash, val("receipt"));
  t.seal(packet_hash);
  EXPECT_NE(t.get(packet_hash), SealableTrie::Lookup::kAbsent);  // replay blocked
}

TEST(TrieSeal, SealAbsentKeyThrows) {
  SealableTrie t;
  t.set(key_of("a"), val("1"));
  EXPECT_THROW(t.seal(key_of("zz")), NotFoundError);
}

TEST(TrieSeal, SealOnEmptyTrieThrows) {
  SealableTrie t;
  EXPECT_THROW(t.seal(key_of("a")), NotFoundError);
}

TEST(TrieSeal, DoubleSealThrows) {
  SealableTrie t;
  t.set(key_of("a"), val("1"));
  t.set(key_of("b"), val("2"));
  t.seal(key_of("a"));
  EXPECT_THROW(t.seal(key_of("a")), SealedError);
}

TEST(TrieSeal, SetIntoSealedRegionThrows) {
  SealableTrie t;
  t.set(key_of("a"), val("1"));
  t.seal(key_of("a"));
  EXPECT_THROW(t.set(key_of("a"), val("2")), SealedError);

  // Below a live branch too, and the failed write leaves nothing dirty.
  SealableTrie u;
  u.set(Bytes{0x01, 0x00}, val("1"));
  u.set(Bytes{0x02, 0x00}, val("2"));
  u.seal(Bytes{0x01, 0x00});
  const Hash32 root = u.root_hash();
  EXPECT_THROW(u.set(Bytes{0x01, 0x00}, val("3")), SealedError);
  EXPECT_FALSE(u.has_uncommitted());
  EXPECT_EQ(u.root_hash(), root);
  u.debug_check_stats();
}

TEST(TrieSeal, ProveThroughSealedRegionThrows) {
  SealableTrie t;
  t.set(key_of("a"), val("1"));
  t.seal(key_of("a"));
  EXPECT_THROW((void)t.prove(key_of("a")), SealedError);
}

TEST(TrieSeal, SealingAllKeysReclaimsAllNodes) {
  SealableTrie t;
  const int n = 100;
  for (int i = 0; i < n; ++i) t.set(key_of(std::to_string(i)), val("x"));
  const Hash32 root = t.root_hash();
  EXPECT_GT(t.stats().node_count(), 0u);
  for (int i = 0; i < n; ++i) t.seal(key_of(std::to_string(i)));
  EXPECT_EQ(t.stats().node_count(), 0u);  // everything reclaimed
  EXPECT_EQ(t.root_hash(), root);         // commitment intact
}

TEST(TrieSeal, UnsealedSiblingsStillProvable) {
  SealableTrie t;
  for (int i = 0; i < 40; ++i) t.set(key_of(std::to_string(i)), val(std::to_string(i)));
  for (int i = 0; i < 40; i += 2) t.seal(key_of(std::to_string(i)));
  for (int i = 1; i < 40; i += 2) {
    const Bytes k = key_of(std::to_string(i));
    const Proof p = t.prove(k);
    const VerifyOutcome out = verify_proof(t.root_hash(), k, p);
    ASSERT_EQ(out.kind, VerifyOutcome::Kind::kFound) << i;
    EXPECT_EQ(out.value, val(std::to_string(i)));
  }
}

TEST(TrieSeal, StorageShrinksAfterSealing) {
  SealableTrie t;
  const int n = 200;
  for (int i = 0; i < n; ++i) t.set(key_of(std::to_string(i)), val("v"));
  const std::size_t before = t.stats().byte_size;
  for (int i = 0; i < n / 2; ++i) t.seal(key_of(std::to_string(i)));
  const std::size_t after = t.stats().byte_size;
  EXPECT_LT(after, before);
}

Bytes seq_key(std::uint64_t channel_tag, std::uint64_t seq) {
  // Fixed-width monotonic keys, as the guest layer uses for sealable
  // entries: [8-byte subspace tag][8-byte big-endian sequence].
  Encoder e;
  e.u64(channel_tag).u64(seq);
  return e.take();
}

TEST(TrieSeal, BoundedStateUnderChurn) {
  // The paper's headline storage property: with insert+seal churn the
  // live state stays bounded instead of growing with history.  Keys
  // are monotonic and the newest entry is never sealed, so inserts
  // never route into sealed regions (interval property).
  SealableTrie t;
  std::size_t peak = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    t.set(seq_key(7, i), val("r"));
    if (i >= 16) t.seal(seq_key(7, i - 16));
    peak = std::max(peak, t.stats().node_count());
  }
  // Live nodes stay near the in-flight window, far below total inserts.
  EXPECT_LT(peak, 200u);
}

TEST(TrieSeal, MonotonicKeysWithUnsealedMaxNeverBlock) {
  // Interval property: if the maximum key of a subspace is unsealed,
  // inserting any larger key cannot cross a sealed ref — even when
  // every older entry has been sealed.
  SealableTrie t;
  for (std::uint64_t i = 0; i < 300; ++i) {
    ASSERT_NO_THROW(t.set(seq_key(3, i), val("x"))) << i;
    if (i >= 1) {
      ASSERT_NO_THROW(t.seal(seq_key(3, i - 1))) << i;
    }
  }
  // All but the newest are sealed, newest is retrievable.
  EXPECT_EQ(t.get(seq_key(3, 299)), SealableTrie::Lookup::kFound);
  EXPECT_EQ(t.get(seq_key(3, 150)), SealableTrie::Lookup::kSealed);
}

TEST(TrieSeal, PerSubspaceSealingDoesNotBlockOtherSubspaces) {
  // Two "channels" interleaved: fully sealing channel A's old entries
  // must never block channel B, as long as each keeps its newest
  // entry unsealed.
  SealableTrie t;
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_NO_THROW(t.set(seq_key(1, i), val("a")));
    ASSERT_NO_THROW(t.set(seq_key(2, i), val("b")));
    if (i >= 1) {
      ASSERT_NO_THROW(t.seal(seq_key(1, i - 1)));
      ASSERT_NO_THROW(t.seal(seq_key(2, i - 1)));
    }
  }
  EXPECT_EQ(t.get(seq_key(1, 99)), SealableTrie::Lookup::kFound);
  EXPECT_EQ(t.get(seq_key(2, 99)), SealableTrie::Lookup::kFound);
}

TEST(TrieSeal, SealingEverythingSealsRoot) {
  // Sealing literally every entry seals the root itself; afterwards
  // nothing can be inserted.  This is why the guest layer keeps the
  // newest entry per subspace unsealed.
  SealableTrie t;
  for (std::uint64_t i = 0; i < 8; ++i) t.set(seq_key(1, i), val("x"));
  for (std::uint64_t i = 0; i < 8; ++i) t.seal(seq_key(1, i));
  EXPECT_EQ(t.stats().node_count(), 0u);
  EXPECT_THROW(t.set(seq_key(1, 8), val("y")), SealedError);
}

// --- Stats integrity --------------------------------------------------

TEST(TrieStatsCheck, SealThenReinsertSiblingPrefixesKeepsSealedRefsExact) {
  // Regression: repeated seal-then-reinsert of sibling prefixes.  A
  // sealed sibling collapses branches into extensions (and back) as
  // neighbours are re-inserted; every transition must carry the sealed
  // ref count along exactly, or storage accounting drifts over time.
  SealableTrie t;
  for (int round = 0; round < 12; ++round) {
    // Interleaved subspaces so sealed refs sit next to live siblings.
    for (std::uint64_t i = 0; i < 24; ++i)
      t.set(seq_key(1 + (i % 3), 100 * static_cast<std::uint64_t>(round) + i),
            val("r" + std::to_string(round)));
    t.commit();
    ASSERT_NO_THROW(t.debug_check_stats()) << "round " << round << " post-insert";
    // Seal all but the newest entry of each subspace (interval rule).
    for (std::uint64_t i = 0; i < 21; ++i)
      t.seal(seq_key(1 + (i % 3), 100 * static_cast<std::uint64_t>(round) + i));
    t.commit();
    ASSERT_NO_THROW(t.debug_check_stats()) << "round " << round << " post-seal";
  }
  // Sealed refs from every round are still accounted for (none were
  // double-counted or lost across branch/extension rewrites).
  EXPECT_GT(t.stats().sealed_refs, 0u);
}

TEST(TrieStatsCheck, RandomChurnNeverDriftsCounters) {
  Rng rng(4242);
  SealableTrie t;
  std::vector<std::uint64_t> live;
  std::uint64_t next = 0;
  for (int step = 0; step < 400; ++step) {
    if (live.size() < 2 || rng.chance(0.6)) {
      t.set(seq_key(9, next), val(std::to_string(next)));
      live.push_back(next++);
    } else {
      // Seal any entry except the subspace maximum.
      const std::size_t pick = rng.uniform_int(live.size() - 1);
      t.seal(seq_key(9, live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (step % 37 == 0) {
      t.commit();
      ASSERT_NO_THROW(t.debug_check_stats()) << "step " << step;
    }
  }
  t.commit();
  ASSERT_NO_THROW(t.debug_check_stats());
}

// --- Randomized property sweep ----------------------------------------

class TrieRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieRandomized, ProveVerifyAndSealAgree) {
  Rng rng(GetParam());
  SealableTrie t;
  std::vector<std::string> keys;
  const int n = 150;
  for (int i = 0; i < n; ++i) {
    keys.push_back("k" + std::to_string(rng.next()));
    t.set(key_of(keys.back()), val(keys.back()));
  }
  const Hash32 root = t.root_hash();

  // Seal a random subset.
  std::vector<bool> sealed(keys.size(), false);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (rng.chance(0.4)) {
      t.seal(key_of(keys[i]));
      sealed[i] = true;
    }
  }
  EXPECT_EQ(t.root_hash(), root);

  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Bytes k = key_of(keys[i]);
    if (sealed[i]) {
      EXPECT_EQ(t.get(k), SealableTrie::Lookup::kSealed) << keys[i];
    } else {
      Hash32 out;
      ASSERT_EQ(t.get(k, &out), SealableTrie::Lookup::kFound) << keys[i];
      EXPECT_EQ(out, val(keys[i]));
      const VerifyOutcome res = verify_proof(root, k, t.prove(k));
      ASSERT_EQ(res.kind, VerifyOutcome::Kind::kFound) << keys[i];
    }
  }

  // Absent keys remain provably absent unless blocked by sealing.
  for (int i = 0; i < 30; ++i) {
    const Bytes k = key_of("absent" + std::to_string(rng.next()));
    if (t.get(k) != SealableTrie::Lookup::kAbsent) continue;
    try {
      const Proof p = t.prove(k);
      EXPECT_EQ(verify_proof(root, k, p).kind, VerifyOutcome::Kind::kAbsent);
    } catch (const SealedError&) {
      // Allowed: the absent key's path may enter a sealed region.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieRandomized,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace bmg::trie
