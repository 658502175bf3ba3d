// Proof fuzzing under copy-on-write sharing.
//
// Trie nodes are shared with snapshots and clones and copied before a
// write, which brings failure modes a private trie cannot have: a
// write that skips its copy and changes what a snapshot proves, a
// sealed node freed while a snapshot still reaches it, a commit that
// writes hashes into a node a clone shares.  These sweeps keep
// snapshots alive while the trie churns, so writes copy their paths,
// and cross-check three invariants:
//
//   1. membership/non-membership proofs verify at every churn step,
//   2. serialized proofs reject truncation and single-byte flips,
//   3. roots and proof bytes are identical across sharing histories.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "trie/snapshot.hpp"
#include "trie/trie.hpp"

namespace bmg::trie {
namespace {

using crypto::Sha256;

Hash32 val(std::uint64_t x) { return Sha256::digest(bytes_of("v" + std::to_string(x))); }

Bytes key_of(std::uint64_t x) {
  const Hash32 h = Sha256::digest(bytes_of("k" + std::to_string(x)));
  return Bytes(h.bytes.begin(), h.bytes.end());
}

Bytes seq_key(std::uint64_t tag, std::uint64_t seq) {
  Encoder e;
  e.u64(tag).u64(seq);
  return e.take();
}

class PagedProofFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PagedProofFuzz, ProofsVerifyAcrossPageSplits) {
  // A snapshot of every step stays alive, so each step's inserts copy
  // the spines they touch; every older snapshot keeps proving its own
  // keys at its own root.
  Rng rng(GetParam());
  SealableTrie t;
  std::vector<std::uint64_t> live;
  std::vector<TrieSnapshot> snaps;
  std::uint64_t next = 0;
  for (int step = 0; step < 30; ++step) {
    const int inserts = 1 + static_cast<int>(rng.uniform_int(12));
    for (int i = 0; i < inserts; ++i) {
      t.set(key_of(next), val(next));
      live.push_back(next++);
    }
    snaps.push_back(t.snapshot());
    const Hash32 root = t.root_hash();
    // Every live key proves membership; a few fresh keys prove absence.
    for (const std::uint64_t k : live) {
      const Bytes kb = key_of(k);
      const VerifyOutcome vo = verify_proof(root, kb, t.prove(kb));
      ASSERT_EQ(vo.kind, VerifyOutcome::Kind::kFound) << "step " << step << " key " << k;
      ASSERT_EQ(vo.value, val(k));
    }
    for (int i = 0; i < 8; ++i) {
      const Bytes kb = key_of(next + 1000 + static_cast<std::uint64_t>(i));
      ASSERT_EQ(verify_proof(root, kb, t.prove(kb)).kind, VerifyOutcome::Kind::kAbsent);
    }
    t.debug_check_stats();
  }
  for (std::size_t s = 0; s < snaps.size(); ++s) {
    const Hash32 root = snaps[s].root_hash();
    for (const std::uint64_t k : {std::uint64_t{0}, next / 2, next - 1}) {
      const Bytes kb = key_of(k);
      const VerifyOutcome vo = verify_proof(root, kb, snaps[s].prove(kb));
      ASSERT_NE(vo.kind, VerifyOutcome::Kind::kInvalid) << "snapshot " << s << " key " << k;
    }
  }
}

TEST_P(PagedProofFuzz, SealedRegionEdgesStayProvable) {
  // Monotonic subspace churn: sealing frees the nodes behind the
  // window while neighbouring (unsealed) entries keep proving.  This
  // is the sealed-region *edge* case — the proof path touches branches
  // whose sibling refs are sealed stubs.  A snapshot every 25 steps
  // keeps some sealed nodes reachable, so the live trie copies before
  // sealing under it.
  Rng rng(GetParam() * 7 + 1);
  SealableTrie t;
  TrieSnapshot held;
  constexpr std::uint64_t kWindow = 12;
  std::uint64_t sealed_below = 0, next = 0;
  for (int step = 0; step < 250; ++step) {
    t.set(seq_key(5, next), val(next));
    ++next;
    const std::size_t before = t.stats().node_count();
    bool sealed = false;
    while (next - sealed_below > kWindow) {
      t.seal(seq_key(5, sealed_below));
      ++sealed_below;
      sealed = true;
    }
    // Every seal removes at least the sealed leaf from the live trie.
    if (sealed) {
      ASSERT_LT(t.stats().node_count(), before) << "step " << step;
    }
    if (step % 25 != 0) continue;
    held = t.snapshot();
    const Hash32 root = t.root_hash();
    // Unsealed window entries all prove; sealed ones all refuse.
    for (std::uint64_t k = sealed_below; k < next; ++k) {
      const Bytes kb = seq_key(5, k);
      const VerifyOutcome vo = verify_proof(root, kb, t.prove(kb));
      ASSERT_EQ(vo.kind, VerifyOutcome::Kind::kFound) << k;
    }
    if (sealed_below > 0) {
      const std::uint64_t pick = rng.uniform_int(sealed_below);
      EXPECT_THROW((void)t.prove(seq_key(5, pick)), SealedError);
    }
    t.debug_check_stats();
  }
}

TEST_P(PagedProofFuzz, SnapshotAndLiveDivergenceKeepsBothProvable) {
  Rng rng(GetParam() * 31 + 5);
  SealableTrie t;
  for (std::uint64_t i = 0; i < 80; ++i) t.set(key_of(i), val(i));
  const Hash32 snap_root = t.root_hash();
  const TrieSnapshot snap = t.snapshot();

  // Diverge: overwrite half, add more, seal a third.
  for (std::uint64_t i = 0; i < 80; i += 2) t.set(key_of(i), val(i + 9000));
  for (std::uint64_t i = 80; i < 160; ++i) t.set(key_of(i), val(i));
  for (std::uint64_t i = 1; i < 80; i += 3) t.seal(key_of(i));
  const Hash32 live_root = t.root_hash();
  ASSERT_NE(snap_root, live_root);

  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t k = rng.uniform_int(160);
    const Bytes kb = key_of(k);
    // Snapshot: pre-divergence state, nothing sealed.
    const VerifyOutcome svo = verify_proof(snap_root, kb, snap.prove(kb));
    if (k < 80) {
      ASSERT_EQ(svo.kind, VerifyOutcome::Kind::kFound) << k;
      ASSERT_EQ(svo.value, val(k));
    } else {
      ASSERT_EQ(svo.kind, VerifyOutcome::Kind::kAbsent) << k;
    }
    // Live: post-divergence state, sealed paths refuse.
    if (k < 80 && k % 3 == 1) {
      EXPECT_THROW((void)t.prove(kb), SealedError);
      continue;
    }
    const VerifyOutcome lvo = verify_proof(live_root, kb, t.prove(kb));
    ASSERT_EQ(lvo.kind, VerifyOutcome::Kind::kFound) << k;
    ASSERT_EQ(lvo.value, k < 80 && k % 2 == 0 ? val(k + 9000) : val(k));
    // Cross-verification must fail closed: a live proof never verifies
    // as Found under the snapshot root for diverged keys.
    if (k < 80 && k % 2 == 0) {
      const VerifyOutcome cross = verify_proof(snap_root, kb, t.prove(kb));
      EXPECT_NE(cross.kind, VerifyOutcome::Kind::kFound) << k;
    }
  }
}

TEST_P(PagedProofFuzz, SerializedProofsRejectTruncationAndBitFlips) {
  Rng rng(GetParam() * 131 + 17);
  SealableTrie t;
  for (std::uint64_t i = 0; i < 128; ++i) t.set(key_of(i), val(i));
  const Hash32 root = t.root_hash();

  for (int trial = 0; trial < 40; ++trial) {
    const std::uint64_t k = rng.uniform_int(140);  // some absent
    const Bytes kb = key_of(k);
    const Proof proof = t.prove(kb);
    const Bytes wire = proof.serialize();
    const VerifyOutcome honest = verify_proof(root, kb, Proof::deserialize(wire));
    ASSERT_EQ(honest.kind,
              k < 128 ? VerifyOutcome::Kind::kFound : VerifyOutcome::Kind::kAbsent);

    // Truncation at a random point either fails to decode or decodes
    // to something that no longer verifies as the honest outcome.
    if (wire.size() > 1) {
      const std::size_t cut = 1 + rng.uniform_int(wire.size() - 1);
      const Bytes trunc(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
      try {
        const VerifyOutcome vo = verify_proof(root, kb, Proof::deserialize(trunc));
        EXPECT_NE(vo.kind, honest.kind) << "truncated proof accepted, cut=" << cut;
      } catch (const CodecError&) {
      }
    }

    // A single flipped byte must never verify as Found with the honest
    // value (flips in absence proofs may legally still prove absence —
    // e.g. a bit in an unused sibling hash — but can never conjure
    // membership).
    Bytes flipped = wire;
    const std::size_t at = rng.uniform_int(flipped.size());
    flipped[at] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(255));
    try {
      const VerifyOutcome vo = verify_proof(root, kb, Proof::deserialize(flipped));
      if (vo.kind == VerifyOutcome::Kind::kFound) {
        EXPECT_NE(vo.value, honest.value) << "byte flip at " << at << " undetected";
      }
      if (honest.kind == VerifyOutcome::Kind::kFound) {
        EXPECT_NE(vo.kind, VerifyOutcome::Kind::kFound)
            << "byte flip at " << at << " kept membership";
      }
    } catch (const CodecError&) {
    }
  }
}

TEST_P(PagedProofFuzz, SharingHistoriesAgreeByteForByte) {
  // The same operations on three tries that share nodes differently:
  // a plain trie; one snapshotted after every operation, so every
  // write copies a path; and one replaced by its own clone every 20
  // steps, uncommitted writes included.  Roots and every serialized
  // proof must be identical — sharing never leaks into commitments —
  // and every retained snapshot still proves against its own root.
  Rng rng(GetParam() * 997 + 3);
  SealableTrie plain, snapshotted, cloned;
  std::vector<TrieSnapshot> snaps;

  std::uint64_t next = 0;
  std::vector<std::uint64_t> live;
  for (int step = 0; step < 120; ++step) {
    const bool insert = live.size() < 4 || rng.chance(0.7);
    if (insert) {
      for (SealableTrie* t : {&plain, &snapshotted, &cloned}) t->set(seq_key(2, next), val(next));
      live.push_back(next++);
    } else {
      // Seal a uniformly random non-maximum entry.
      const std::size_t pick = rng.uniform_int(live.size() - 1);
      for (SealableTrie* t : {&plain, &snapshotted, &cloned}) t->seal(seq_key(2, live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    snaps.push_back(snapshotted.snapshot());
    if (step % 20 == 10) cloned = cloned.clone();
    if (step % 20 != 0) continue;
    const Hash32 root = plain.root_hash();
    ASSERT_EQ(snapshotted.root_hash(), root) << "step " << step;
    ASSERT_EQ(cloned.root_hash(), root) << "step " << step;
    for (const std::uint64_t k : live) {
      const Bytes kb = seq_key(2, k);
      const Bytes wire = plain.prove(kb).serialize();
      ASSERT_EQ(snapshotted.prove(kb).serialize(), wire) << "step " << step << " key " << k;
      ASSERT_EQ(cloned.prove(kb).serialize(), wire) << "step " << step << " key " << k;
      ASSERT_EQ(snaps.back().prove(kb).serialize(), wire) << "step " << step << " key " << k;
    }
  }
  for (std::size_t s = 0; s < snaps.size(); ++s) {
    for (std::uint64_t k = 0; k < next; ++k) {
      const Bytes kb = seq_key(2, k);
      if (snaps[s].get(kb) == Lookup::kSealed) continue;
      const VerifyOutcome vo = verify_proof(snaps[s].root_hash(), kb, snaps[s].prove(kb));
      ASSERT_NE(vo.kind, VerifyOutcome::Kind::kInvalid) << "snapshot " << s << " key " << k;
    }
  }
  for (SealableTrie* t : {&plain, &snapshotted, &cloned}) t->debug_check_stats();
  ASSERT_EQ(snapshotted.stats(), plain.stats());
  ASSERT_EQ(cloned.stats(), plain.stats());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagedProofFuzz, ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace bmg::trie
