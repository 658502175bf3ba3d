// Model-based randomized testing: the sealable trie against a simple
// reference model (map + sealed set), over long random operation
// sequences with monotonic per-subspace keys.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

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

/// Reference model of one subspace: values per sequence, contiguous
/// sealed prefix.
struct SpaceModel {
  std::map<std::uint64_t, std::uint64_t> values;  // seq -> value id
  std::uint64_t next_seq = 1;
  std::uint64_t sealed_upto = 0;  // 1..sealed_upto sealed
  std::set<std::uint64_t> present_contig;  // helper: watermark

  [[nodiscard]] std::uint64_t watermark() const {
    std::uint64_t w = 0;
    while (values.count(w + 1) > 0) ++w;
    return w;
  }
};

class TrieModelTest : public ::testing::TestWithParam<std::uint64_t> {};

/// With `share` set, every step publishes a snapshot (the last 16 stay
/// alive) and every 100th replaces the trie by its clone, so writes
/// keep copying the nodes they touch.
void run_long_random_model(std::uint64_t seed, SealableTrie& trie, bool share) {
  Rng rng(seed);
  std::map<std::uint64_t, SpaceModel> model;
  const std::uint64_t kSpaces = 3;
  std::deque<TrieSnapshot> held;

  for (int step = 0; step < 3000; ++step) {
    if (share) {
      held.push_back(trie.snapshot());
      if (held.size() > 16) held.pop_front();
      if (step % 100 == 99) trie = trie.clone();
    }
    const std::uint64_t space = rng.uniform_int(kSpaces);
    SpaceModel& m = model[space];
    const double action = rng.uniform();

    if (action < 0.55) {
      // Insert the next sequence (dense per subspace, like send_packet)
      // or occasionally a future one (out-of-order receipt).
      std::uint64_t seq = m.next_seq;
      if (rng.chance(0.2)) seq += rng.uniform_int(3);  // skip ahead
      if (m.values.count(seq) > 0) continue;
      const std::uint64_t v = rng.next();
      trie.set(seq_key(space, seq), val(v));
      m.values[seq] = v;
      m.next_seq = std::max(m.next_seq, seq + 1);
    } else if (action < 0.75) {
      // Seal the next sealable sequence.  Safe-sealing rule: seal s
      // only when 1..s and s+1 are all present, i.e. s < watermark.
      const std::uint64_t s = m.sealed_upto + 1;
      if (s >= m.watermark()) continue;  // keep the newest entry live
      trie.seal(seq_key(space, s));
      m.sealed_upto = s;
    } else if (action < 0.9) {
      // Update an unsealed existing key.
      if (m.values.empty()) continue;
      auto it = m.values.upper_bound(m.sealed_upto);
      if (it == m.values.end()) continue;
      const std::uint64_t v = rng.next();
      trie.set(seq_key(space, it->first), val(v));
      it->second = v;
    } else {
      // Random lookups agree with the model.
      const std::uint64_t seq = 1 + rng.uniform_int(m.next_seq + 2);
      Hash32 out;
      const auto res = trie.get(seq_key(space, seq), &out);
      if (seq <= m.sealed_upto && m.values.count(seq)) {
        EXPECT_EQ(res, SealableTrie::Lookup::kSealed);
      } else if (m.values.count(seq)) {
        ASSERT_EQ(res, SealableTrie::Lookup::kFound);
        EXPECT_EQ(out, val(m.values.at(seq)));
      } else {
        // Absent keys may sit behind sealed subtrees only if <= sealed_upto.
        if (res == SealableTrie::Lookup::kSealed) {
          EXPECT_LE(seq, m.sealed_upto + 1);
        } else {
          EXPECT_EQ(res, SealableTrie::Lookup::kAbsent);
        }
      }
    }
  }

  // The incrementally maintained stats must agree with a recount from
  // the live nodes after the full random run.
  ASSERT_NO_THROW(trie.debug_check_stats());

  // Final sweep: every model entry is either retrievable or sealed,
  // and all unsealed entries are provable against the root.
  const Hash32 root = trie.root_hash();
  for (const auto& [space, m] : model) {
    for (const auto& [seq, v] : m.values) {
      const Bytes key = seq_key(space, seq);
      if (seq <= m.sealed_upto) {
        EXPECT_EQ(trie.get(key), SealableTrie::Lookup::kSealed);
      } else {
        const Proof proof = trie.prove(key);
        const VerifyOutcome out = verify_proof(root, key, proof);
        ASSERT_EQ(out.kind, VerifyOutcome::Kind::kFound);
        EXPECT_EQ(out.value, val(v));
      }
    }
  }
}

TEST_P(TrieModelTest, LongRandomRunAgreesWithModel) {
  SealableTrie trie;
  run_long_random_model(GetParam(), trie, false);
}

TEST_P(TrieModelTest, LongRandomRunAgreesWithModelTinyPages) {
  // Same model sweep while snapshots and clones share the trie's
  // nodes, so nearly every write copies a path.  It must agree with
  // the model and end on the plain run's root and counters.  (The
  // name dates from the paged node store, when this variant ran on
  // 1 KiB pages.)
  SealableTrie shared, plain;
  run_long_random_model(GetParam(), shared, true);
  run_long_random_model(GetParam(), plain, false);
  EXPECT_EQ(shared.root_hash(), plain.root_hash());
  EXPECT_EQ(shared.stats(), plain.stats());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieModelTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

/// The deferred-commit trie against an always-eager reference: a
/// mirror trie whose root is recomputed after every single operation.
/// Both see the identical op sequence — sets, updates, seals — with
/// commits injected at random points on the deferred side only.  The
/// roots must be bit-identical at every comparison point.
class DeferredCommitTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeferredCommitTest, RootsMatchEagerReferenceAcrossRandomOps) {
  Rng rng(GetParam());
  SealableTrie deferred;
  SealableTrie eager;
  std::map<std::uint64_t, SpaceModel> model;
  const std::uint64_t kSpaces = 4;

  const auto eager_root = [&eager] {
    // Committing after every op is exactly the seed's eager behaviour.
    const Hash32 r = eager.root_hash();
    EXPECT_FALSE(eager.has_uncommitted());
    return r;
  };

  for (int step = 0; step < 2500; ++step) {
    const std::uint64_t space = rng.uniform_int(kSpaces);
    SpaceModel& m = model[space];
    const double action = rng.uniform();

    if (action < 0.5) {
      std::uint64_t seq = m.next_seq;
      if (rng.chance(0.25)) seq += rng.uniform_int(4);
      if (m.values.count(seq) > 0) continue;
      const std::uint64_t v = rng.next();
      deferred.set(seq_key(space, seq), val(v));
      eager.set(seq_key(space, seq), val(v));
      eager_root();
      m.values[seq] = v;
      m.next_seq = std::max(m.next_seq, seq + 1);
    } else if (action < 0.7) {
      // Interleaved seals: the deferred trie may seal entries whose
      // spine is still dirty from uncommitted sets.
      const std::uint64_t s = m.sealed_upto + 1;
      if (s >= m.watermark()) continue;
      deferred.seal(seq_key(space, s));
      eager.seal(seq_key(space, s));
      eager_root();
      m.sealed_upto = s;
    } else if (action < 0.85) {
      if (m.values.empty()) continue;
      auto it = m.values.upper_bound(m.sealed_upto);
      if (it == m.values.end()) continue;
      const std::uint64_t v = rng.next();
      deferred.set(seq_key(space, it->first), val(v));
      eager.set(seq_key(space, it->first), val(v));
      eager_root();
      it->second = v;
    } else if (action < 0.95) {
      // Commit the deferred trie at a random point mid-sequence.
      deferred.commit();
      EXPECT_FALSE(deferred.has_uncommitted());
      ASSERT_EQ(deferred.root_hash(), eager_root()) << "at step " << step;
    } else {
      // Stats stay consistent on both tries regardless of commits.
      ASSERT_NO_THROW(deferred.debug_check_stats()) << "at step " << step;
      ASSERT_NO_THROW(eager.debug_check_stats()) << "at step " << step;
    }
  }

  // Final comparison: roots bit-identical, proofs interchangeable.
  const Hash32 root = deferred.root_hash();
  ASSERT_EQ(root, eager_root());
  ASSERT_NO_THROW(deferred.debug_check_stats());
  EXPECT_EQ(deferred.stats().byte_size, eager.stats().byte_size);
  EXPECT_EQ(deferred.stats().sealed_refs, eager.stats().sealed_refs);
  for (const auto& [space, m] : model) {
    for (const auto& [seq, v] : m.values) {
      if (seq <= m.sealed_upto) continue;
      const Bytes key = seq_key(space, seq);
      const Proof proof = deferred.prove(key);
      const VerifyOutcome out = verify_proof(eager.root_hash(), key, proof);
      ASSERT_EQ(out.kind, VerifyOutcome::Kind::kFound);
      EXPECT_EQ(out.value, val(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeferredCommitTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace bmg::trie
