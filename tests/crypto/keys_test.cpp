#include "crypto/keys.hpp"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "rfc8032_vectors.hpp"

namespace bmg::crypto {
namespace {

// The wrapper caches the expanded key, so pin its output to RFC 8032.
TEST(Keys, FromSeedMatchesRfc8032) {
  for (const auto& v : rfc8032::kVectors) {
    const Bytes seed_b = from_hex(v.seed_hex);
    ed25519::Seed seed{};
    std::copy(seed_b.begin(), seed_b.end(), seed.begin());
    const PrivateKey k = PrivateKey::from_seed(seed);
    EXPECT_EQ(k.public_key().hex(), v.pub_hex) << v.name;
    EXPECT_EQ(k.sign(from_hex(v.msg_hex)).hex(), v.sig_hex) << v.name;
  }
}

TEST(Keys, LabelDerivationIsDeterministic) {
  const PrivateKey a = PrivateKey::from_label("validator-1");
  const PrivateKey b = PrivateKey::from_label("validator-1");
  EXPECT_EQ(a.public_key(), b.public_key());
}

TEST(Keys, DistinctLabelsDistinctKeys) {
  std::unordered_set<PublicKey, PublicKeyHasher> seen;
  for (int i = 0; i < 50; ++i) {
    const PrivateKey k = PrivateKey::from_label("validator-" + std::to_string(i));
    EXPECT_TRUE(seen.insert(k.public_key()).second) << i;
  }
}

TEST(Keys, SignVerifyRoundTrip) {
  const PrivateKey k = PrivateKey::from_label("signer");
  const Bytes msg = bytes_of("guest block 42");
  const Signature sig = k.sign(msg);
  EXPECT_TRUE(verify(k.public_key(), msg, sig));
  EXPECT_FALSE(verify(PrivateKey::from_label("other").public_key(), msg, sig));
}

// A commit's signers in one call: element i is key i's own signature,
// and an empty commit gives none.
TEST(Keys, SignAllMatchesSign) {
  std::vector<PrivateKey> keys;
  for (int i = 0; i < 11; ++i)
    keys.push_back(PrivateKey::from_label("commit-" + std::to_string(i)));
  std::vector<const PrivateKey*> ptrs;
  for (const PrivateKey& k : keys) ptrs.push_back(&k);
  const Bytes msg = bytes_of("commit digest");
  const std::vector<Signature> sigs = sign_all(ptrs, msg);
  ASSERT_EQ(sigs.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(sigs[i], keys[i].sign(msg)) << i;
  EXPECT_TRUE(sign_all({}, msg).empty());
}

TEST(Keys, ShortIdIsPrefixOfHex) {
  const PrivateKey k = PrivateKey::from_label("x");
  EXPECT_EQ(k.public_key().short_id(), k.public_key().hex().substr(0, 8));
  EXPECT_EQ(k.public_key().hex().size(), 64u);
}

TEST(Keys, OrderingIsTotal) {
  const PublicKey a = PrivateKey::from_label("a").public_key();
  const PublicKey b = PrivateKey::from_label("b").public_key();
  EXPECT_NE(a, b);
  EXPECT_TRUE((a < b) != (b < a));
}

}  // namespace
}  // namespace bmg::crypto
