#include "ibc/quorum.hpp"

#include "ibc/packet.hpp"

#include <gtest/gtest.h>

namespace bmg::ibc {
namespace {

using crypto::PrivateKey;

ValidatorSet make_set(int n, std::uint64_t stake_each = 100) {
  ValidatorSet set;
  for (int i = 0; i < n; ++i)
    set.add(PrivateKey::from_label("qv-" + std::to_string(i)).public_key(), stake_each);
  return set;
}

QuorumHeader make_header(Height h, const ValidatorSet& set) {
  QuorumHeader hd;
  hd.chain_id = "testchain";
  hd.height = h;
  hd.timestamp = 10.0 * static_cast<double>(h);
  hd.state_root.bytes[0] = static_cast<std::uint8_t>(h);
  hd.validator_set_hash = set.hash();
  return hd;
}

SignedQuorumHeader sign_header(const QuorumHeader& hd, int n_signers) {
  SignedQuorumHeader sh;
  sh.header = hd;
  const Hash32 digest = hd.signing_digest();
  for (int i = 0; i < n_signers; ++i) {
    const PrivateKey k = PrivateKey::from_label("qv-" + std::to_string(i));
    sh.signatures.emplace_back(k.public_key(), k.sign(digest.view()));
  }
  return sh;
}

TEST(ValidatorSetTest, StakeArithmetic) {
  const ValidatorSet set = make_set(4, 100);
  EXPECT_EQ(set.total_stake(), 400u);
  EXPECT_EQ(set.quorum_stake(), 267u);  // > 2/3
  EXPECT_TRUE(set.contains(set.entries()[0].key));
  EXPECT_EQ(set.stake_of(set.entries()[2].key), 100u);
  EXPECT_FALSE(set.stake_of(PrivateKey::from_label("outsider").public_key()));
}

TEST(ValidatorSetTest, EncodeDecodeAndHash) {
  const ValidatorSet set = make_set(5, 77);
  EXPECT_EQ(ValidatorSet::decode(set.encode()), set);
  std::vector<ValidatorInfo> tweaked = set.entries();
  tweaked[0].stake = 78;
  const ValidatorSet other(std::move(tweaked));
  EXPECT_NE(set.hash(), other.hash());
}

TEST(QuorumHeaderTest, RoundTripAndDigest) {
  const ValidatorSet set = make_set(3);
  QuorumHeader h = make_header(7, set);
  h.extra = bytes_of("extra-data");
  EXPECT_EQ(QuorumHeader::decode(h.encode()), h);
  QuorumHeader h2 = h;
  h2.extra = bytes_of("tampered");
  EXPECT_NE(h.signing_digest(), h2.signing_digest());
}

TEST(SignedHeaderTest, RoundTripWithNextValidators) {
  const ValidatorSet set = make_set(3);
  SignedQuorumHeader sh = sign_header(make_header(1, set), 3);
  sh.next_validators = make_set(4);
  const SignedQuorumHeader back = SignedQuorumHeader::decode(sh.encode());
  EXPECT_EQ(back.header, sh.header);
  EXPECT_EQ(back.signatures.size(), 3u);
  ASSERT_TRUE(back.next_validators.has_value());
  EXPECT_EQ(*back.next_validators, *sh.next_validators);
  EXPECT_EQ(sh.byte_size(), sh.encode().size());
}

TEST(QuorumClient, AcceptsQuorumSignedHeader) {
  const ValidatorSet set = make_set(4);
  QuorumLightClient client("testchain", set);
  client.update(sign_header(make_header(1, set), 3).encode());  // 300 >= 267
  EXPECT_EQ(client.latest_height(), 1u);
  const auto cs = client.consensus_at(1);
  ASSERT_TRUE(cs.has_value());
  EXPECT_EQ(cs->state_root.bytes[0], 1);
  EXPECT_DOUBLE_EQ(cs->timestamp, 10.0);
}

TEST(QuorumClient, RejectsInsufficientStake) {
  const ValidatorSet set = make_set(4);
  QuorumLightClient client("testchain", set);
  EXPECT_THROW(client.update(sign_header(make_header(1, set), 2).encode()), IbcError);
}

TEST(QuorumClient, RejectsBadSignature) {
  const ValidatorSet set = make_set(4);
  QuorumLightClient client("testchain", set);
  SignedQuorumHeader sh = sign_header(make_header(1, set), 3);
  auto raw = sh.signatures[0].second.raw();
  raw[5] ^= 1;
  sh.signatures[0].second = crypto::Signature(raw);
  EXPECT_THROW(client.update(sh.encode()), IbcError);
}

TEST(QuorumClient, RejectsOutsideSigner) {
  const ValidatorSet set = make_set(4);
  QuorumLightClient client("testchain", set);
  SignedQuorumHeader sh = sign_header(make_header(1, set), 2);
  const PrivateKey outsider = PrivateKey::from_label("outsider");
  sh.signatures.emplace_back(outsider.public_key(),
                             outsider.sign(sh.header.signing_digest().view()));
  EXPECT_THROW(client.update(sh.encode()), IbcError);
}

TEST(QuorumClient, RejectsDuplicateSigner) {
  const ValidatorSet set = make_set(4);
  QuorumLightClient client("testchain", set);
  SignedQuorumHeader sh = sign_header(make_header(1, set), 2);
  sh.signatures.push_back(sh.signatures[0]);  // double-count stake
  EXPECT_THROW(client.update(sh.encode()), IbcError);
}

TEST(QuorumClient, RejectsWrongChainId) {
  const ValidatorSet set = make_set(4);
  QuorumLightClient client("otherchain", set);
  EXPECT_THROW(client.update(sign_header(make_header(1, set), 3).encode()), IbcError);
}

TEST(QuorumClient, RejectsNonMonotonicHeight) {
  const ValidatorSet set = make_set(4);
  QuorumLightClient client("testchain", set);
  client.update(sign_header(make_header(5, set), 3).encode());
  EXPECT_THROW(client.update(sign_header(make_header(5, set), 3).encode()), IbcError);
  EXPECT_THROW(client.update(sign_header(make_header(4, set), 3).encode()), IbcError);
}

TEST(QuorumClient, RejectsUnknownValidatorSetHash) {
  const ValidatorSet set = make_set(4);
  QuorumLightClient client("testchain", set);
  QuorumHeader h = make_header(1, make_set(9));  // wrong set hash
  EXPECT_THROW(client.update(sign_header(h, 3).encode()), IbcError);
}

TEST(QuorumClient, ValidatorSetRotation) {
  const ValidatorSet genesis = make_set(4);
  QuorumLightClient client("testchain", genesis);

  // Header 1 rotates to a new set of signers "rot-*".
  ValidatorSet next;
  for (int i = 0; i < 3; ++i)
    next.add(PrivateKey::from_label("rot-" + std::to_string(i)).public_key(), 50);
  SignedQuorumHeader sh1 = sign_header(make_header(1, genesis), 3);
  sh1.next_validators = next;
  client.update(sh1.encode());
  EXPECT_EQ(client.validators(), next);

  // Header 2 must now be signed by the *new* set.
  QuorumHeader h2 = make_header(2, next);
  SignedQuorumHeader sh2;
  sh2.header = h2;
  for (int i = 0; i < 3; ++i) {
    const PrivateKey k = PrivateKey::from_label("rot-" + std::to_string(i));
    sh2.signatures.emplace_back(k.public_key(), k.sign(h2.signing_digest().view()));
  }
  client.update(sh2.encode());
  EXPECT_EQ(client.latest_height(), 2u);

  // Old-set signatures no longer validate.
  SignedQuorumHeader stale = sign_header(make_header(3, genesis), 3);
  EXPECT_THROW(client.update(stale.encode()), IbcError);
}

TEST(QuorumClient, AcceptVerifiedSkipsSignatureCheck) {
  const ValidatorSet set = make_set(4);
  QuorumLightClient client("testchain", set);
  SignedQuorumHeader sh;
  sh.header = make_header(1, set);  // no signatures at all
  client.accept_verified(sh);
  EXPECT_EQ(client.latest_height(), 1u);
}

TEST(QuorumHeaderTest, DigestStableAcrossCodecRoundTrip) {
  // Regression: timestamps that are not exactly representable in
  // binary (e.g. 40.14 s) must survive encode/decode without changing
  // the signing digest, or relayed headers would invalidate every
  // validator signature.
  const ValidatorSet set = make_set(3);
  for (double ts : {40.14, 0.1, 1234.000001, 86399.999999, 3.3333333}) {
    QuorumHeader h = make_header(1, set);
    h.timestamp = ts;
    const QuorumHeader back = QuorumHeader::decode(h.encode());
    EXPECT_EQ(back.signing_digest(), h.signing_digest()) << ts;
  }
}

TEST(QuorumHeaderTest, PacketCommitmentStableAcrossCodecRoundTrip) {
  Packet p;
  p.sequence = 1;
  p.source_port = p.dest_port = "transfer";
  p.source_channel = p.dest_channel = "channel-0";
  p.data = bytes_of("x");
  p.timeout_timestamp = 123.456789;
  const Packet back = Packet::decode(p.encode());
  EXPECT_EQ(back.commitment(), p.commitment());
  EXPECT_EQ(back.encode(), p.encode());
}

TEST(QuorumClient, MisbehaviourFreezesAndBlocksProofs) {
  const ValidatorSet set = make_set(4);
  QuorumLightClient client("testchain", set);
  client.update(sign_header(make_header(1, set), 3).encode());
  ASSERT_TRUE(client.consensus_at(1).has_value());

  QuorumHeader fork = make_header(5, set);
  fork.state_root.bytes[5] = 0x77;
  client.submit_misbehaviour(sign_header(make_header(5, set), 3),
                             sign_header(fork, 3));
  EXPECT_TRUE(client.frozen());
  // Updates rejected, existing consensus withheld.
  EXPECT_THROW(client.update(sign_header(make_header(6, set), 3).encode()), IbcError);
  EXPECT_FALSE(client.consensus_at(1).has_value());
}

TEST(QuorumClient, MisbehaviourRequiresQuorumOnBothHeaders) {
  const ValidatorSet set = make_set(4);
  QuorumLightClient client("testchain", set);
  QuorumHeader fork = make_header(5, set);
  fork.state_root.bytes[5] = 0x77;
  EXPECT_THROW(client.submit_misbehaviour(sign_header(make_header(5, set), 1),
                                          sign_header(fork, 3)),
               IbcError);
  EXPECT_FALSE(client.frozen());
}

TEST(QuorumClient, MisbehaviourRequiresSameHeightDistinctDigest) {
  const ValidatorSet set = make_set(4);
  QuorumLightClient client("testchain", set);
  EXPECT_THROW(client.submit_misbehaviour(sign_header(make_header(5, set), 3),
                                          sign_header(make_header(6, set), 3)),
               IbcError);
  const auto same = sign_header(make_header(5, set), 3);
  EXPECT_THROW(client.submit_misbehaviour(same, same), IbcError);
  EXPECT_FALSE(client.frozen());
}

TEST(QuorumClient, VerifySignaturesReturnsPower) {
  const ValidatorSet set = make_set(5, 10);
  const SignedQuorumHeader sh = sign_header(make_header(1, set), 4);
  EXPECT_EQ(QuorumLightClient::verify_signatures(sh, set), 40u);
}

TEST(QuorumClient, ExactQuorumBoundaryStake) {
  // Uneven stakes chosen so a signer subset can land exactly on the
  // quorum threshold and exactly one unit below it.
  ValidatorSet set;
  const std::uint64_t stakes[] = {266, 1, 133};  // total 400, quorum 267
  for (int i = 0; i < 3; ++i)
    set.add(PrivateKey::from_label("qv-" + std::to_string(i)).public_key(), stakes[i]);
  ASSERT_EQ(set.quorum_stake(), 267u);

  // 266 + 1 == 267: exactly at threshold, must be accepted.
  {
    QuorumLightClient client("testchain", set);
    client.update(sign_header(make_header(1, set), 2).encode());
    EXPECT_EQ(client.latest_height(), 1u);
  }
  // 266 alone: one below threshold, must be rejected.
  {
    QuorumLightClient client("testchain", set);
    EXPECT_THROW(client.update(sign_header(make_header(1, set), 1).encode()), IbcError);
  }
}

TEST(ValidatorSetTest, CachesInvalidateOnMutation) {
  ValidatorSet set = make_set(3, 100);
  const Hash32 h0 = set.hash();
  EXPECT_EQ(set.total_stake(), 300u);
  const crypto::PublicKey newcomer = PrivateKey::from_label("late").public_key();
  EXPECT_FALSE(set.contains(newcomer));  // builds the index

  set.add(newcomer, 50);
  EXPECT_NE(set.hash(), h0);
  EXPECT_EQ(set.total_stake(), 350u);
  EXPECT_EQ(set.stake_of(newcomer), 50u);
}

TEST(ValidatorSetTest, ByteSizeMatchesEncoding) {
  for (int n : {0, 1, 7}) {
    const ValidatorSet set = make_set(n);
    EXPECT_EQ(set.byte_size(), set.encode().size()) << n;
  }
}

TEST(SignedHeaderTest, ByteSizeMatchesEncodingWithoutNextValidators) {
  const ValidatorSet set = make_set(3);
  QuorumHeader hd = make_header(2, set);
  hd.extra = bytes_of("epoch-extra");
  const SignedQuorumHeader sh = sign_header(hd, 3);
  EXPECT_EQ(sh.byte_size(), sh.encode().size());
  EXPECT_EQ(hd.byte_size(), hd.encode().size());
}

}  // namespace
}  // namespace bmg::ibc
