// Zero-copy view tests: every view must agree byte-for-byte with the
// owning decode on well-formed input, and throw CodecError (never UB)
// on every possible truncation of the wire bytes.
#include "ibc/views.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/codec.hpp"
#include "crypto/keys.hpp"

namespace bmg::ibc {
namespace {

ValidatorSet sample_validators(int n) {
  ValidatorSet vs;
  for (int i = 0; i < n; ++i)
    vs.add(crypto::PrivateKey::from_label("view-val-" + std::to_string(i)).public_key(),
           100 + static_cast<std::uint64_t>(i));
  return vs;
}

SignedQuorumHeader sample_signed_header(bool with_next) {
  SignedQuorumHeader sh;
  sh.header.chain_id = "viewchain";
  sh.header.height = 77;
  sh.header.timestamp = 55.25;
  sh.header.state_root.bytes[0] = 0xaa;
  sh.header.validator_set_hash.bytes[31] = 0xbb;
  sh.header.extra = Bytes{1, 2, 3};
  for (int i = 0; i < 4; ++i) {
    const auto key = crypto::PrivateKey::from_label("view-sig-" + std::to_string(i));
    sh.signatures.emplace_back(key.public_key(),
                               key.sign(sh.header.signing_digest().view()));
  }
  if (with_next) sh.next_validators = sample_validators(3);
  return sh;
}

/// Parses every strict prefix of `wire` and requires CodecError from
/// each; a single missing byte anywhere must be caught at parse().
template <typename View>
void expect_all_truncations_throw(const Bytes& wire) {
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_THROW((void)View::parse(ByteView{wire.data(), cut}), CodecError)
        << "prefix length " << cut << " of " << wire.size();
  }
}

// --- QuorumHeaderView ----------------------------------------------------

TEST(QuorumHeaderView, AgreesWithOwningDecode) {
  const QuorumHeader h = sample_signed_header(false).header;
  const Bytes wire = h.encode();
  const QuorumHeaderView v = QuorumHeaderView::parse(wire);

  EXPECT_EQ(v.chain_id, h.chain_id);
  EXPECT_EQ(v.height, h.height);
  EXPECT_DOUBLE_EQ(v.timestamp(), h.timestamp);
  EXPECT_EQ(v.state_root, h.state_root);
  EXPECT_EQ(v.validator_set_hash, h.validator_set_hash);
  EXPECT_EQ(Bytes(v.extra.begin(), v.extra.end()), h.extra);
  // Canonical codec: hashing the borrowed wire equals the owning
  // struct's signing digest.
  EXPECT_EQ(v.signing_digest(), h.signing_digest());
  EXPECT_EQ(v.to_owned(), h);
}

TEST(QuorumHeaderView, EveryTruncationThrows) {
  expect_all_truncations_throw<QuorumHeaderView>(
      sample_signed_header(false).header.encode());
}

// --- ValidatorSetView ----------------------------------------------------

TEST(ValidatorSetView, AgreesWithOwningDecode) {
  const ValidatorSet vs = sample_validators(5);
  const Bytes wire = vs.encode();
  const ValidatorSetView v = ValidatorSetView::parse(wire);

  ASSERT_EQ(v.count, vs.size());
  for (std::uint32_t i = 0; i < v.count; ++i) {
    const auto& entry = vs.entries()[i];
    EXPECT_EQ(std::memcmp(v.key_at(i).data(), entry.key.raw().data(), 32), 0);
    EXPECT_EQ(v.stake_at(i), entry.stake);
  }
  EXPECT_EQ(v.to_owned(), vs);
}

TEST(ValidatorSetView, EmptySet) {
  const ValidatorSet vs;
  const Bytes wire = vs.encode();  // views borrow: the buffer must outlive them
  const ValidatorSetView v = ValidatorSetView::parse(wire);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.to_owned(), vs);
}

TEST(ValidatorSetView, EveryTruncationThrows) {
  expect_all_truncations_throw<ValidatorSetView>(sample_validators(3).encode());
}

TEST(ValidatorSetView, ImplausibleCountThrows) {
  Encoder e;
  e.u32(0xffffffffu);  // claims 4B validators with no records
  EXPECT_THROW((void)ValidatorSetView::parse(e.out()), CodecError);
}

// --- SignedQuorumHeaderView ----------------------------------------------

TEST(SignedQuorumHeaderView, AgreesWithOwningDecode) {
  for (const bool with_next : {false, true}) {
    const SignedQuorumHeader sh = sample_signed_header(with_next);
    const Bytes wire = sh.encode();
    const SignedQuorumHeaderView v = SignedQuorumHeaderView::parse(wire);

    EXPECT_EQ(v.header.chain_id, sh.header.chain_id);
    EXPECT_EQ(v.header.height, sh.header.height);
    EXPECT_EQ(v.signing_digest(), sh.signing_digest());
    ASSERT_EQ(v.signature_count, sh.signatures.size());
    for (std::uint32_t i = 0; i < v.signature_count; ++i) {
      EXPECT_EQ(v.signer_at(i), sh.signatures[i].first);
      EXPECT_EQ(std::memcmp(v.signature_at(i).data(),
                            sh.signatures[i].second.raw().data(), 64),
                0);
    }
    EXPECT_EQ(v.next_validators.has_value(), with_next);
    if (with_next) {
      EXPECT_EQ(v.next_validators->to_owned(), *sh.next_validators);
    }

    const SignedQuorumHeader owned = v.to_owned();
    EXPECT_EQ(owned.encode(), wire);
  }
}

TEST(SignedQuorumHeaderView, EveryTruncationThrows) {
  expect_all_truncations_throw<SignedQuorumHeaderView>(
      sample_signed_header(false).encode());
  expect_all_truncations_throw<SignedQuorumHeaderView>(
      sample_signed_header(true).encode());
}

TEST(SignedQuorumHeaderView, CorruptedNestedLengthThrows) {
  const SignedQuorumHeader sh = sample_signed_header(false);
  Bytes wire = sh.encode();
  // The leading u32 is the embedded header blob length; inflating it
  // past the buffer must throw, not read out of bounds.
  wire[0] = 0xff;
  EXPECT_THROW((void)SignedQuorumHeaderView::parse(wire), CodecError);
}

TEST(SignedQuorumHeaderView, FlippedWireBitsNeverCrash) {
  // Byte-level fuzz: flipping any single byte either still parses
  // (value change only) or throws CodecError — never UB.  The mutated
  // length/count fields exercise the bounds checks.
  const Bytes base = sample_signed_header(true).encode();
  for (std::size_t i = 0; i < base.size(); ++i) {
    Bytes mutated = base;
    mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ 0xff);
    try {
      const auto v = SignedQuorumHeaderView::parse(mutated);
      (void)v.signing_digest();  // any successfully parsed view is usable
    } catch (const CodecError&) {
      // acceptable
    }
  }
}

}  // namespace
}  // namespace bmg::ibc
