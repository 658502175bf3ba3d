// Light-client header decoders on hostile bytes: QuorumHeader::decode,
// ValidatorSet::decode and SignedQuorumHeader::decode (with and without
// a next validator set) must throw CodecError, never crash or
// over-allocate, on every truncation, inflated length or count, and
// single-byte corruption of well-formed wire bytes.
#include "ibc/quorum.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/codec.hpp"
#include "crypto/keys.hpp"

namespace bmg::ibc {
namespace {

ValidatorSet sample_validators(int n) {
  ValidatorSet vs;
  for (int i = 0; i < n; ++i)
    vs.add(crypto::PrivateKey::from_label("codec-val-" + std::to_string(i)).public_key(),
           100 + static_cast<std::uint64_t>(i));
  return vs;
}

SignedQuorumHeader sample_signed_header(bool with_next) {
  SignedQuorumHeader sh;
  sh.header.chain_id = "codecchain";
  sh.header.height = 77;
  sh.header.timestamp = 55.25;
  sh.header.state_root.bytes[0] = 0xaa;
  sh.header.validator_set_hash.bytes[31] = 0xbb;
  sh.header.extra = Bytes{1, 2, 3};
  for (int i = 0; i < 4; ++i) {
    const auto key = crypto::PrivateKey::from_label("codec-sig-" + std::to_string(i));
    sh.signatures.emplace_back(key.public_key(),
                               key.sign(sh.header.signing_digest().view()));
  }
  if (with_next) sh.next_validators = sample_validators(3);
  return sh;
}

/// Decodes every strict prefix of `wire`; each must throw CodecError.
template <typename T>
void expect_all_truncations_throw(const Bytes& wire) {
  for (std::size_t cut = 0; cut < wire.size(); ++cut)
    EXPECT_THROW((void)T::decode(ByteView{wire.data(), cut}), CodecError)
        << "prefix length " << cut << " of " << wire.size();
}

/// Flips each byte of `wire` in turn: the decode either succeeds (a
/// value changed) or throws CodecError.  Any other exception escapes
/// and fails the test.
template <typename T>
void expect_flips_parse_or_throw(const Bytes& wire) {
  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes mutated = wire;
    mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ 0xff);
    try {
      (void)T::decode(mutated);
    } catch (const CodecError&) {
    }
  }
}

TEST(QuorumHeaderDecode, EveryTruncationThrows) {
  expect_all_truncations_throw<QuorumHeader>(sample_signed_header(false).header.encode());
}

TEST(QuorumHeaderDecode, FlippedBytesParseOrThrow) {
  expect_flips_parse_or_throw<QuorumHeader>(sample_signed_header(false).header.encode());
}

TEST(ValidatorSetDecode, EveryTruncationThrows) {
  expect_all_truncations_throw<ValidatorSet>(sample_validators(3).encode());
}

TEST(ValidatorSetDecode, FlippedBytesParseOrThrow) {
  expect_flips_parse_or_throw<ValidatorSet>(sample_validators(3).encode());
}

TEST(ValidatorSetDecode, EmptySetRoundTrips) {
  const ValidatorSet vs;
  const Bytes wire = vs.encode();
  const ValidatorSet back = ValidatorSet::decode(wire);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back, vs);
  EXPECT_EQ(back.encode(), wire);
}

TEST(ValidatorSetDecode, ImplausibleCountThrows) {
  // Four billion validators claimed, none present; and one more than
  // the records present.
  Encoder e;
  e.u32(0xffffffffu);
  EXPECT_THROW((void)ValidatorSet::decode(e.out()), CodecError);
  Bytes wire = sample_validators(3).encode();
  wire[3] = 4;
  EXPECT_THROW((void)ValidatorSet::decode(wire), CodecError);
}

TEST(SignedQuorumHeaderDecode, RoundTripsByteForByte) {
  for (const bool with_next : {false, true}) {
    const SignedQuorumHeader sh = sample_signed_header(with_next);
    const Bytes wire = sh.encode();
    const SignedQuorumHeader back = SignedQuorumHeader::decode(wire);
    EXPECT_EQ(back.header, sh.header);
    EXPECT_EQ(back.signatures, sh.signatures);
    EXPECT_EQ(back.next_validators, sh.next_validators);
    EXPECT_EQ(back.signing_digest(), sh.signing_digest());
    EXPECT_EQ(back.encode(), wire);
  }
}

TEST(SignedQuorumHeaderDecode, EveryTruncationThrows) {
  expect_all_truncations_throw<SignedQuorumHeader>(sample_signed_header(false).encode());
  expect_all_truncations_throw<SignedQuorumHeader>(sample_signed_header(true).encode());
}

TEST(SignedQuorumHeaderDecode, CorruptedNestedLengthThrows) {
  // The leading u32 is the nested header's length; inflating it past
  // the buffer must throw, not read out of bounds.
  Bytes wire = sample_signed_header(false).encode();
  wire[0] = 0xff;
  EXPECT_THROW((void)SignedQuorumHeader::decode(wire), CodecError);
  // Likewise the nested validator set's length, the u32 after the flag.
  const SignedQuorumHeader sh = sample_signed_header(true);
  wire = sh.encode();
  const std::size_t set_length_at = wire.size() - sh.next_validators->byte_size() - 4;
  wire[set_length_at] = 0xff;
  EXPECT_THROW((void)SignedQuorumHeader::decode(wire), CodecError);
}

TEST(SignedQuorumHeaderDecode, ImplausibleSignatureCountThrows) {
  // The signature count follows the length-prefixed header.  Claiming
  // four billion signatures, or one more than present, must fail as
  // truncation before anything is reserved.
  const SignedQuorumHeader sh = sample_signed_header(false);
  const std::size_t count_at = 4 + sh.header.byte_size();
  for (const std::uint8_t top : {std::uint8_t{0xff}, std::uint8_t{0x00}}) {
    Bytes wire = sh.encode();
    wire[count_at] = top;
    wire[count_at + 1] = top;
    wire[count_at + 2] = top;
    wire[count_at + 3] = top == 0 ? 5 : 0xff;
    EXPECT_THROW((void)SignedQuorumHeader::decode(wire), CodecError);
  }
}

TEST(SignedQuorumHeaderDecode, FlippedWireBitsParseOrThrow) {
  expect_flips_parse_or_throw<SignedQuorumHeader>(sample_signed_header(false).encode());
  expect_flips_parse_or_throw<SignedQuorumHeader>(sample_signed_header(true).encode());
}

}  // namespace
}  // namespace bmg::ibc
