#include "ibc/views.hpp"

#include <cstring>

#include "common/codec.hpp"
#include "crypto/sha256.hpp"

namespace bmg::ibc {

namespace {
[[nodiscard]] std::uint64_t read_u64_be(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}
}  // namespace

QuorumHeaderView QuorumHeaderView::parse(ByteView wire) {
  Decoder d(wire);
  QuorumHeaderView v;
  v.chain_id = d.str_view();
  v.height = d.u64();
  v.timestamp_micros = d.u64();
  v.state_root = d.hash();
  v.validator_set_hash = d.hash();
  v.extra = d.bytes_view();
  d.expect_done();
  v.wire = wire;
  return v;
}

Hash32 QuorumHeaderView::signing_digest() const {
  return crypto::Sha256::digest(wire);
}

QuorumHeader QuorumHeaderView::to_owned() const {
  QuorumHeader h;
  h.chain_id = std::string(chain_id);
  h.height = height;
  h.timestamp = timestamp();
  h.state_root = state_root;
  h.validator_set_hash = validator_set_hash;
  h.extra = Bytes(extra.begin(), extra.end());
  return h;
}

ValidatorSetView ValidatorSetView::parse(ByteView wire) {
  Decoder d(wire);
  ValidatorSetView v;
  v.count = d.u32();
  // Same plausibility bound as the owning decode: the count must be
  // covered by bytes actually present (40 per entry).
  if (v.count > d.remaining() / 40)
    throw CodecError("validator set: implausible count");
  v.records = d.view(std::size_t{40} * v.count);
  d.expect_done();
  v.wire = wire;
  return v;
}

std::uint64_t ValidatorSetView::stake_at(std::uint32_t i) const noexcept {
  return read_u64_be(records.data() + std::size_t{40} * i + 32);
}

ValidatorSet ValidatorSetView::to_owned() const {
  std::vector<ValidatorInfo> vals;
  vals.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ValidatorInfo v;
    crypto::ed25519::PublicKeyBytes pk;
    const ByteView key = key_at(i);
    std::memcpy(pk.data(), key.data(), pk.size());
    v.key = crypto::PublicKey(pk);
    v.stake = stake_at(i);
    vals.push_back(v);
  }
  return ValidatorSet(std::move(vals));
}

SignedQuorumHeaderView SignedQuorumHeaderView::parse(ByteView wire) {
  Decoder d(wire);
  SignedQuorumHeaderView v;
  v.header = QuorumHeaderView::parse(d.bytes_view());
  v.signature_count = d.u32();
  // Bound before the multiply, mirroring the validator-set guard: a
  // hostile count must fail as truncation, not wrap the subspan math.
  if (v.signature_count > d.remaining() / 96)
    throw CodecError("decoder: truncated input");
  v.signatures = d.view(std::size_t{96} * v.signature_count);
  if (d.boolean()) v.next_validators = ValidatorSetView::parse(d.bytes_view());
  d.expect_done();
  v.wire = wire;
  return v;
}

crypto::PublicKey SignedQuorumHeaderView::signer_at(std::uint32_t i) const noexcept {
  crypto::ed25519::PublicKeyBytes pk;
  std::memcpy(pk.data(), signatures.data() + std::size_t{96} * i, pk.size());
  return crypto::PublicKey(pk);
}

SignedQuorumHeader SignedQuorumHeaderView::to_owned() const {
  SignedQuorumHeader sh;
  sh.header = header.to_owned();
  sh.signatures.reserve(signature_count);
  for (std::uint32_t i = 0; i < signature_count; ++i) {
    crypto::ed25519::SignatureBytes sig;
    const ByteView s = signature_at(i);
    std::memcpy(sig.data(), s.data(), sig.size());
    sh.signatures.emplace_back(signer_at(i), crypto::Signature(sig));
  }
  if (next_validators) sh.next_validators = next_validators->to_owned();
  return sh;
}

}  // namespace bmg::ibc
