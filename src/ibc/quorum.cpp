#include "ibc/quorum.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/codec.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/sha256.hpp"

namespace bmg::ibc {

void ValidatorSet::invalidate() noexcept {
  hash_.reset();
  total_stake_.reset();
  index_.reset();
}

void ValidatorSet::add(crypto::PublicKey key, std::uint64_t stake) {
  validators_.push_back(ValidatorInfo{std::move(key), stake});
  invalidate();
}

std::uint64_t ValidatorSet::total_stake() const {
  if (!total_stake_) {
    std::uint64_t sum = 0;
    for (const auto& v : validators_) sum += v.stake;
    total_stake_ = sum;
  }
  return *total_stake_;
}

std::uint64_t ValidatorSet::quorum_stake() const { return total_stake() * 2 / 3 + 1; }

std::optional<std::uint64_t> ValidatorSet::stake_of(const crypto::PublicKey& key) const {
  if (!index_) {
    index_.emplace();
    index_->reserve(validators_.size());
    // emplace keeps the first entry on duplicate keys, matching the
    // linear scan this index replaced.
    for (const auto& v : validators_) index_->emplace(v.key, v.stake);
  }
  const auto it = index_->find(key);
  if (it == index_->end()) return std::nullopt;
  return it->second;
}

bool ValidatorSet::contains(const crypto::PublicKey& key) const {
  return stake_of(key).has_value();
}

Bytes ValidatorSet::encode() const {
  Encoder e(byte_size());
  encode_into(e);
  return e.take();
}

void ValidatorSet::encode_into(Encoder& e) const {
  e.reserve(byte_size());
  e.u32(static_cast<std::uint32_t>(validators_.size()));
  for (const auto& v : validators_) {
    e.raw(v.key.view());
    e.u64(v.stake);
  }
}

ValidatorSet ValidatorSet::decode(ByteView wire) {
  Decoder d(wire);
  const std::uint32_t n = d.u32();
  // Bound the allocation by the bytes actually present (40 per entry)
  // — a hostile length prefix must not trigger a huge reserve.
  if (n > d.remaining() / 40) throw CodecError("validator set: implausible count");
  std::vector<ValidatorInfo> vals;
  vals.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ValidatorInfo v;
    v.key = crypto::PublicKey(d.array<32>());
    v.stake = d.u64();
    vals.push_back(v);
  }
  d.expect_done();
  return ValidatorSet(std::move(vals));
}

const Hash32& ValidatorSet::hash() const {
  if (!hash_) hash_ = crypto::Sha256::digest(encode());
  return *hash_;
}

std::size_t ValidatorSet::byte_size() const noexcept {
  return 4 + 40 * validators_.size();  // u32 count + (32-byte key, u64 stake) each
}

Bytes QuorumHeader::encode() const {
  Encoder e(byte_size());
  encode_into(e);
  return e.take();
}

void QuorumHeader::encode_into(Encoder& e) const {
  e.reserve(byte_size());
  e.str(chain_id)
      .u64(height)
      .u64(static_cast<std::uint64_t>(timestamp * 1e6 + 0.5))
      .hash(state_root)
      .hash(validator_set_hash)
      .bytes(extra);
}

QuorumHeader QuorumHeader::decode(ByteView wire) {
  Decoder d(wire);
  QuorumHeader h;
  h.chain_id = d.str();
  h.height = d.u64();
  h.timestamp = static_cast<double>(d.u64()) / 1e6;
  h.state_root = d.hash();
  h.validator_set_hash = d.hash();
  h.extra = d.bytes();
  d.expect_done();
  return h;
}

Hash32 QuorumHeader::signing_digest() const { return crypto::Sha256::digest(encode()); }

std::size_t QuorumHeader::byte_size() const noexcept {
  // str/bytes carry a u32 length prefix; u64s are 8 bytes, hashes 32.
  return (4 + chain_id.size()) + 8 + 8 + 32 + 32 + (4 + extra.size());
}

Bytes SignedQuorumHeader::encode() const {
  Encoder e(byte_size());
  encode_into(e);
  return e.take();
}

void SignedQuorumHeader::encode_into(Encoder& e) const {
  e.reserve(byte_size());
  e.u32(static_cast<std::uint32_t>(header.byte_size()));
  header.encode_into(e);
  e.u32(static_cast<std::uint32_t>(signatures.size()));
  for (const auto& [key, sig] : signatures) {
    e.raw(key.view());
    e.raw(sig.view());
  }
  e.boolean(next_validators.has_value());
  if (next_validators) {
    e.u32(static_cast<std::uint32_t>(next_validators->byte_size()));
    next_validators->encode_into(e);
  }
}

SignedQuorumHeader SignedQuorumHeader::decode(ByteView wire) {
  Decoder d(wire);
  SignedQuorumHeader sh;
  sh.header = QuorumHeader::decode(d.bytes_view());
  const std::uint32_t n = d.u32();
  // Bound the reserve by the bytes actually present (96 per key and
  // signature): a hostile count fails as truncation.
  if (n > d.remaining() / 96) throw CodecError("decoder: truncated input");
  sh.signatures.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const crypto::PublicKey key(d.array<32>());
    sh.signatures.emplace_back(key, crypto::Signature(d.array<64>()));
  }
  if (d.boolean()) sh.next_validators = ValidatorSet::decode(d.bytes_view());
  d.expect_done();
  return sh;
}

std::size_t SignedQuorumHeader::byte_size() const noexcept {
  std::size_t n = 4 + header.byte_size();             // length-prefixed header blob
  n += 4 + signatures.size() * (32 + 64);             // count + (key, sig) pairs
  n += 1;                                             // next_validators flag
  if (next_validators) n += 4 + next_validators->byte_size();
  return n;
}

QuorumLightClient::QuorumLightClient(std::string chain_id, ValidatorSet genesis_validators)
    : chain_id_(std::move(chain_id)), validators_(std::move(genesis_validators)) {}

std::uint64_t QuorumLightClient::verify_signatures(const SignedQuorumHeader& sh,
                                                   const ValidatorSet& validators) {
  const Hash32 digest = sh.signing_digest();
  // First pass: membership and uniqueness, before paying for any curve
  // arithmetic.  A header failing these is rejected for free.
  std::uint64_t power = 0;
  std::unordered_set<crypto::PublicKey, crypto::PublicKeyHasher> seen;
  seen.reserve(sh.signatures.size());
  for (const auto& [key, sig] : sh.signatures) {
    if (!seen.insert(key).second) throw IbcError("quorum client: duplicate signer");
    const auto stake = validators.stake_of(key);
    if (!stake) throw IbcError("quorum client: signer not in validator set");
    power += *stake;
  }
  // Second pass: one batched verification over every signature — all
  // of them sign the same digest, the textbook batch-friendly shape.
  std::vector<crypto::ed25519::VerifyItem> items;
  items.reserve(sh.signatures.size());
  for (const auto& [key, sig] : sh.signatures)
    items.push_back({key.raw(), digest.view(), sig.raw()});
  const std::vector<bool> ok = crypto::ed25519::verify_batch(items);
  for (const bool good : ok)
    if (!good) throw IbcError("quorum client: invalid signature");
  return power;
}

void QuorumLightClient::apply(const SignedQuorumHeader& sh) {
  states_[sh.header.height] =
      ConsensusState{sh.header.state_root, sh.header.timestamp};
  latest_ = std::max(latest_, sh.header.height);
  if (sh.next_validators) validators_ = *sh.next_validators;
}

void QuorumLightClient::update(ByteView header) {
  if (frozen_) throw IbcError("quorum client: frozen on misbehaviour");
  const SignedQuorumHeader sh = SignedQuorumHeader::decode(header);
  if (sh.header.chain_id != chain_id_)
    throw IbcError("quorum client: wrong chain id");
  if (sh.header.height <= latest_)
    throw IbcError("quorum client: non-monotonic header height");
  if (sh.header.validator_set_hash != validators_.hash())
    throw IbcError("quorum client: header names an unknown validator set");
  if (sh.next_validators && sh.next_validators->empty())
    throw IbcError("quorum client: empty next validator set");
  const std::uint64_t power = verify_signatures(sh, validators_);
  if (power < validators_.quorum_stake())
    throw IbcError("quorum client: insufficient signing stake");
  apply(sh);
}

void QuorumLightClient::accept_verified(const SignedQuorumHeader& sh) {
  if (frozen_) throw IbcError("quorum client: frozen on misbehaviour");
  if (sh.header.chain_id != chain_id_)
    throw IbcError("quorum client: wrong chain id");
  if (sh.header.height <= latest_)
    throw IbcError("quorum client: non-monotonic header height");
  apply(sh);
}

std::optional<ConsensusState> QuorumLightClient::consensus_at(Height h) const {
  if (frozen_) return std::nullopt;  // frozen clients verify nothing
  const auto it = states_.find(h);
  if (it == states_.end()) return std::nullopt;
  return it->second;
}

void QuorumLightClient::submit_misbehaviour(const SignedQuorumHeader& a,
                                            const SignedQuorumHeader& b) {
  if (a.header.chain_id != chain_id_ || b.header.chain_id != chain_id_)
    throw IbcError("misbehaviour: wrong chain id");
  if (a.header.height != b.header.height)
    throw IbcError("misbehaviour: headers at different heights");
  if (a.signing_digest() == b.signing_digest())
    throw IbcError("misbehaviour: headers are identical");
  // Both must be properly finalised by the tracked validator set —
  // otherwise anyone could freeze the client with garbage.
  if (verify_signatures(a, validators_) < validators_.quorum_stake() ||
      verify_signatures(b, validators_) < validators_.quorum_stake())
    throw IbcError("misbehaviour: headers lack quorum signatures");
  frozen_ = true;
}

Height QuorumLightClient::latest_height() const { return latest_; }

}  // namespace bmg::ibc
