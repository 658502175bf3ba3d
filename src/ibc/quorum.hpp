// Stake-weighted quorum headers and the light client that verifies
// them (ICS-2 concrete client).
//
// Both chains in the reproduction finalise blocks with a quorum of
// stake-weighted validator signatures: the guest blockchain via its
// Proof-of-Stake Sign procedure (paper §III-B), and the Tendermint-
// like counterparty via its per-block commit.  A single header format
// and light client covers both — mirroring the paper's observation
// (§VI-D) that the guest chain's simple light client could even
// replace heavier host clients.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/undo.hpp"
#include "crypto/keys.hpp"
#include "ibc/client.hpp"
#include "ibc/types.hpp"

namespace bmg {
class Encoder;
}

namespace bmg::ibc {

struct ValidatorInfo {
  crypto::PublicKey key;
  std::uint64_t stake = 0;

  friend bool operator==(const ValidatorInfo&, const ValidatorInfo&) = default;
};

/// The stake-weighted validator set of one chain.
///
/// Encapsulated so the hot light-client path can cache what it keeps
/// re-deriving: the set hash (one SHA-256 of the full encoding), the
/// total stake, and a key→stake index.  All three are built lazily on
/// first use and invalidated by the mutators, so a set that is built
/// once and read per-header (the common case) pays each cost once.
class ValidatorSet {
 public:
  ValidatorSet() = default;
  explicit ValidatorSet(std::vector<ValidatorInfo> validators)
      : validators_(std::move(validators)) {}

  [[nodiscard]] const std::vector<ValidatorInfo>& entries() const noexcept {
    return validators_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return validators_.size(); }
  [[nodiscard]] bool empty() const noexcept { return validators_.empty(); }

  /// Appends one validator.  Invalidates the caches.
  void add(crypto::PublicKey key, std::uint64_t stake);

  [[nodiscard]] std::uint64_t total_stake() const;
  /// Stake strictly required to finalise: > 2/3 of total.
  [[nodiscard]] std::uint64_t quorum_stake() const;
  [[nodiscard]] std::optional<std::uint64_t> stake_of(const crypto::PublicKey& key) const;
  [[nodiscard]] bool contains(const crypto::PublicKey& key) const;

  [[nodiscard]] Bytes encode() const;
  void encode_into(Encoder& e) const;
  [[nodiscard]] static ValidatorSet decode(ByteView wire);
  [[nodiscard]] const Hash32& hash() const;
  /// Serialized size, computed arithmetically (no encode).
  [[nodiscard]] std::size_t byte_size() const noexcept;

  friend bool operator==(const ValidatorSet& a, const ValidatorSet& b) {
    return a.validators_ == b.validators_;
  }

 private:
  void invalidate() noexcept;

  std::vector<ValidatorInfo> validators_;
  mutable std::optional<Hash32> hash_;
  mutable std::optional<std::uint64_t> total_stake_;
  mutable std::optional<
      std::unordered_map<crypto::PublicKey, std::uint64_t, crypto::PublicKeyHasher>>
      index_;
};

/// A block header as seen by light clients.
struct QuorumHeader {
  std::string chain_id;
  Height height = 0;
  Timestamp timestamp = 0;
  Hash32 state_root{};
  /// Hash of the validator set that signs this header.
  Hash32 validator_set_hash{};
  /// Chain-specific extra data folded into the signing digest (the
  /// guest chain puts prev-block hash and host height here).
  Bytes extra;

  [[nodiscard]] Bytes encode() const;
  /// Appends the wire encoding to `e` (exactly `byte_size()` bytes).
  void encode_into(Encoder& e) const;
  [[nodiscard]] static QuorumHeader decode(ByteView wire);
  /// What validators sign.
  [[nodiscard]] Hash32 signing_digest() const;
  /// Serialized size, computed arithmetically (no encode).
  [[nodiscard]] std::size_t byte_size() const noexcept;

  friend bool operator==(const QuorumHeader&, const QuorumHeader&) = default;
};

/// A header plus the signatures that finalise it, and (on epoch
/// boundaries) the full next validator set.
struct SignedQuorumHeader {
  QuorumHeader header;
  std::vector<std::pair<crypto::PublicKey, crypto::Signature>> signatures;
  /// Present when the validator set rotates at this header.
  std::optional<ValidatorSet> next_validators;

  [[nodiscard]] Bytes encode() const;
  void encode_into(Encoder& e) const;
  /// Keys and signatures are read in place off the wire; a signature
  /// count larger than the bytes present throws CodecError before
  /// anything is reserved.
  [[nodiscard]] static SignedQuorumHeader decode(ByteView wire);
  /// Serialized size — what a relayer must ship on-chain.  Computed
  /// arithmetically from the wire format; never allocates.
  [[nodiscard]] std::size_t byte_size() const noexcept;
  /// `header.signing_digest()`.
  [[nodiscard]] Hash32 signing_digest() const { return header.signing_digest(); }
};

/// Light client verifying quorum headers of one counterparty chain.
class QuorumLightClient final : public LightClient {
 public:
  QuorumLightClient(std::string chain_id, ValidatorSet genesis_validators);

  /// One-shot verification (used where compute is unconstrained, e.g.
  /// the counterparty chain verifying guest headers): decodes the
  /// signed header, checks it against the tracked validator set, then
  /// applies it.
  void update(ByteView header) override;

  /// Applies a header whose quorum signatures were *already verified
  /// externally* — the guest contract path, where signatures go
  /// through the host's Ed25519 pre-compile across several
  /// transactions (§IV, §V-A).
  void accept_verified(const SignedQuorumHeader& signed_header);

  [[nodiscard]] std::optional<ConsensusState> consensus_at(Height h) const override;
  [[nodiscard]] Height latest_height() const override;
  [[nodiscard]] std::string client_type() const override { return "quorum"; }
  [[nodiscard]] std::string tracked_chain_id() const override { return chain_id_; }
  [[nodiscard]] Hash32 tracked_validator_set_hash() const override {
    return validators_.hash();
  }
  /// Records every later update and freeze into `undo` (null: none).
  void set_undo(UndoRecorder* undo) noexcept { undo_ = undo; }

  [[nodiscard]] const ValidatorSet& validators() const noexcept { return validators_; }
  [[nodiscard]] const std::string& chain_id() const noexcept { return chain_id_; }

  /// Verifies quorum signatures over a header against `validators`.
  /// Returns the verified stake; throws IbcError on any bad signature
  /// or signer not in the set.
  [[nodiscard]] static std::uint64_t verify_signatures(const SignedQuorumHeader& sh,
                                                       const ValidatorSet& validators);

  /// ICS-2 misbehaviour: two quorum-signed headers at the same height
  /// with different digests prove the counterparty forked.  A frozen
  /// client rejects all further updates and all proof verification
  /// (consensus_at returns nothing) until governance intervenes.
  void submit_misbehaviour(const SignedQuorumHeader& a, const SignedQuorumHeader& b);
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

 private:
  void apply(const SignedQuorumHeader& sh);

  std::string chain_id_;
  ValidatorSet validators_;
  std::map<Height, ConsensusState> states_;
  Height latest_ = 0;
  bool frozen_ = false;
  UndoRecorder* undo_ = nullptr;
};

}  // namespace bmg::ibc
