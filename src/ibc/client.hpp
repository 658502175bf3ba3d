// ICS-2: light clients.
//
// A light client lives on chain A and tracks chain B's consensus: it
// verifies B's headers and stores (height -> state root, timestamp)
// consensus states that packet proofs are checked against.  Concrete
// verifiers are provided by the chain libraries: the guest light
// client (quorum of guest validators, src/guest) and the
// Tendermint-like client (2/3 stake commit, src/counterparty).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "ibc/types.hpp"

namespace bmg::ibc {

/// What a light client remembers about one verified counterparty block.
struct ConsensusState {
  Hash32 state_root{};
  Timestamp timestamp = 0;
};

class LightClient {
 public:
  virtual ~LightClient() = default;

  /// Verifies an encoded counterparty header (+ attached signatures)
  /// and stores its consensus state.  Throws IbcError on invalid
  /// updates.
  virtual void update(ByteView header) = 0;

  [[nodiscard]] virtual std::optional<ConsensusState> consensus_at(Height h) const = 0;
  [[nodiscard]] virtual Height latest_height() const = 0;

  /// Identifier of the client algorithm ("guest", "tendermint", ...).
  [[nodiscard]] virtual std::string client_type() const = 0;

  /// Chain id this client tracks (for client-state commitments and
  /// self-client validation during connection handshakes).
  [[nodiscard]] virtual std::string tracked_chain_id() const { return {}; }
  /// Hash of the validator set this client currently trusts.
  [[nodiscard]] virtual Hash32 tracked_validator_set_hash() const { return {}; }

  /// Independent deep copy (IbcModule::checkpoint): updating either
  /// client never changes the other.
  [[nodiscard]] virtual std::unique_ptr<LightClient> clone() const = 0;
};

/// Trivial client for unit tests: accepts pre-seeded consensus states
/// without verification.
class TrustingLightClient final : public LightClient {
 public:
  void update(ByteView) override {
    throw IbcError("trusting client: use seed() in tests");
  }
  void seed(Height h, const ConsensusState& cs) {
    states_[h] = cs;
    latest_ = std::max(latest_, h);
  }
  [[nodiscard]] std::optional<ConsensusState> consensus_at(Height h) const override {
    const auto it = states_.find(h);
    if (it == states_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] Height latest_height() const override { return latest_; }
  [[nodiscard]] std::string client_type() const override { return "trusting"; }
  [[nodiscard]] std::unique_ptr<LightClient> clone() const override {
    return std::make_unique<TrustingLightClient>(*this);
  }

 private:
  std::map<Height, ConsensusState> states_;
  Height latest_ = 0;
};

}  // namespace bmg::ibc
