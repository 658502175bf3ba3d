// ICS-2: light clients.
//
// A light client lives on chain A and tracks chain B's consensus: it
// verifies B's headers and stores (height -> state root, timestamp)
// consensus states that packet proofs are checked against.  Both
// chains use the one concrete client, QuorumLightClient
// (ibc/quorum.hpp), which accepts a header signed by more than 2/3 of
// the tracked validators' stake: the guest validators on the
// counterparty, the counterparty's validators on the guest.
#pragma once

#include <cstdint>
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
};

}  // namespace bmg::ibc
