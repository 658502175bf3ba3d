// Connection (ICS-3) and channel (ICS-4) ends and their commitments.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "ibc/types.hpp"

namespace bmg::ibc {

enum class ConnectionState : std::uint8_t { kInit = 1, kTryOpen = 2, kOpen = 3 };

struct ConnectionEnd {
  ConnectionState state = ConnectionState::kInit;
  /// Light client (of the counterparty chain) this connection runs over.
  ClientId client_id;
  /// Counterparty's connection identifier (empty until learned).
  ConnectionId counterparty_connection;
  /// Counterparty's client identifier (for self-client validation).
  ClientId counterparty_client_id;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static ConnectionEnd decode(ByteView wire);
  /// Value stored in the provable store at connection_key().
  [[nodiscard]] Hash32 commitment() const;

  friend bool operator==(const ConnectionEnd&, const ConnectionEnd&) = default;
};

enum class ChannelState : std::uint8_t { kInit = 1, kTryOpen = 2, kOpen = 3 };

/// ICS-4 order byte of an unordered channel, the only kind this stack
/// opens: the paper deploys one unordered ICS-20 channel, which
/// delivers packets in any order and guards replays with receipts.
/// Channel ends and the guest's ChanOpenInit instruction data still
/// carry the byte; their decoders reject any other value.
inline constexpr std::uint8_t kUnorderedChannel = 1;

struct ChannelEnd {
  ChannelState state = ChannelState::kInit;
  ConnectionId connection;
  PortId counterparty_port;
  ChannelId counterparty_channel;  ///< empty until learned

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static ChannelEnd decode(ByteView wire);
  [[nodiscard]] Hash32 commitment() const;

  friend bool operator==(const ChannelEnd&, const ChannelEnd&) = default;
};

}  // namespace bmg::ibc
