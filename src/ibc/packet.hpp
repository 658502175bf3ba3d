// IBC packets (ICS-4).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "ibc/types.hpp"

namespace bmg {
class Encoder;
}

namespace bmg::ibc {

struct Packet {
  std::uint64_t sequence = 0;
  PortId source_port;
  ChannelId source_channel;
  PortId dest_port;
  ChannelId dest_channel;
  Bytes data;
  /// Packet times out if not received before this destination height
  /// (0 = no height timeout) ...
  Height timeout_height = 0;
  /// ... or before this destination timestamp (0 = no time timeout).
  Timestamp timeout_timestamp = 0;

  [[nodiscard]] Bytes encode() const;
  /// Appends the wire encoding to `e` (exactly `wire_size()` bytes) —
  /// lets payload builders inline the packet without a temporary.
  void encode_into(Encoder& e) const;
  /// Serialized size, computed arithmetically (no encode).
  [[nodiscard]] std::size_t wire_size() const noexcept;
  [[nodiscard]] static Packet decode(ByteView wire);

  /// The value committed on the sender chain:
  /// sha256(timeout_height || timeout_timestamp || sha256(data)).
  [[nodiscard]] Hash32 commitment() const;

  friend bool operator==(const Packet&, const Packet&) = default;
};

/// Standard acknowledgement envelope: success with app bytes, or error
/// with a reason string.
struct Acknowledgement {
  bool success = false;
  Bytes result;       ///< app-defined, on success
  std::string error;  ///< reason, on failure

  [[nodiscard]] Bytes encode() const;
  void encode_into(Encoder& e) const;
  [[nodiscard]] std::size_t wire_size() const noexcept;
  [[nodiscard]] static Acknowledgement decode(ByteView wire);
  [[nodiscard]] Hash32 commitment() const;

  [[nodiscard]] static Acknowledgement ok(Bytes result = {});
  [[nodiscard]] static Acknowledgement fail(std::string reason);

  friend bool operator==(const Acknowledgement&, const Acknowledgement&) = default;
};

}  // namespace bmg::ibc
