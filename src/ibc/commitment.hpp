// Commitment keys and values stored in a chain's provable store.
//
// Keys are fixed-width and *monotonic in the sequence number* within
// each (port, channel, kind) subspace:
//
//   [8-byte subspace tag = sha256(domain)[0..8]] [1-byte kind] [8-byte seq]
//
// Fixed width makes the key set prefix-free (a trie requirement), and
// monotonicity makes sealing safe: as long as the newest entry of a
// subspace stays unsealed, inserting the next sequence number can
// never route into a sealed subtree (interval property — see
// DESIGN.md and trie tests).
//
// Keys are built per store access on the hot path, so they are a plain
// 17-byte stack value (`CommitmentKey`, convertible to ByteView) and
// the subspace tag — the one SHA-256 in the construction — is memoised
// per (port, channel) in a thread-local cache.  Building a key for a
// warm subspace touches no heap and hashes nothing.
#pragma once

#include <array>

#include "common/bytes.hpp"
#include "ibc/types.hpp"

namespace bmg::ibc {

enum class KeyKind : std::uint8_t {
  kPacketCommitment = 0x01,  ///< sender side: packet sent
  kPacketReceipt = 0x02,     ///< receiver side: packet delivered
  kPacketAck = 0x03,         ///< receiver side: acknowledgement written
  kChannel = 0x10,           ///< channel end commitment (seq = 0)
  kConnection = 0x11,        ///< connection end commitment (seq = 0)
  kClientState = 0x12,       ///< light client state commitment (seq = 0)
};

/// A fixed-width store key as a stack value.  Converts implicitly to
/// ByteView, which every store/proof interface takes.
class CommitmentKey {
 public:
  static constexpr std::size_t kSize = 8 + 1 + 8;

  CommitmentKey() = default;
  CommitmentKey(const Hash32& domain_tag, KeyKind kind, std::uint64_t sequence);

  [[nodiscard]] const std::uint8_t* data() const noexcept { return buf_.data(); }
  [[nodiscard]] static constexpr std::size_t size() noexcept { return kSize; }
  [[nodiscard]] ByteView view() const noexcept { return {buf_.data(), kSize}; }
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate — keys are views.
  operator ByteView() const noexcept { return view(); }
  [[nodiscard]] Bytes to_bytes() const { return Bytes(buf_.begin(), buf_.end()); }

  friend bool operator==(const CommitmentKey&, const CommitmentKey&) = default;

 private:
  std::array<std::uint8_t, kSize> buf_{};
};

/// Key for per-packet entries.
[[nodiscard]] CommitmentKey packet_key(KeyKind kind, const PortId& port,
                                       const ChannelId& channel,
                                       std::uint64_t sequence);

/// Key for a channel end commitment.
[[nodiscard]] CommitmentKey channel_key(const PortId& port, const ChannelId& channel);

/// Key for a connection end commitment.
[[nodiscard]] CommitmentKey connection_key(const ConnectionId& connection);

/// Key for a light client's state commitment.
[[nodiscard]] CommitmentKey client_key(const ClientId& client);

}  // namespace bmg::ibc
