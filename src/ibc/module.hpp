// The IBC protocol engine (ICS-2/3/4 core) a chain embeds.
//
// The module owns the chain's IBC state: light clients of
// counterparties, connection and channel ends, and the packet
// commitments / receipts / acknowledgements written into the chain's
// provable store (a SealableTrie).  It is chain-agnostic — the guest
// contract and the Tendermint-like counterparty both embed one — and
// passive: callers supply their own chain context (height, time)
// where the protocol needs it.
#pragma once

#include <functional>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/undo.hpp"
#include "ibc/client.hpp"
#include "ibc/commitment.hpp"
#include "ibc/handshake.hpp"
#include "ibc/packet.hpp"
#include "ibc/seq_tracker.hpp"
#include "trie/trie.hpp"

namespace bmg::ibc {

/// Application module bound to a port (ICS-5/25 surface).
class IbcApp {
 public:
  virtual ~IbcApp() = default;
  /// Handles a delivered packet; the returned ack is written on-chain.
  /// Throwing produces an error acknowledgement instead of aborting.
  virtual Acknowledgement on_recv_packet(const Packet& packet) = 0;
  /// Counterparty acknowledged `packet`.
  virtual void on_acknowledge(const Packet& packet, const Acknowledgement& ack) = 0;
  /// `packet` provably timed out.
  virtual void on_timeout(const Packet& packet) = 0;
};

/// What a chain commits about each of its light clients: the tracked
/// chain id and validator-set hash.  Counterparties verify this during
/// connection handshakes (validate_self_client — the check the paper's
/// footnote 2 calls out as left blank in NEAR-IBC).
struct ClientStateCommitment {
  std::string chain_id;
  Hash32 validator_set_hash{};

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static ClientStateCommitment decode(ByteView wire);
  [[nodiscard]] Hash32 commitment() const;

  friend bool operator==(const ClientStateCommitment&, const ClientStateCommitment&) =
      default;
};

/// How many sequences behind the receipt watermark acknowledgement
/// entries are sealed: they must stay provable until the relayer has
/// shipped them to the counterparty.
inline constexpr std::uint64_t kAckSealLag = 64;

class IbcModule {
 public:
  explicit IbcModule(trie::SealableTrie& store);

  /// Declares this chain's own identity: its chain id and a getter
  /// for the hash of its *current* validator set.  Once set, incoming
  /// connection handshakes must carry a provable counterparty client
  /// state naming this identity (validate_self_client); without it the
  /// validation is skipped (unit-test mode).
  void set_self_identity(std::string chain_id,
                         std::function<Hash32()> current_validator_set_hash);

  /// Records every later write into `undo` (null: none), but to the
  /// store, which its owner records, and to the clients.
  void set_undo(UndoRecorder* undo) noexcept { undo_ = undo; }

  // -- clients ---------------------------------------------------------
  /// Setup only: a client added inside a transaction is not recorded.
  ClientId add_client(std::unique_ptr<LightClient> client);
  [[nodiscard]] LightClient& client(const ClientId& id);
  [[nodiscard]] const LightClient& client(const ClientId& id) const;
  void update_client(const ClientId& id, ByteView header);
  /// Re-commits a client's state after it changed through a path that
  /// bypassed update_client (e.g. the guest contract's chunked
  /// accept_verified flow).
  void refresh_client_state(const ClientId& id) { store_client_state(id); }

  // -- connection handshake (ICS-3) -------------------------------------
  ConnectionId conn_open_init(const ClientId& client, const ClientId& counterparty_client);
  /// On chain B: proves A stored its end in INIT.  When this chain has
  /// a self identity, `counterparty_client_state` (with its membership
  /// proof at the same height) must show A's client really tracks this
  /// chain — chain id and current validator set (validate_self_client).
  ConnectionId conn_open_try(const ClientId& client, const ClientId& counterparty_client,
                             const ConnectionId& counterparty_connection,
                             const ConnectionEnd& counterparty_end, Height proof_height,
                             const trie::Proof& proof,
                             const std::optional<ClientStateCommitment>&
                                 counterparty_client_state = std::nullopt,
                             const trie::Proof& client_state_proof = {});
  /// On chain A: proves B stored its end in TRYOPEN (+ self-client
  /// validation as in conn_open_try).
  void conn_open_ack(const ConnectionId& connection,
                     const ConnectionId& counterparty_connection,
                     const ConnectionEnd& counterparty_end, Height proof_height,
                     const trie::Proof& proof,
                     const std::optional<ClientStateCommitment>&
                         counterparty_client_state = std::nullopt,
                     const trie::Proof& client_state_proof = {});
  /// On chain B: proves A stored its end in OPEN.
  void conn_open_confirm(const ConnectionId& connection,
                         const ConnectionEnd& counterparty_end, Height proof_height,
                         const trie::Proof& proof);

  // -- channel handshake (ICS-4) ----------------------------------------
  ChannelId chan_open_init(const PortId& port, const ConnectionId& connection,
                           const PortId& counterparty_port);
  ChannelId chan_open_try(const PortId& port, const ConnectionId& connection,
                          const PortId& counterparty_port,
                          const ChannelId& counterparty_channel,
                          const ChannelEnd& counterparty_end, Height proof_height,
                          const trie::Proof& proof);
  void chan_open_ack(const PortId& port, const ChannelId& channel,
                     const ChannelId& counterparty_channel,
                     const ChannelEnd& counterparty_end, Height proof_height,
                     const trie::Proof& proof);
  void chan_open_confirm(const PortId& port, const ChannelId& channel,
                         const ChannelEnd& counterparty_end, Height proof_height,
                         const trie::Proof& proof);

  // -- packet flow (ICS-4, unordered channels) ---------------------------
  /// Commits an outgoing packet; returns it with the assigned sequence
  /// and destination filled in from the channel end.
  Packet send_packet(const PortId& port, const ChannelId& channel, Bytes data,
                     Height timeout_height, Timestamp timeout_timestamp);

  /// Delivers an incoming packet: verifies the commitment proof
  /// against the connection's light client, guards double delivery,
  /// invokes the bound app, writes receipt + ack.  `self_height` and
  /// `self_time` are this chain's current block context (timeout
  /// enforcement on the receiving side).
  Acknowledgement recv_packet(const Packet& packet, Height proof_height,
                              const trie::Proof& proof, Height self_height,
                              Timestamp self_time);

  /// Processes an acknowledgement for a packet this chain sent.
  void acknowledge_packet(const Packet& packet, const Acknowledgement& ack,
                          Height proof_height, const trie::Proof& proof);

  /// Proves the packet was never delivered before its timeout and
  /// releases it (refunds etc. via the app callback): the proof shows
  /// the *absence* of the counterparty's receipt.
  void timeout_packet(const Packet& packet, Height proof_height,
                      const trie::Proof& receipt_absence_proof);

  // -- apps ---------------------------------------------------------------
  void bind_port(const PortId& port, IbcApp* app);

  /// Off-chain observer notified of every packet this module commits
  /// (what a relayer's event subscription sees).
  void set_packet_listener(std::function<void(const Packet&)> listener) {
    packet_listener_ = std::move(listener);
  }

  // -- introspection (used by relayers and tests) --------------------------
  [[nodiscard]] const ConnectionEnd& connection(const ConnectionId& id) const;
  [[nodiscard]] const ChannelEnd& channel(const PortId& port, const ChannelId& id) const;
  [[nodiscard]] std::uint64_t next_send_sequence(const PortId& port,
                                                 const ChannelId& id) const;
  [[nodiscard]] trie::SealableTrie& store() noexcept { return store_; }
  [[nodiscard]] const trie::SealableTrie& store() const noexcept { return store_; }

  /// True if the receipt for (port, channel, seq) exists (live or sealed).
  [[nodiscard]] bool packet_received(const PortId& port, const ChannelId& channel,
                                     std::uint64_t seq) const;
  /// True if the commitment for an outgoing packet is still pending
  /// (not yet acked or timed out).
  [[nodiscard]] bool packet_pending(const PortId& port, const ChannelId& channel,
                                    std::uint64_t seq) const;

  // -- resync / audit surface ---------------------------------------------
  // A crash-restarted relayer rebuilds its in-memory queues from these
  // queries alone (the "scan on-chain state" half of IBC's
  // any-party-can-relay guarantee); the invariant auditor walks the
  // same surface every block.

  /// Every (port, channel) pair this module has channel state for.
  [[nodiscard]] std::vector<std::pair<PortId, ChannelId>> channels() const;

  /// Outgoing sequences whose commitment is still unresolved (sent,
  /// not yet acked or timed out), in increasing sequence order.
  [[nodiscard]] std::vector<std::uint64_t> pending_send_sequences(
      const PortId& port, const ChannelId& channel) const;

  /// Full packet body for an unresolved outgoing sequence (the
  /// event-log lookup a restarted relayer replays; entries are pruned
  /// once the packet is acked or timed out).  Null when resolved or
  /// never sent.
  [[nodiscard]] const Packet* sent_packet(const PortId& port, const ChannelId& channel,
                                          std::uint64_t seq) const;

  /// The acknowledgement this chain wrote when it delivered (port,
  /// channel, seq); nullopt if not delivered yet.
  [[nodiscard]] std::optional<Acknowledgement> ack_for(const PortId& port,
                                                       const ChannelId& channel,
                                                       std::uint64_t seq) const;

  /// Per-channel sequence counters and seq-tracker watermarks (the
  /// auditor's monotonicity surface).
  struct ChannelSequences {
    std::uint64_t next_send = 1;
    std::uint64_t resolved_watermark = 0;
    std::uint64_t receipts_watermark = 0;
    std::uint64_t acks_watermark = 0;
  };
  [[nodiscard]] ChannelSequences sequences(const PortId& port,
                                           const ChannelId& channel) const;

 private:
  struct ChannelRecord {
    ChannelEnd end;
    std::uint64_t next_send = 1;
    SeqTracker resolved_commitments;  ///< acked or timed-out outgoing packets
    SeqTracker receipts;              ///< delivered incoming packets
    SeqTracker acks{kAckSealLag};     ///< written acknowledgements (lagged sealing)
  };

  [[nodiscard]] ChannelRecord& channel_record(const PortId& port, const ChannelId& id);
  [[nodiscard]] const ChannelRecord& channel_record(const PortId& port,
                                                    const ChannelId& id) const;

  /// Verifies a membership/non-membership proof against the consensus
  /// state that `connection`'s client has for `proof_height`.
  void verify_membership(const ConnectionEnd& conn, Height proof_height,
                         const trie::Proof& proof, ByteView key, const Hash32& value,
                         const char* what) const;
  void verify_non_membership(const ConnectionEnd& conn, Height proof_height,
                             const trie::Proof& proof, ByteView key,
                             const char* what) const;
  [[nodiscard]] ConsensusState consensus_for(const ConnectionEnd& conn,
                                             Height proof_height,
                                             const char* what) const;

  void store_connection(const ConnectionId& id, const ConnectionEnd& end);
  void store_channel(const PortId& port, const ChannelId& id, const ChannelEnd& end);
  void seal_resolved(const PortId& port, const ChannelId& id, ChannelRecord& rec);

  [[nodiscard]] IbcApp& app_for(const PortId& port);

  void store_client_state(const ClientId& id);
  /// validate_self_client: checks a proven counterparty client state
  /// against this chain's declared identity.
  void validate_self_client(const ConnectionEnd& conn_for_proof, Height proof_height,
                            const ClientId& counterparty_client,
                            const std::optional<ClientStateCommitment>& claimed,
                            const trie::Proof& proof) const;

  std::string self_chain_id_;
  std::function<Hash32()> self_validator_set_hash_;

  trie::SealableTrie& store_;
  std::function<void(const Packet&)> packet_listener_;
  std::map<ClientId, std::unique_ptr<LightClient>> clients_;
  std::map<ConnectionId, ConnectionEnd> connections_;
  std::map<std::pair<PortId, ChannelId>, ChannelRecord> channels_;
  /// Unresolved outgoing packet bodies (pruned on ack / timeout) and
  /// written acknowledgements, keyed by (port, channel, seq).
  std::map<std::tuple<PortId, ChannelId, std::uint64_t>, Packet> sent_packets_;
  std::map<std::tuple<PortId, ChannelId, std::uint64_t>, Acknowledgement> ack_log_;
  std::map<PortId, IbcApp*> apps_;
  std::uint64_t next_client_ = 0;
  std::uint64_t next_connection_ = 0;
  std::uint64_t next_channel_ = 0;
  UndoRecorder* undo_ = nullptr;
};

}  // namespace bmg::ibc
