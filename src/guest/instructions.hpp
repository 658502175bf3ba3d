// Instruction encoding for the Guest Contract.
//
// Everything an off-chain actor (client, validator, relayer,
// fisherman) does goes through these host-chain instructions.  Large
// payloads (light client updates, packets with proofs, evidence) do
// not fit in one 1232-byte host transaction, so they are first
// uploaded in chunks into a per-payer staging buffer and then
// consumed by the operation that references the buffer — the
// mechanism the paper's implementation uses on Solana (§IV).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "host/transaction.hpp"
#include "ibc/packet.hpp"
#include "ibc/quorum.hpp"
#include "ibc/types.hpp"
#include "trie/node.hpp"

namespace bmg::guest {

/// Program name under which the Guest Contract registers on the host.
inline constexpr const char* kProgramName = "guest";

enum class Op : std::uint8_t {
  kGenerateBlock = 1,
  kSign = 2,
  kSendPacket = 3,
  kChunkUpload = 4,
  kReceivePacket = 5,
  kBeginClientUpdate = 6,
  kVerifyUpdateSignatures = 7,
  kFinishClientUpdate = 8,
  kStake = 9,
  kUnstake = 10,
  kWithdrawStake = 11,
  kSubmitEvidence = 12,
  kHandshake = 13,
  kSendTransfer = 14,
  kAcknowledgePacket = 15,
  kTimeoutPacket = 16,
  /// §VI-C: freeze the counterparty light client with fork evidence.
  kFreezeClient = 17,
  /// §VI-A: wind the guest chain down after prolonged stall.
  kSelfDestruct = 18,
};

/// The guest initiates every handshake, so it runs only the
/// initiator's two steps of each; the counterparty runs TRY and
/// CONFIRM.  The values keep the wire bytes of the full eight-step
/// numbering.
enum class HandshakeOp : std::uint8_t {
  kConnOpenInit = 1,
  kConnOpenAck = 3,
  kChanOpenInit = 5,
  kChanOpenAck = 7,
};

namespace ix {

[[nodiscard]] host::Instruction generate_block();
[[nodiscard]] host::Instruction sign_block(ibc::Height height,
                                           const crypto::PublicKey& validator);
[[nodiscard]] host::Instruction send_packet(const ibc::PortId& port,
                                            const ibc::ChannelId& channel, ByteView data,
                                            ibc::Height timeout_height,
                                            ibc::Timestamp timeout_timestamp);
[[nodiscard]] host::Instruction send_transfer(const ibc::ChannelId& channel,
                                              const std::string& denom,
                                              std::uint64_t amount,
                                              const std::string& sender,
                                              const std::string& receiver,
                                              ibc::Height timeout_height,
                                              ibc::Timestamp timeout_timestamp);
[[nodiscard]] host::Instruction chunk_upload(std::uint64_t buffer_id, std::uint32_t offset,
                                             ByteView data);
[[nodiscard]] host::Instruction receive_packet(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction acknowledge_packet(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction timeout_packet(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction begin_client_update(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction verify_update_signatures();
[[nodiscard]] host::Instruction finish_client_update();
[[nodiscard]] host::Instruction stake(std::uint64_t lamports);
[[nodiscard]] host::Instruction unstake(std::uint64_t lamports);
[[nodiscard]] host::Instruction withdraw_stake();
[[nodiscard]] host::Instruction submit_evidence(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction handshake(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction freeze_client(std::uint64_t buffer_id);
[[nodiscard]] host::Instruction self_destruct();

/// Splits `blob` into chunks that fit a host transaction alongside the
/// ChunkUpload framing.  `max_tx_size` defaults to Solana's limit.
/// Throws std::invalid_argument if the framing leaves no room for a
/// byte (see max_chunk_bytes).
[[nodiscard]] std::vector<Bytes> chunk_payload(
    ByteView blob, std::size_t max_tx_size = host::kMaxTransactionSize);

/// Bytes of buffer payload that fit in one chunk-upload transaction.
/// Throws std::invalid_argument if `max_tx_size` is at or below the
/// framing's 241 bytes.
[[nodiscard]] std::size_t max_chunk_bytes(
    std::size_t max_tx_size = host::kMaxTransactionSize);

/// The transactions of one staged call: `payload` chunk-uploaded into
/// staging buffer `buffer_id` (labelled `chunk_label`), then `final_ix`,
/// which consumes the buffer (labelled `label`), all paid by `payer` at
/// `fee`.
[[nodiscard]] std::vector<host::Transaction> staged_call(
    const crypto::PublicKey& payer, const host::FeePolicy& fee, std::uint64_t buffer_id,
    ByteView payload, host::Instruction final_ix, const std::string& label,
    const std::string& chunk_label, std::size_t max_tx_size = host::kMaxTransactionSize);

// --- staged payloads ------------------------------------------------------
// Each payload an actor stages for a buffer-consuming instruction has
// one encoder and one decoder, here.  Decoders throw CodecError on
// malformed bytes.

/// BeginClientUpdate: a counterparty header and, when the validator set
/// rotates at it, the next set.  The signatures travel separately, as
/// pre-compile verifications.
struct ClientUpdate {
  ibc::QuorumHeader header;
  std::optional<ibc::ValidatorSet> next_validators;
};
[[nodiscard]] Bytes client_update_payload(const ibc::SignedQuorumHeader& sh);
[[nodiscard]] ClientUpdate decode_client_update(ByteView payload);

/// ReceivePacket and TimeoutPacket (no acknowledgement) and
/// AcknowledgePacket (with one): a packet and the proof, at
/// `proof_height` on the counterparty, that it was sent, received or
/// acknowledged there.
struct PacketProof {
  ibc::Packet packet;
  std::optional<ibc::Acknowledgement> ack;
  ibc::Height proof_height = 0;
  trie::Proof proof;
};
[[nodiscard]] Bytes packet_proof_payload(const ibc::Packet& packet,
                                         const ibc::Acknowledgement* ack,
                                         ibc::Height proof_height, const trie::Proof& proof);
[[nodiscard]] PacketProof decode_packet_proof(ByteView payload, bool with_ack);

/// SubmitEvidence: the offender, the one or two guest headers it signed,
/// and optionally the annex, its signature over each header.  The
/// contract trusts only pre-compile-verified signatures; the annex makes
/// the staged blob self-contained, so a fisherman restarting after a
/// crash can rebuild the verification set from chain state alone.
struct Evidence {
  crypto::PublicKey offender;
  std::vector<ibc::QuorumHeader> headers;
  /// Empty, or one signature per header.
  std::vector<crypto::Signature> signatures;
};
[[nodiscard]] Bytes evidence_payload(const Evidence& evidence);
/// Also throws host::TxError("evidence: need 1 or 2 headers"), the
/// contract's rejection, when the header count is neither.
[[nodiscard]] Evidence decode_evidence(ByteView payload);

}  // namespace ix
}  // namespace bmg::guest
