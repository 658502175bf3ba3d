#include "guest/instructions.hpp"

#include <stdexcept>
#include <string>

#include "host/constants.hpp"
#include "host/program.hpp"

namespace bmg::guest::ix {

namespace {
host::Instruction make(Op op, Bytes payload) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(op));
  e.raw(payload);
  return host::Instruction{kProgramName, e.take()};
}

host::Instruction buffer_op(Op op, std::uint64_t buffer_id) {
  Encoder e;
  e.u64(buffer_id);
  return make(op, e.take());
}
}  // namespace

host::Instruction generate_block() { return make(Op::kGenerateBlock, {}); }

host::Instruction sign_block(ibc::Height height, const crypto::PublicKey& validator) {
  Encoder e;
  e.u64(height).raw(validator.view());
  return make(Op::kSign, e.take());
}

host::Instruction send_packet(const ibc::PortId& port, const ibc::ChannelId& channel,
                              ByteView data, ibc::Height timeout_height,
                              ibc::Timestamp timeout_timestamp) {
  Encoder e;
  e.str(port).str(channel).bytes(data).u64(timeout_height).u64(
      static_cast<std::uint64_t>(timeout_timestamp * 1e6 + 0.5));
  return make(Op::kSendPacket, e.take());
}

host::Instruction send_transfer(const ibc::ChannelId& channel, const std::string& denom,
                                std::uint64_t amount, const std::string& sender,
                                const std::string& receiver, ibc::Height timeout_height,
                                ibc::Timestamp timeout_timestamp) {
  Encoder e;
  e.str(channel).str(denom).u64(amount).str(sender).str(receiver).u64(timeout_height).u64(
      static_cast<std::uint64_t>(timeout_timestamp * 1e6 + 0.5));
  return make(Op::kSendTransfer, e.take());
}

host::Instruction chunk_upload(std::uint64_t buffer_id, std::uint32_t offset,
                               ByteView data) {
  Encoder e;
  e.u64(buffer_id).u32(offset).bytes(data);
  return make(Op::kChunkUpload, e.take());
}

host::Instruction receive_packet(std::uint64_t buffer_id) {
  return buffer_op(Op::kReceivePacket, buffer_id);
}
host::Instruction acknowledge_packet(std::uint64_t buffer_id) {
  return buffer_op(Op::kAcknowledgePacket, buffer_id);
}
host::Instruction timeout_packet(std::uint64_t buffer_id) {
  return buffer_op(Op::kTimeoutPacket, buffer_id);
}
host::Instruction begin_client_update(std::uint64_t buffer_id) {
  return buffer_op(Op::kBeginClientUpdate, buffer_id);
}
host::Instruction verify_update_signatures() {
  return make(Op::kVerifyUpdateSignatures, {});
}
host::Instruction finish_client_update() { return make(Op::kFinishClientUpdate, {}); }

host::Instruction stake(std::uint64_t lamports) {
  Encoder e;
  e.u64(lamports);
  return make(Op::kStake, e.take());
}

host::Instruction unstake(std::uint64_t lamports) {
  Encoder e;
  e.u64(lamports);
  return make(Op::kUnstake, e.take());
}

host::Instruction withdraw_stake() { return make(Op::kWithdrawStake, {}); }

host::Instruction submit_evidence(std::uint64_t buffer_id) {
  return buffer_op(Op::kSubmitEvidence, buffer_id);
}

host::Instruction handshake(std::uint64_t buffer_id) {
  return buffer_op(Op::kHandshake, buffer_id);
}

host::Instruction freeze_client(std::uint64_t buffer_id) {
  return buffer_op(Op::kFreezeClient, buffer_id);
}

host::Instruction self_destruct() { return make(Op::kSelfDestruct, {}); }

std::size_t max_chunk_bytes(std::size_t max_tx_size) {
  // Envelope + op tag + buffer id + offset + length prefix.
  constexpr std::size_t kOverhead = host::kTxEnvelopeBytes + 8 + 1 + 8 + 4 + 4 + 16;
  // No room for a byte: chunking would never advance, or would wrap.
  if (max_tx_size <= kOverhead)
    throw std::invalid_argument("chunk_payload: max_tx_size " + std::to_string(max_tx_size) +
                                " leaves no room past the " + std::to_string(kOverhead) +
                                "-byte chunk overhead");
  return max_tx_size - kOverhead;
}

std::vector<Bytes> chunk_payload(ByteView blob, std::size_t max_tx_size) {
  const std::size_t chunk = max_chunk_bytes(max_tx_size);
  std::vector<Bytes> out;
  for (std::size_t off = 0; off < blob.size(); off += chunk) {
    const std::size_t len = std::min(chunk, blob.size() - off);
    out.emplace_back(blob.begin() + static_cast<std::ptrdiff_t>(off),
                     blob.begin() + static_cast<std::ptrdiff_t>(off + len));
  }
  if (out.empty()) out.emplace_back();
  return out;
}

std::vector<host::Transaction> staged_call(const crypto::PublicKey& payer,
                                           const host::FeePolicy& fee,
                                           std::uint64_t buffer_id, ByteView payload,
                                           host::Instruction final_ix,
                                           const std::string& label,
                                           const std::string& chunk_label,
                                           std::size_t max_tx_size) {
  std::vector<host::Transaction> txs;
  std::uint32_t offset = 0;
  for (const Bytes& chunk : chunk_payload(payload, max_tx_size)) {
    host::Transaction tx;
    tx.payer = payer;
    tx.fee = fee;
    tx.label = chunk_label;
    tx.instructions.push_back(chunk_upload(buffer_id, offset, chunk));
    offset += static_cast<std::uint32_t>(chunk.size());
    txs.push_back(std::move(tx));
  }
  host::Transaction fin;
  fin.payer = payer;
  fin.fee = fee;
  fin.label = label;
  fin.instructions.push_back(std::move(final_ix));
  txs.push_back(std::move(fin));
  return txs;
}

Bytes client_update_payload(const ibc::SignedQuorumHeader& sh) {
  // Sized exactly and encoded in place.
  Encoder e(4 + sh.header.byte_size() + 1 +
            (sh.next_validators ? 4 + sh.next_validators->byte_size() : 0));
  e.u32(static_cast<std::uint32_t>(sh.header.byte_size()));
  sh.header.encode_into(e);
  e.boolean(sh.next_validators.has_value());
  if (sh.next_validators) {
    e.u32(static_cast<std::uint32_t>(sh.next_validators->byte_size()));
    sh.next_validators->encode_into(e);
  }
  return e.take();
}

ClientUpdate decode_client_update(ByteView payload) {
  Decoder d(payload);
  ClientUpdate u;
  u.header = ibc::QuorumHeader::decode(d.bytes_view());
  if (d.boolean()) u.next_validators = ibc::ValidatorSet::decode(d.bytes_view());
  d.expect_done();
  return u;
}

Bytes packet_proof_payload(const ibc::Packet& packet, const ibc::Acknowledgement* ack,
                           ibc::Height proof_height, const trie::Proof& proof) {
  const std::size_t proof_size = proof.byte_size();
  Encoder e(4 + packet.wire_size() + (ack != nullptr ? 4 + ack->wire_size() : 0) + 8 +
            4 + proof_size);
  e.u32(static_cast<std::uint32_t>(packet.wire_size()));
  packet.encode_into(e);
  if (ack != nullptr) {
    e.u32(static_cast<std::uint32_t>(ack->wire_size()));
    ack->encode_into(e);
  }
  e.u64(proof_height);
  e.u32(static_cast<std::uint32_t>(proof_size));
  proof.serialize_into(e);
  return e.take();
}

PacketProof decode_packet_proof(ByteView payload, bool with_ack) {
  Decoder d(payload);
  PacketProof p;
  p.packet = ibc::Packet::decode(d.bytes_view());
  if (with_ack) p.ack = ibc::Acknowledgement::decode(d.bytes_view());
  p.proof_height = d.u64();
  p.proof = trie::Proof::deserialize(d.bytes_view());
  d.expect_done();
  return p;
}

Bytes evidence_payload(const Evidence& evidence) {
  Encoder e;
  e.raw(evidence.offender.view());
  e.u8(static_cast<std::uint8_t>(evidence.headers.size()));
  for (const ibc::QuorumHeader& h : evidence.headers) {
    e.u32(static_cast<std::uint32_t>(h.byte_size()));
    h.encode_into(e);
  }
  for (const crypto::Signature& sig : evidence.signatures) e.raw(sig.view());
  return e.take();
}

Evidence decode_evidence(ByteView payload) {
  Decoder d(payload);
  Evidence ev;
  ev.offender = crypto::PublicKey(d.array<32>());
  const std::uint8_t count = d.u8();
  if (count != 1 && count != 2) throw host::TxError("evidence: need 1 or 2 headers");
  for (std::uint8_t i = 0; i < count; ++i)
    ev.headers.push_back(ibc::QuorumHeader::decode(d.bytes_view()));
  if (!d.done())
    for (std::uint8_t i = 0; i < count; ++i) ev.signatures.emplace_back(d.array<64>());
  d.expect_done();
  return ev;
}

}  // namespace bmg::guest::ix
