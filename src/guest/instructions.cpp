#include "guest/instructions.hpp"

#include <stdexcept>
#include <string>

#include "host/constants.hpp"

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

}  // namespace bmg::guest::ix
