#include "guest/contract.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

namespace bmg::guest {

namespace {
/// Coarse compute-unit charges for in-contract work (trie updates are
/// sequences of metered sha256 syscalls on the real deployment).
constexpr std::uint64_t kCuBlockOps = 30'000;
constexpr std::uint64_t kCuSignOps = 25'000;
constexpr std::uint64_t kCuSendPacket = 60'000;
constexpr std::uint64_t kCuRecvBase = 90'000;
constexpr std::uint64_t kCuStakeOps = 15'000;

/// Least stake that makes a candidate eligible for the validator set.
constexpr std::uint64_t kMinStakeLamports = 1;
/// collect_fees() of Alg. 1 — flat guest-layer fee per sent packet.
constexpr std::uint64_t kSendFeeLamports = 50'000;
/// Share of slashed stake awarded to the reporting fisherman.
constexpr double kSlashReporterFraction = 0.5;
}  // namespace

GuestContract::GuestContract(GuestConfig cfg,
                             std::vector<ibc::ValidatorInfo> genesis_validators,
                             std::string counterparty_chain_id,
                             ibc::ValidatorSet counterparty_validators)
    : cfg_(std::move(cfg)),
      module_(store_),
      transfer_(module_, bank_, "transfer"),
      treasury_(crypto::PrivateKey::from_label(cfg_.chain_id + ":treasury").public_key()),
      vault_(crypto::PrivateKey::from_label(cfg_.chain_id + ":stake-vault").public_key()),
      burn_(crypto::PrivateKey::from_label(cfg_.chain_id + ":burn").public_key()) {
  // Light client of the counterparty, embedded in the contract.
  auto client = std::make_unique<ibc::QuorumLightClient>(
      std::move(counterparty_chain_id), std::move(counterparty_validators));
  counterparty_client_ = client.get();
  counterparty_client_id_ = module_.add_client(std::move(client));
  module_.set_self_identity(cfg_.chain_id, [this] { return epoch_->hash(); });

  // Genesis validators are pre-staked candidates.
  for (const auto& v : genesis_validators) candidates_[v.key] = Candidate{v.stake};
  epoch_ = std::make_shared<const ibc::ValidatorSet>(select_validators());
  if (epoch_->empty())
    throw std::invalid_argument("guest contract: empty genesis validator set");

  // Genesis block: height 0, finalised by construction.
  GuestBlock genesis = GuestBlock::make(cfg_.chain_id, 0, 0.0, store_.root_hash(),
                                        Hash32{}, 0, epoch_);
  genesis.finalised = true;
  push_block(std::move(genesis));
  snapshots_[0] = store_.snapshot();
}

GuestContract::~GuestContract() = default;

// --- undo records -------------------------------------------------------------

void GuestContract::save_store() {
  if (!recording(undo_) || store_slot_ == undo_->slot()) return;
  // Snapshots published since keep their nodes alive, so they stay
  // readable after the clone moves back in.
  undo_->record([this, old = std::make_shared<trie::SealableTrie>(store_.clone()),
                 slot = store_slot_] {
    store_ = std::move(*old);
    store_slot_ = slot;
  });
  store_slot_ = undo_->slot();
}

void GuestContract::push_block(GuestBlock block) {
  if (recording(undo_))
    undo_->record([this, bytes = block_bytes_] {
      blocks_.pop_back();
      block_bytes_ = bytes;
    });
  block_bytes_ += block.byte_size();
  blocks_.push_back(std::move(block));
}

template <typename Edit>
void GuestContract::edit_block(ibc::Height h, Edit edit) {
  GuestBlock& block = blocks_[h];
  if (recording(undo_))
    undo_->record([this, h, old = block, bytes = block_bytes_]() mutable {
      blocks_[h] = std::move(old);
      block_bytes_ = bytes;
    });
  block_bytes_ -= block.byte_size();
  edit(block);
  block_bytes_ += block.byte_size();
}

void GuestContract::execute(host::TxContext& ctx, ByteView instruction_data) {
  if (undo_ == nullptr && ctx.undo() != nullptr) {
    undo_ = ctx.undo();
    module_.set_undo(undo_);
    counterparty_client_->set_undo(undo_);
    bank_.set_undo(undo_);
  }
  save_store();
  if (terminated_) throw host::TxError("guest: chain has self-destructed");
  Decoder d(instruction_data);
  const auto op = static_cast<Op>(d.u8());
  // The one place an IBC or trie library error becomes a failed
  // transaction.
  try {
    switch (op) {
      case Op::kGenerateBlock:
        return op_generate_block(ctx);
      case Op::kSign:
        return op_sign(ctx, d);
      case Op::kSendPacket:
        return op_send_packet(ctx, d);
      case Op::kSendTransfer:
        return op_send_transfer(ctx, d);
      case Op::kChunkUpload:
        return op_chunk_upload(ctx, d);
      case Op::kReceivePacket:
        return op_receive_packet(ctx, d);
      case Op::kAcknowledgePacket:
        return op_acknowledge_packet(ctx, d);
      case Op::kTimeoutPacket:
        return op_timeout_packet(ctx, d);
      case Op::kBeginClientUpdate:
        return op_begin_client_update(ctx, d);
      case Op::kVerifyUpdateSignatures:
        return op_verify_update_signatures(ctx);
      case Op::kFinishClientUpdate:
        return op_finish_client_update(ctx);
      case Op::kStake:
        return op_stake(ctx, d);
      case Op::kUnstake:
        return op_unstake(ctx, d);
      case Op::kWithdrawStake:
        return op_withdraw_stake(ctx);
      case Op::kSubmitEvidence:
        return op_submit_evidence(ctx, d);
      case Op::kHandshake:
        return op_handshake(ctx, d);
      case Op::kFreezeClient:
        return op_freeze_client(ctx, d);
      case Op::kSelfDestruct:
        return op_self_destruct(ctx);
    }
  } catch (const ibc::IbcError& e) {
    throw host::TxError(e.what());
  } catch (const trie::TrieError& e) {
    throw host::TxError(e.what());
  }
  throw host::TxError("guest: unknown instruction");
}

// --- block production ---------------------------------------------------------

ibc::ValidatorSet GuestContract::select_validators() const {
  std::vector<ibc::ValidatorInfo> sorted;
  for (const auto& [key, cand] : candidates_) {
    if (cand.stake >= kMinStakeLamports && banned_.count(key) == 0)
      sorted.push_back({key, cand.stake});
  }
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.stake != b.stake) return a.stake > b.stake;
    return a.key < b.key;
  });
  if (sorted.size() > cfg_.max_validators) sorted.resize(cfg_.max_validators);
  return ibc::ValidatorSet(std::move(sorted));
}

void GuestContract::op_generate_block(host::TxContext& ctx) {
  ctx.consume_cu(kCuBlockOps);
  const GuestBlock& head_block = blocks_.back();
  if (!head_block.finalised)
    throw host::TxError("generate_block: head is not finalised");

  // Alg. 1 GenerateBlock: all trie writes since the previous block are
  // committed here, as one batched hash pass, before the state root is
  // compared and embedded in the new header.
  store_.commit();
  const bool root_changed = head_block.header.state_root != store_.root_hash();
  const bool aged = ctx.time() - head_block.header.timestamp >= cfg_.delta_seconds;
  const bool epoch_due =
      ctx.slot() - epoch_start_host_slot_ >= cfg_.epoch_length_host_slots;
  if (!root_changed && !aged && !epoch_due)
    throw host::TxError("generate_block: nothing to commit and head is fresh");

  GuestBlock block = GuestBlock::make(cfg_.chain_id, head_block.header.height + 1,
                                      ctx.time(), store_.root_hash(), head_block.hash(),
                                      ctx.slot(), epoch_);
  if (epoch_due) {
    ibc::ValidatorSet next = select_validators();
    if (!next.empty()) block.next_validators = std::move(next);
  }
  block.packets = std::exchange(save(undo_, pending_packets_), {});

  save_entry(undo_, snapshots_, block.header.height);
  snapshots_[block.header.height] = store_.snapshot();
  while (snapshots_.size() > 256) {
    save_entry(undo_, snapshots_, snapshots_.begin()->first);
    snapshots_.erase(snapshots_.begin());
  }

  // Prune old block records down to their headers: signer sets and
  // packet lists of long-finalised blocks are dead weight in the
  // contract account (§V-D).
  if (block.header.height > cfg_.block_history_window) {
    const ibc::Height limit = block.header.height - cfg_.block_history_window;
    for (ibc::Height& h = save(undo_, pruned_below_); h < limit; ++h) {
      edit_block(h, [](GuestBlock& old) {
        old.signers.clear();
        old.packets.clear();
        old.packets.shrink_to_fit();
      });
    }
  }

  Encoder ev(8);
  ev.u64(block.header.height);
  push_block(std::move(block));
  ctx.emit_event(kEvNewBlock, ev.take());
}

void GuestContract::finalise_block(host::TxContext& ctx, const GuestBlock& block) {
  if (block.next_validators) {
    save(undo_, epoch_) = std::make_shared<const ibc::ValidatorSet>(*block.next_validators);
    save(undo_, epoch_start_host_slot_) = block.host_height;
  }

  // Signing rewards (§V-C incentives): a slice of the treasury's
  // accumulated send fees goes to this block's signers, pro rata by
  // stake.  Late signatures (after quorum) earn nothing — rewarding
  // promptness, which is what block latency depends on.
  if (cfg_.signer_reward_fraction > 0) {
    const std::uint64_t pool = static_cast<std::uint64_t>(
        static_cast<double>(ctx.balance(treasury_)) * cfg_.signer_reward_fraction);
    const std::uint64_t signed_stake = block.signed_stake();
    if (pool > 0 && signed_stake > 0) {
      for (const auto& [key, sig] : block.signers) {
        const auto stake = block.signing_set->stake_of(key);
        if (!stake) continue;
        const std::uint64_t share = pool * *stake / signed_stake;
        if (share > 0) {
          ctx.transfer(treasury_, key, share);
          save(undo_, rewards_paid_) += share;
        }
      }
    }
  }

  Encoder ev(8);
  ev.u64(block.header.height);
  ctx.emit_event(kEvFinalisedBlock, ev.take());
}

void GuestContract::op_sign(host::TxContext& ctx, Decoder& d) {
  ctx.consume_cu(kCuSignOps);
  const std::uint64_t height = d.u64();
  const Bytes key_raw = d.raw(32);
  crypto::ed25519::PublicKeyBytes pk;
  std::copy(key_raw.begin(), key_raw.end(), pk.begin());
  const crypto::PublicKey pubkey(pk);

  if (height >= blocks_.size()) throw host::TxError("sign: invalid height");
  if (height < pruned_below_) throw host::TxError("sign: block record pruned");
  const GuestBlock& block = blocks_[height];

  if (!block.signing_set->contains(pubkey))
    throw host::TxError("sign: not an active validator");
  if (banned_.count(pubkey) > 0) throw host::TxError("sign: validator banned");
  if (block.signers.count(pubkey) > 0) throw host::TxError("sign: already signed");

  // check_signature: the runtime's Ed25519 pre-compile verified the
  // transaction's signatures; find the one for this block's digest.
  const Hash32 digest = block.hash();
  const crypto::Signature* found = nullptr;
  for (const auto& sv : ctx.verified_signatures()) {
    if (sv.pubkey == pubkey && ct_equal(sv.message.view(), digest.view())) {
      found = &sv.signature;
      break;
    }
  }
  if (found == nullptr) throw host::TxError("sign: no verified signature for block");

  bool finalises = false;
  edit_block(height, [&](GuestBlock& b) {
    b.signers.emplace(pubkey, *found);
    finalises = !b.finalised && b.signed_stake() >= b.signing_set->quorum_stake();
    b.finalised = b.finalised || finalises;
  });
  if (finalises) finalise_block(ctx, blocks_[height]);
}

// --- packet flow ----------------------------------------------------------------

void GuestContract::collect_send_fee(host::TxContext& ctx) {
  ctx.transfer_from_payer(treasury_, kSendFeeLamports);
  save(undo_, fees_collected_) += kSendFeeLamports;
}

void GuestContract::record_sent_packet(host::TxContext& ctx, const ibc::Packet& packet) {
  if (recording(undo_)) undo_->record([this] { pending_packets_.pop_back(); });
  pending_packets_.push_back(packet);
  Encoder ev(8);
  ev.u64(packet.sequence);
  ctx.emit_event(kEvPacketSent, ev.take());
}

void GuestContract::op_send_packet(host::TxContext& ctx, Decoder& d) {
  ctx.consume_cu(kCuSendPacket);
  collect_send_fee(ctx);
  const ibc::PortId port = d.str();
  const ibc::ChannelId channel = d.str();
  Bytes data = d.bytes();
  const ibc::Height timeout_height = d.u64();
  const auto timeout_ts = static_cast<double>(d.u64()) / 1e6;
  record_sent_packet(
      ctx, module_.send_packet(port, channel, std::move(data), timeout_height, timeout_ts));
}

void GuestContract::op_send_transfer(host::TxContext& ctx, Decoder& d) {
  ctx.consume_cu(kCuSendPacket);
  collect_send_fee(ctx);
  const ibc::ChannelId channel = d.str();
  const std::string denom = d.str();
  const std::uint64_t amount = d.u64();
  const std::string sender = d.str();
  const std::string receiver = d.str();
  const ibc::Height timeout_height = d.u64();
  const auto timeout_ts = static_cast<double>(d.u64()) / 1e6;
  record_sent_packet(ctx, transfer_.send_transfer(channel, denom, amount, sender, receiver,
                                                  timeout_height, timeout_ts));
}

Bytes GuestContract::take_buffer(host::TxContext& ctx, std::uint64_t buffer_id) {
  const auto key = std::make_pair(ctx.payer().hex(), buffer_id);
  const auto it = buffers_.find(key);
  if (it == buffers_.end()) throw host::TxError("guest: no such staging buffer");
  save_entry(undo_, buffers_, key);
  Bytes data = std::move(it->second);
  buffers_.erase(it);
  return data;
}

void GuestContract::op_chunk_upload(host::TxContext& ctx, Decoder& d) {
  ctx.consume_cu(2'000);
  const std::uint64_t buffer_id = d.u64();
  const std::uint32_t offset = d.u32();
  const Bytes data = d.bytes();
  // A hostile offset must not balloon the staging buffer past what the
  // account could ever hold.
  if (offset + data.size() > host::kMaxAccountSize)
    throw host::TxError("chunk_upload: buffer exceeds account size");
  const auto key = std::make_pair(ctx.payer().hex(), buffer_id);
  const auto it = buffers_.find(key);
  if (it == buffers_.end() || offset < it->second.size())
    save_entry(undo_, buffers_, key);
  else if (recording(undo_))  // an append records the old length, not the bytes
    undo_->record([this, key, n = it->second.size()] { buffers_[key].resize(n); });
  Bytes& buf = buffers_[key];
  if (buf.size() < offset + data.size()) buf.resize(offset + data.size());
  std::copy(data.begin(), data.end(), buf.begin() + offset);
}

void GuestContract::op_receive_packet(host::TxContext& ctx, Decoder& d) {
  const Bytes blob = take_buffer(ctx, d.u64());
  const ix::PacketProof p = ix::decode_packet_proof(blob, /*with_ack=*/false);
  const ibc::Packet& packet = p.packet;

  // Proof verification is a chain of sha256 syscalls on Solana.
  ctx.consume_cu(kCuRecvBase + 2 * static_cast<std::uint64_t>(p.proof.byte_size()));

  (void)module_.recv_packet(packet, p.proof_height, p.proof, head().header.height + 1,
                            ctx.time());
  Encoder ev(8);
  ev.u64(packet.sequence);
  ctx.emit_event(kEvPacketReceived, ev.take());
}

void GuestContract::op_acknowledge_packet(host::TxContext& ctx, Decoder& d) {
  const Bytes blob = take_buffer(ctx, d.u64());
  const ix::PacketProof p = ix::decode_packet_proof(blob, /*with_ack=*/true);
  ctx.consume_cu(kCuRecvBase + 2 * static_cast<std::uint64_t>(p.proof.byte_size()));
  module_.acknowledge_packet(p.packet, *p.ack, p.proof_height, p.proof);
}

void GuestContract::op_timeout_packet(host::TxContext& ctx, Decoder& d) {
  const Bytes blob = take_buffer(ctx, d.u64());
  const ix::PacketProof p = ix::decode_packet_proof(blob, /*with_ack=*/false);
  ctx.consume_cu(kCuRecvBase + 2 * static_cast<std::uint64_t>(p.proof.byte_size()));
  module_.timeout_packet(p.packet, p.proof_height, p.proof);
}

// --- chunked light client updates -------------------------------------------------

void GuestContract::op_begin_client_update(host::TxContext& ctx, Decoder& d) {
  const Bytes blob = take_buffer(ctx, d.u64());
  ctx.consume_cu(10'000 + blob.size());
  ix::ClientUpdate u = ix::decode_client_update(blob);
  PendingUpdate upd;
  upd.header = std::move(u.header);
  upd.next_validators = std::move(u.next_validators);

  if (upd.header.chain_id != counterparty_client_->chain_id())
    throw host::TxError("client_update: wrong chain id");
  if (upd.header.height <= counterparty_client_->latest_height())
    throw host::TxError("client_update: stale header");
  if (upd.header.validator_set_hash != counterparty_client_->validators().hash())
    throw host::TxError("client_update: unknown validator set");

  upd.digest = upd.header.signing_digest();
  save(undo_, pending_update_) = std::move(upd);
}

void GuestContract::op_verify_update_signatures(host::TxContext& ctx) {
  if (!pending_update_) throw host::TxError("client_update: no pending update");
  ctx.consume_cu(5'000);
  const ibc::ValidatorSet& set = counterparty_client_->validators();
  save(undo_, pending_update_);
  std::size_t matched = 0;
  for (const auto& sv : ctx.verified_signatures()) {
    if (!ct_equal(sv.message.view(), pending_update_->digest.view())) continue;
    const auto stake = set.stake_of(sv.pubkey);
    if (!stake) continue;
    const auto pos = std::lower_bound(pending_update_->seen.begin(),
                                      pending_update_->seen.end(), sv.pubkey);
    if (pos != pending_update_->seen.end() && *pos == sv.pubkey) continue;
    pending_update_->seen.insert(pos, sv.pubkey);
    pending_update_->verified_power += *stake;
    ++matched;
  }
  if (matched == 0)
    throw host::TxError("client_update: no applicable signatures in transaction");
}

void GuestContract::op_finish_client_update(host::TxContext& ctx) {
  if (!pending_update_) throw host::TxError("client_update: no pending update");
  ctx.consume_cu(10'000);
  // §VI-C: rate limit how fast the light client may advance, bounding
  // the damage window if the counterparty chain is compromised.
  if (cfg_.client_update_min_interval_s > 0 &&
      ctx.time() - last_client_update_time_ < cfg_.client_update_min_interval_s)
    throw host::TxError("client_update: rate limited");
  const ibc::ValidatorSet& set = counterparty_client_->validators();
  if (pending_update_->verified_power < set.quorum_stake())
    throw host::TxError("client_update: quorum not reached");
  ibc::SignedQuorumHeader sh;
  sh.header = pending_update_->header;
  sh.next_validators = pending_update_->next_validators;
  counterparty_client_->accept_verified(sh);
  module_.refresh_client_state(counterparty_client_id_);
  save(undo_, last_client_update_time_) = ctx.time();
  save(undo_, pending_update_).reset();
}

// --- staking / slashing -------------------------------------------------------------

void GuestContract::op_stake(host::TxContext& ctx, Decoder& d) {
  ctx.consume_cu(kCuStakeOps);
  const std::uint64_t lamports = d.u64();
  if (lamports == 0) throw host::TxError("stake: zero amount");
  if (banned_.count(ctx.payer()) > 0) throw host::TxError("stake: validator banned");
  ctx.transfer_from_payer(vault_, lamports);
  save_entry(undo_, candidates_, ctx.payer());
  candidates_[ctx.payer()].stake += lamports;
}

void GuestContract::op_unstake(host::TxContext& ctx, Decoder& d) {
  ctx.consume_cu(kCuStakeOps);
  const std::uint64_t lamports = d.u64();
  auto it = candidates_.find(ctx.payer());
  if (it == candidates_.end() || it->second.stake < lamports)
    throw host::TxError("unstake: insufficient stake");
  save_entry(undo_, candidates_, ctx.payer());
  it->second.stake -= lamports;
  if (it->second.stake == 0) candidates_.erase(it);
  save(undo_, withdrawals_).push_back(
      {ctx.payer(), lamports, ctx.time() + cfg_.unstake_hold_seconds});
}

void GuestContract::op_withdraw_stake(host::TxContext& ctx) {
  ctx.consume_cu(kCuStakeOps);
  save(undo_, withdrawals_);
  std::uint64_t total = 0;
  for (auto it = withdrawals_.begin(); it != withdrawals_.end();) {
    if (it->who == ctx.payer() && it->available_at <= ctx.time()) {
      total += it->lamports;
      it = withdrawals_.erase(it);
    } else {
      ++it;
    }
  }
  if (total == 0) throw host::TxError("withdraw: nothing withdrawable yet");
  ctx.transfer(vault_, ctx.payer(), total);
}

void GuestContract::slash(host::TxContext& ctx, const crypto::PublicKey& offender) {
  const auto it = candidates_.find(offender);
  const std::uint64_t stake = it == candidates_.end() ? 0 : it->second.stake;
  save_entry(undo_, candidates_, offender);
  if (it != candidates_.end()) candidates_.erase(it);
  save_entry(undo_, banned_, offender);
  banned_.insert(offender);
  // Genesis validators' stake may not be vault-backed in tests;
  // transfer what the vault actually holds.
  const std::uint64_t backed = std::min<std::uint64_t>(stake, ctx.balance(vault_));
  std::uint64_t reward = 0;
  if (backed > 0) {
    reward = static_cast<std::uint64_t>(static_cast<double>(backed) * kSlashReporterFraction);
    if (reward > 0) ctx.transfer(vault_, ctx.payer(), reward);
    if (backed > reward) ctx.transfer(vault_, burn_, backed - reward);
  }
  // Payload: offender | slashed stake | reporter reward | burned.  The
  // trailing economics triple lets off-chain scoreboards price an
  // attack (stake destroyed vs. damage done) without replaying state.
  Encoder ev(32 + 24);
  ev.raw(offender.view());
  ev.u64(backed);
  ev.u64(reward);
  ev.u64(backed > reward ? backed - reward : 0);
  ctx.emit_event(kEvSlashed, ev.take());
}

void GuestContract::op_submit_evidence(host::TxContext& ctx, Decoder& d) {
  const Bytes blob = take_buffer(ctx, d.u64());
  ctx.consume_cu(20'000 + blob.size());
  // The annex signatures are ignored: only pre-compile-verified
  // signatures count (below).
  const ix::Evidence ev = ix::decode_evidence(blob);
  const crypto::PublicKey& offender = ev.offender;
  const std::vector<ibc::QuorumHeader>& headers = ev.headers;

  // Each header must carry a pre-compile-verified signature by the
  // offender over its digest.
  for (const auto& header : headers) {
    if (header.chain_id != cfg_.chain_id)
      throw host::TxError("evidence: header from another chain");
    const Hash32 digest = header.signing_digest();
    bool found = false;
    for (const auto& sv : ctx.verified_signatures()) {
      if (sv.pubkey == offender && ct_equal(sv.message.view(), digest.view())) {
        found = true;
        break;
      }
    }
    if (!found) throw host::TxError("evidence: missing verified signature");
  }

  bool misbehaved = false;
  if (headers.size() == 2) {
    // Two different blocks signed at the same height (§III-C case 1).
    misbehaved = headers[0].height == headers[1].height &&
                 headers[0].signing_digest() != headers[1].signing_digest();
  } else {
    const ibc::QuorumHeader& h = headers[0];
    if (h.height >= blocks_.size()) {
      // Signed a block beyond the chain head (case 2).
      misbehaved = true;
    } else {
      // Signed a block that differs from the canonical one (case 3).
      misbehaved = h.signing_digest() != blocks_[h.height].hash();
    }
  }
  if (!misbehaved) throw host::TxError("evidence: no misbehaviour proven");
  slash(ctx, offender);
}

// --- handshake ------------------------------------------------------------------------

void GuestContract::op_handshake(host::TxContext& ctx, Decoder& d) {
  const Bytes blob = take_buffer(ctx, d.u64());
  ctx.consume_cu(40'000 + blob.size());
  Decoder b(blob);
  const auto op = static_cast<HandshakeOp>(b.u8());
  switch (op) {
    case HandshakeOp::kConnOpenInit: {
      const ibc::ClientId client = b.str();
      const ibc::ClientId counterparty_client = b.str();
      b.expect_done();
      const ibc::ConnectionId id = module_.conn_open_init(client, counterparty_client);
      ctx.emit_event("ConnOpenInit", bytes_of(id));
      return;
    }
    case HandshakeOp::kConnOpenTry: {
      const ibc::ClientId client = b.str();
      const ibc::ClientId counterparty_client = b.str();
      const ibc::ConnectionId counterparty_conn = b.str();
      const auto end = ibc::ConnectionEnd::decode(b.bytes());
      const ibc::Height h = b.u64();
      const auto proof = trie::Proof::deserialize(b.bytes());
      std::optional<ibc::ClientStateCommitment> client_state;
      trie::Proof client_proof;
      if (b.boolean()) {
        client_state = ibc::ClientStateCommitment::decode(b.bytes());
        client_proof = trie::Proof::deserialize(b.bytes());
      }
      b.expect_done();
      const ibc::ConnectionId id =
          module_.conn_open_try(client, counterparty_client, counterparty_conn, end,
                                h, proof, client_state, client_proof);
      ctx.emit_event("ConnOpenTry", bytes_of(id));
      return;
    }
    case HandshakeOp::kConnOpenAck: {
      const ibc::ConnectionId conn = b.str();
      const ibc::ConnectionId counterparty_conn = b.str();
      const auto end = ibc::ConnectionEnd::decode(b.bytes());
      const ibc::Height h = b.u64();
      const auto proof = trie::Proof::deserialize(b.bytes());
      std::optional<ibc::ClientStateCommitment> client_state;
      trie::Proof client_proof;
      if (b.boolean()) {
        client_state = ibc::ClientStateCommitment::decode(b.bytes());
        client_proof = trie::Proof::deserialize(b.bytes());
      }
      b.expect_done();
      module_.conn_open_ack(conn, counterparty_conn, end, h, proof, client_state,
                            client_proof);
      return;
    }
    case HandshakeOp::kConnOpenConfirm: {
      const ibc::ConnectionId conn = b.str();
      const auto end = ibc::ConnectionEnd::decode(b.bytes());
      const ibc::Height h = b.u64();
      const auto proof = trie::Proof::deserialize(b.bytes());
      b.expect_done();
      module_.conn_open_confirm(conn, end, h, proof);
      return;
    }
    case HandshakeOp::kChanOpenInit: {
      const ibc::PortId port = b.str();
      const ibc::ConnectionId conn = b.str();
      const ibc::PortId cp_port = b.str();
      if (b.u8() != ibc::kUnorderedChannel)
        throw host::TxError("handshake: only unordered channels are supported");
      b.expect_done();
      const ibc::ChannelId id = module_.chan_open_init(port, conn, cp_port);
      ctx.emit_event("ChanOpenInit", bytes_of(id));
      return;
    }
    case HandshakeOp::kChanOpenTry: {
      const ibc::PortId port = b.str();
      const ibc::ConnectionId conn = b.str();
      const ibc::PortId cp_port = b.str();
      const ibc::ChannelId cp_chan = b.str();
      const auto end = ibc::ChannelEnd::decode(b.bytes());
      const ibc::Height h = b.u64();
      const auto proof = trie::Proof::deserialize(b.bytes());
      if (b.u8() != ibc::kUnorderedChannel)
        throw host::TxError("handshake: only unordered channels are supported");
      b.expect_done();
      const ibc::ChannelId id =
          module_.chan_open_try(port, conn, cp_port, cp_chan, end, h, proof);
      ctx.emit_event("ChanOpenTry", bytes_of(id));
      return;
    }
    case HandshakeOp::kChanOpenAck: {
      const ibc::PortId port = b.str();
      const ibc::ChannelId chan = b.str();
      const ibc::ChannelId cp_chan = b.str();
      const auto end = ibc::ChannelEnd::decode(b.bytes());
      const ibc::Height h = b.u64();
      const auto proof = trie::Proof::deserialize(b.bytes());
      b.expect_done();
      module_.chan_open_ack(port, chan, cp_chan, end, h, proof);
      return;
    }
    case HandshakeOp::kChanOpenConfirm: {
      const ibc::PortId port = b.str();
      const ibc::ChannelId chan = b.str();
      const auto end = ibc::ChannelEnd::decode(b.bytes());
      const ibc::Height h = b.u64();
      const auto proof = trie::Proof::deserialize(b.bytes());
      b.expect_done();
      module_.chan_open_confirm(port, chan, end, h, proof);
      return;
    }
  }
  throw host::TxError("handshake: unknown sub-operation");
}

void GuestContract::op_freeze_client(host::TxContext& ctx, Decoder& d) {
  // §VI-C: anyone presenting two quorum-signed counterparty headers at
  // the same height freezes the light client, halting the bridge until
  // operators react.
  const Bytes blob = take_buffer(ctx, d.u64());
  ctx.consume_cu(50'000 + blob.size());
  Decoder b(blob);
  const auto ha = ibc::SignedQuorumHeader::decode(b.bytes());
  const auto hb = ibc::SignedQuorumHeader::decode(b.bytes());
  b.expect_done();
  counterparty_client_->submit_misbehaviour(ha, hb);
  ctx.emit_event("ClientFrozen", {});
}

void GuestContract::op_self_destruct(host::TxContext& ctx) {
  // §VI-A: mitigation for the last-validator bank run — once the chain
  // has demonstrably stalled, all staked assets are released pro rata
  // so no one is trapped as "the last validator".
  ctx.consume_cu(30'000);
  if (cfg_.self_destruct_after_s <= 0)
    throw host::TxError("self_destruct: not enabled");
  const double stalled_for = ctx.time() - head().header.timestamp;
  if (stalled_for < cfg_.self_destruct_after_s)
    throw host::TxError("self_destruct: chain is not stalled long enough");

  // Release stakes (active candidates + queued withdrawals).
  std::uint64_t total = 0;
  for (const auto& [key, cand] : candidates_) total += cand.stake;
  for (const auto& w : withdrawals_) total += w.lamports;
  const std::uint64_t vault_funds = ctx.balance(vault_);
  for (const auto& [key, cand] : candidates_) {
    const std::uint64_t share = total == 0 ? 0 : vault_funds * cand.stake / total;
    if (share > 0) ctx.transfer(vault_, key, share);
  }
  for (const auto& w : withdrawals_) {
    const std::uint64_t share = total == 0 ? 0 : vault_funds * w.lamports / total;
    if (share > 0) ctx.transfer(vault_, w.who, share);
  }
  save(undo_, candidates_).clear();
  save(undo_, withdrawals_).clear();
  save(undo_, terminated_) = true;
  ctx.emit_event("SelfDestructed", {});
}

// --- introspection ----------------------------------------------------------------------

const GuestBlock& GuestContract::block_at(ibc::Height h) const {
  if (h >= blocks_.size())
    throw std::out_of_range("guest: no block at height " + std::to_string(h));
  return blocks_[h];
}

trie::Proof GuestContract::prove_at(ibc::Height h, ByteView key) const {
  const auto it = snapshots_.find(h);
  if (it == snapshots_.end())
    throw std::out_of_range("guest: no snapshot at height " + std::to_string(h));
  return it->second.prove(key);
}

trie::TrieSnapshot GuestContract::snapshot_at(ibc::Height h) const {
  const auto it = snapshots_.find(h);
  if (it == snapshots_.end()) return {};
  return it->second;
}

ibc::Height GuestContract::last_finalised_height() const {
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
    if (it->finalised) return it->header.height;
  return 0;
}

std::optional<GuestContract::PendingUpdateInfo> GuestContract::pending_update_info()
    const {
  if (!pending_update_) return std::nullopt;
  PendingUpdateInfo info;
  info.height = pending_update_->header.height;
  info.verified_power = pending_update_->verified_power;
  info.seen = pending_update_->seen;  // already sorted
  return info;
}

std::vector<std::uint64_t> GuestContract::staging_buffers_of(
    const crypto::PublicKey& payer) const {
  std::vector<std::uint64_t> out;
  const std::string hex = payer.hex();
  for (auto it = buffers_.lower_bound({hex, 0}); it != buffers_.end(); ++it) {
    if (it->first.first != hex) break;
    out.push_back(it->first.second);
  }
  return out;
}

std::optional<std::size_t> GuestContract::staging_buffer_size(
    const crypto::PublicKey& payer, std::uint64_t buffer_id) const {
  const auto it = buffers_.find({payer.hex(), buffer_id});
  if (it == buffers_.end()) return std::nullopt;
  return it->second.size();
}

std::optional<Bytes> GuestContract::staging_buffer_bytes(
    const crypto::PublicKey& payer, std::uint64_t buffer_id) const {
  const auto it = buffers_.find({payer.hex(), buffer_id});
  if (it == buffers_.end()) return std::nullopt;
  return it->second;
}

std::optional<Hash32> GuestContract::snapshot_root_at(ibc::Height h) const {
  const auto it = snapshots_.find(h);
  if (it == snapshots_.end()) return std::nullopt;
  return it->second.root_hash();
}

std::uint64_t GuestContract::stake_of(const crypto::PublicKey& validator) const {
  const auto it = candidates_.find(validator);
  return it == candidates_.end() ? 0 : it->second.stake;
}

bool GuestContract::is_banned(const crypto::PublicKey& validator) const {
  return banned_.count(validator) > 0;
}

std::size_t GuestContract::account_bytes() const {
  std::size_t n = store_.stats().byte_size + block_bytes_;
  for (const auto& [key, buf] : buffers_) n += buf.size() + 48;
  n += candidates_.size() * 48 + withdrawals_.size() * 56;
  return n;
}

}  // namespace bmg::guest
