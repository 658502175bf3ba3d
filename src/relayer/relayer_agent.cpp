#include "relayer/relayer_agent.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace bmg::relayer {

namespace {

/// Seed of the pipeline's backoff-jitter stream, mixed with the payer
/// key so co-deployed relayers draw independent streams.
constexpr std::uint64_t kPipelineSeed = 0x5EED'0F'9E3779B9ull;
/// Network latency for calls into the counterparty chain.
constexpr double kCounterpartyLatencyS = 0.5;
/// How many times update_guest_client rebuilds a failed update
/// sequence from a fresh staging buffer.
constexpr int kUpdateRebuilds = 8;
/// Fee policy of the relayer's host transactions (paper §V-B: the
/// default fee model; the pipeline escalates it on retries).
const host::FeePolicy kFee = host::FeePolicy::base();
/// Agent name matched (by prefix) against FaultPlan crash windows.
constexpr const char* kAgentName = "relayer";

}  // namespace

RelayerAgent::RelayerAgent(sim::Simulation& sim, host::Chain& host,
                           guest::GuestContract& contract,
                           counterparty::CounterpartyChain& cp,
                           ibc::ClientId guest_client_on_cp, crypto::PublicKey payer,
                           RelayerConfig cfg)
    : CrashableAgent(sim, kAgentName),
      host_(host),
      contract_(contract),
      cp_(cp),
      guest_client_on_cp_(std::move(guest_client_on_cp)),
      payer_(std::move(payer)),
      cfg_(cfg),
      pipeline_(sim, host, Rng(crypto::fold_key(kPipelineSeed, payer_)), cfg.pipeline) {
  // With no signature per transaction an update sequence never ends.
  if (cfg_.sigs_per_update_tx < 1)
    throw std::invalid_argument("relayer: sigs_per_update_tx must be at least 1");
}

void RelayerAgent::start() {
  // Subscriptions are append-only (they live as long as the chains),
  // so they are registered once and gated on running(): a crashed
  // process simply misses the events fired while it is down.
  //
  // On a fork-aware host the guest→counterparty direction consumes
  // FinalisedBlock at *rooted* commitment regardless of the configured
  // pipeline level: the counterparty never rolls back, so exporting
  // guest state that a host reorg could still retract would break
  // conservation permanently.  On a linear host a rooted subscription
  // is a processed one.
  host_.subscribe_rooted(guest::kProgramName, [this](const host::Event& ev) {
    if (!running()) return;
    if (ev.name != guest::GuestContract::kEvFinalisedBlock) return;
    Decoder d(ev.data);
    const ibc::Height height = d.u64();
    sim_.after_cancellable(
        cfg_.poll_latency_s, [this, height] { on_guest_block_finalised(height); },
        timer_owner());
  });
  // Counterparty-sent packets enter the relay queue at the next cp
  // block (when they become provable).
  cp_.ibc().set_packet_listener([this](const ibc::Packet& packet) {
    if (!running()) return;
    cp_outgoing_.emplace_back(packet, cp_.height() + 1);
  });
  cp_.on_new_block([this](ibc::Height height) {
    if (!running()) return;
    sim_.after_cancellable(
        cfg_.poll_latency_s, [this, height] { on_cp_block(height); }, timer_owner());
  });
}

// --- crash-restart ------------------------------------------------------------

void RelayerAgent::on_crash() {
  // Every in-memory structure is ephemeral: timers died with the
  // process, in-flight pipeline sequences never call back, queues drop.
  pipeline_.reset();
  cp_outgoing_.clear();
  cp_acks_.clear();
  guest_acks_pending_.clear();
  queued_updates_.clear();
  guest_update_in_flight_ = false;
  next_buffer_id_ = 1;
}

void RelayerAgent::on_restart() { resync(); }

ibc::Height RelayerAgent::cp_ready_height(ByteView key) const {
  const ibc::Height h = cp_.height();
  if (h == 0) return 1;
  const trie::TrieSnapshot snap = cp_.snapshot_at(h);
  return snap.valid() && snap.get(key) == trie::Lookup::kFound ? h : h + 1;
}

void RelayerAgent::redeliver_guest_packet_to_cp(const ibc::Packet& packet,
                                                ibc::Height gh) {
  const auto key = ibc::packet_key(ibc::KeyKind::kPacketCommitment, packet.source_port,
                                   packet.source_channel, packet.sequence);
  // One snapshot handle serves both the membership check here and the
  // delivery proof in the deferred callback (the snapshot pins its
  // nodes, so the proof stays byte-identical even after pruning).
  const trie::TrieSnapshot snap = contract_.snapshot_at(gh);
  // Not yet committed in a finalised block: the normal FinalisedBlock
  // path will relay it once the block containing it finalises.
  if (!snap.valid() || snap.get(key) != trie::Lookup::kFound) return;
  push_guest_header_to_cp(gh, [this, gh, packet, snap] {
    const auto key = ibc::packet_key(ibc::KeyKind::kPacketCommitment,
                                     packet.source_port, packet.source_channel,
                                     packet.sequence);
    try {
      const trie::Proof proof = snap.prove(key);
      const ibc::Acknowledgement ack =
          cp_.ibc().recv_packet(packet, gh, proof, cp_.height(), cp_.now());
      ++to_cp_packets_;
      cp_acks_.emplace_back(packet, ack, cp_.height() + 1);
    } catch (const std::exception&) {
      // Already delivered by another relayer or invalid; skip.
    }
  });
}

void RelayerAgent::resync() {
  // Durable state lives on-chain; rebuild the in-memory queues from it
  // (the "anyone can resume relaying" property IBC's delivery
  // guarantees rest on).

  // 1. Skip past any staging buffers a previous life left behind so
  //    fresh uploads never collide with half-uploaded ones.
  for (const std::uint64_t id : contract_.staging_buffers_of(payer_))
    next_buffer_id_ = std::max(next_buffer_id_, id + 1);

  // 2. Counterparty -> guest: every unresolved cp commitment is either
  //    undelivered (relay the packet) or delivered but not yet acked
  //    back (relay the ack).
  for (const auto& [port, chan] : cp_.ibc().channels()) {
    for (const std::uint64_t seq : cp_.ibc().pending_send_sequences(port, chan)) {
      const ibc::Packet* p = cp_.ibc().sent_packet(port, chan, seq);
      if (p == nullptr) continue;
      if (contract_.ibc().packet_received(p->dest_port, p->dest_channel, seq)) {
        guest_acks_pending_.push_back(*p);
      } else {
        const auto key =
            ibc::packet_key(ibc::KeyKind::kPacketCommitment, port, chan, seq);
        cp_outgoing_.emplace_back(*p, cp_ready_height(key));
      }
    }
  }

  // 3. Guest -> counterparty: unresolved guest commitments whose
  //    packets never reached the cp are re-delivered against the latest
  //    finalised block; delivered ones re-enter the ack queue.
  const ibc::Height gh = contract_.last_finalised_height();
  for (const auto& [port, chan] : contract_.ibc().channels()) {
    for (const std::uint64_t seq : contract_.ibc().pending_send_sequences(port, chan)) {
      const ibc::Packet* p = contract_.ibc().sent_packet(port, chan, seq);
      if (p == nullptr) continue;
      if (cp_.ibc().packet_received(p->dest_port, p->dest_channel, seq)) {
        if (const auto ack = cp_.ibc().ack_for(p->dest_port, p->dest_channel, seq)) {
          const auto key =
              ibc::packet_key(ibc::KeyKind::kPacketAck, p->dest_port, p->dest_channel,
                              seq);
          cp_acks_.emplace_back(*p, *ack, cp_ready_height(key));
        }
      } else if (gh > 0) {
        redeliver_guest_packet_to_cp(*p, gh);
      }
    }
  }

  // 4. Guest-side acks already provable in the latest finalised block
  //    flow back to the cp immediately (re-using the FinalisedBlock
  //    path); the rest wait for the next finalisation.
  if (gh > 0 && !guest_acks_pending_.empty()) on_guest_block_finalised(gh);

  // 5. Kick the cp->guest pump; a half-verified pending update is
  //    picked up inside update_guest_client_attempt.
  pump_cp_to_guest();
}

// --- transaction sequencing ---------------------------------------------------

std::vector<host::Transaction> RelayerAgent::staged_call(
    ByteView payload, host::Instruction (*op)(std::uint64_t), const std::string& label) {
  const std::uint64_t buffer_id = next_buffer_id_++;
  return guest::ix::staged_call(payer_, kFee, buffer_id, payload, op(buffer_id), label,
                                label + ":chunk", host_.max_tx_size());
}

std::vector<host::Transaction> RelayerAgent::build_update_sequence(
    const ibc::SignedQuorumHeader& sh) {
  std::vector<host::Transaction> txs = staged_call(
      guest::ix::client_update_payload(sh), guest::ix::begin_client_update, "lc-update");
  append_update_signatures(txs, sh, {});
  return txs;
}

std::vector<host::Transaction> RelayerAgent::build_update_resume_sequence(
    const ibc::SignedQuorumHeader& sh,
    const guest::GuestContract::PendingUpdateInfo& pending) {
  // The contract dedups signatures against its pending-update `seen`
  // set and rejects a tx whose signatures are *all* duplicates, so a
  // resume must submit only the not-yet-verified ones.
  std::vector<host::Transaction> txs;
  append_update_signatures(txs, sh, pending.seen);
  return txs;
}

void RelayerAgent::append_update_signatures(std::vector<host::Transaction>& txs,
                                            const ibc::SignedQuorumHeader& sh,
                                            const std::vector<crypto::PublicKey>& seen) {
  const Hash32 digest = sh.signing_digest();
  const auto per_tx = static_cast<std::size_t>(cfg_.sigs_per_update_tx);
  std::size_t in_tx = per_tx;  // signatures in txs.back(); a full tx starts a new one
  for (std::size_t i = 0; i < sh.signatures.size(); ++i) {
    const auto& [pubkey, sig] = sh.signatures[i];
    if (std::binary_search(seen.begin(), seen.end(), pubkey)) continue;
    if (in_tx == per_tx) {
      host::Transaction& tx = txs.emplace_back();
      tx.payer = payer_;
      tx.fee = kFee;
      tx.label = "lc-update:sigs";
      tx.instructions.push_back(guest::ix::verify_update_signatures());
      tx.sig_verifies.reserve(std::min(per_tx, sh.signatures.size() - i));
      in_tx = 0;
    }
    txs.back().sig_verifies.push_back(host::SigVerify{pubkey, digest, sig});
    ++in_tx;
  }

  host::Transaction fin;
  fin.payer = payer_;
  fin.fee = kFee;
  fin.label = "lc-update:finish";
  fin.instructions.push_back(guest::ix::finish_client_update());
  txs.push_back(std::move(fin));
}

// --- guest -> counterparty ------------------------------------------------------

void RelayerAgent::push_guest_header_to_cp(ibc::Height guest_height,
                                           std::function<void()> done) {
  sim_.after_cancellable(
      kCounterpartyLatencyS,
      [this, guest_height, done = std::move(done)] {
        try {
          const guest::GuestBlock& block = contract_.block_at(guest_height);
          cp_.ibc().update_client(guest_client_on_cp_,
                                  block.to_signed_header().encode());
        } catch (const ibc::IbcError&) {
          // Another relayer (or an explicit handshake push) already
          // submitted this height; duplicates are harmless.
        }
        if (done) done();
      },
      timer_owner());
}

void RelayerAgent::on_guest_block_finalised(ibc::Height height) {
  const guest::GuestBlock& block = contract_.block_at(height);
  const bool must_relay = !block.packets.empty() || block.last_in_epoch();

  // Every proof this event needs is against the one state root the
  // block committed, so fetch its immutable snapshot once and prove on
  // that handle — the contract is free to commit the next block (and
  // prune) underneath it.
  const trie::TrieSnapshot snap = contract_.snapshot_at(height);

  // Relay acks written on the guest for packets the counterparty sent
  // (they are provable once committed in a finalised guest block).
  std::vector<ibc::Packet> still_pending;
  std::vector<ibc::Packet> ready;
  for (const ibc::Packet& p : guest_acks_pending_) {
    const auto key = ibc::packet_key(ibc::KeyKind::kPacketAck, p.dest_port,
                                     p.dest_channel, p.sequence);
    const bool provable = snap.valid() && snap.get(key) == trie::Lookup::kFound;
    (provable ? ready : still_pending).push_back(p);
  }
  guest_acks_pending_ = std::move(still_pending);

  if (!must_relay && ready.empty()) return;

  push_guest_header_to_cp(height, [this, height, snap, ready = std::move(ready)] {
    const guest::GuestBlock& blk = contract_.block_at(height);
    // Deliver the block's packets to the counterparty (Alg. 2, 7-10),
    // each proven against the block's snapshot.
    for (const ibc::Packet& packet : blk.packets) {
      try {
        const trie::Proof proof =
            snap.prove(ibc::packet_key(ibc::KeyKind::kPacketCommitment, packet.source_port,
                                       packet.source_channel, packet.sequence));
        const ibc::Acknowledgement ack = cp_.ibc().recv_packet(
            packet, height, proof, cp_.height(), cp_.now());
        ++to_cp_packets_;
        // The ack becomes provable at the next cp block.
        cp_acks_.emplace_back(packet, ack, cp_.height() + 1);
      } catch (const std::exception&) {
        // Already delivered by another relayer or invalid; skip.
      }
    }
    // Relay guest-side acks back to the counterparty.
    for (const ibc::Packet& p : ready) {
      const auto key = ibc::packet_key(ibc::KeyKind::kPacketAck, p.dest_port,
                                       p.dest_channel, p.sequence);
      try {
        const auto ack =
            contract_.ibc().ack_for(p.dest_port, p.dest_channel, p.sequence);
        if (!ack) continue;
        const trie::Proof proof = snap.prove(key);
        cp_.ibc().acknowledge_packet(p, *ack, height, proof);
      } catch (const std::exception&) {
      }
    }
  });
}

// --- counterparty -> guest ---------------------------------------------------------

void RelayerAgent::on_cp_block(ibc::Height) { pump_cp_to_guest(); }

void RelayerAgent::update_guest_client(ibc::Height cp_height, std::function<void()> done) {
  update_guest_client_attempt(cp_height, std::move(done), kUpdateRebuilds);
}

void RelayerAgent::update_guest_client_attempt(ibc::Height cp_height,
                                               std::function<void()> done,
                                               int rebuilds_left) {
  if (contract_.counterparty_client().latest_height() >= cp_height) {
    if (done) done();
    return;
  }
  if (guest_update_in_flight_) {
    // The contract holds a single pending-update slot; serialize.
    queued_updates_.emplace_back(cp_height, std::move(done));
    return;
  }
  const ibc::SignedQuorumHeader& sh = cp_.header_at(cp_height);
  // Resume a half-verified update the contract already holds for this
  // exact height (left behind by a crash or a failed sequence) instead
  // of re-uploading chunks and resetting verified signatures.  With no
  // crashes and no failed sequences the pending slot is always empty
  // here, so the steady-state tx stream is unchanged.
  std::vector<host::Transaction> txs;
  const auto pending = contract_.pending_update_info();
  if (pending && pending->height == cp_height)
    txs = build_update_resume_sequence(sh, *pending);
  else
    txs = build_update_sequence(sh);
  guest_update_in_flight_ = true;
  pipeline_.submit_sequence(
      std::move(txs),
      [this, cp_height, done = std::move(done), rebuilds_left](
          const SequenceOutcome& out) mutable {
        guest_update_in_flight_ = false;
        if (out.ok) {
          update_txs_.add(out.txs);
          update_durations_.add(out.finished_at - out.start_time());
          update_costs_.add(out.cost_usd);
          if (done) done();
        } else if (rebuilds_left > 0 &&
                   contract_.counterparty_client().latest_height() < cp_height) {
          // The pipeline gave up on the sequence (an outage or
          // congestion window outlasted the per-tx budget).  Rebuild
          // from a fresh staging buffer — the old one may hold a
          // partial upload — and try again.
          update_guest_client_attempt(cp_height, std::move(done), rebuilds_left - 1);
          return;
        }
        if (!queued_updates_.empty()) {
          auto [h, cb] = std::move(queued_updates_.front());
          queued_updates_.pop_front();
          update_guest_client(h, std::move(cb));
        } else {
          pump_cp_to_guest();
        }
      });
}

void RelayerAgent::deliver_packet_to_guest(const ibc::Packet& packet,
                                           ibc::Height proof_height, SequenceDone done) {
  const auto key = ibc::packet_key(ibc::KeyKind::kPacketCommitment, packet.source_port,
                                   packet.source_channel, packet.sequence);
  const trie::Proof proof = cp_.prove_at(proof_height, key);
  auto txs =
      staged_call(guest::ix::packet_proof_payload(packet, nullptr, proof_height, proof),
                  guest::ix::receive_packet, "recv-packet");
  pipeline_.submit_sequence(
      std::move(txs),
      [this, packet, proof_height, done = std::move(done)](const SequenceOutcome& out) {
        if (out.ok) {
          ++to_guest_packets_;
          recv_txs_.add(out.txs);
          recv_costs_.add(out.cost_usd);
          guest_acks_pending_.push_back(packet);
        } else if (!contract_.ibc().packet_received(packet.dest_port,
                                                    packet.dest_channel,
                                                    packet.sequence)) {
          // Failed and still undelivered (and no other relayer got it
          // in): requeue so the next cp block pumps it again.
          cp_outgoing_.emplace_back(packet, proof_height);
        }
        if (done) done(out);
      });
}

void RelayerAgent::deliver_ack_to_guest(const ibc::Packet& packet,
                                        const ibc::Acknowledgement& ack,
                                        ibc::Height proof_height, SequenceDone done) {
  const auto key = ibc::packet_key(ibc::KeyKind::kPacketAck, packet.dest_port,
                                   packet.dest_channel, packet.sequence);
  const trie::Proof proof = cp_.prove_at(proof_height, key);
  auto txs = staged_call(guest::ix::packet_proof_payload(packet, &ack, proof_height, proof),
                         guest::ix::acknowledge_packet, "ack-packet");
  pipeline_.submit_sequence(
      std::move(txs),
      [this, packet, ack, proof_height, done = std::move(done)](
          const SequenceOutcome& out) {
        if (!out.ok && contract_.ibc().packet_pending(packet.source_port,
                                                      packet.source_channel,
                                                      packet.sequence)) {
          // The guest still holds the commitment, so the ack has not
          // landed through any path: requeue it for the next pump.
          cp_acks_.emplace_back(packet, ack, proof_height);
        }
        if (done) done(out);
      });
}

void RelayerAgent::deliver_timeout_to_guest(const ibc::Packet& packet,
                                            ibc::Height proof_height, SequenceDone done) {
  const auto key = ibc::packet_key(ibc::KeyKind::kPacketReceipt, packet.dest_port,
                                   packet.dest_channel, packet.sequence);
  const trie::Proof proof = cp_.prove_at(proof_height, key);
  pipeline_.submit_sequence(
      staged_call(guest::ix::packet_proof_payload(packet, nullptr, proof_height, proof),
                  guest::ix::timeout_packet, "timeout-packet"),
      std::move(done));
}

void RelayerAgent::pump_cp_to_guest() {
  if (guest_update_in_flight_) return;
  if (cp_outgoing_.empty() && cp_acks_.empty()) return;

  // Everything queued becomes provable at (or before) the latest cp
  // block; one light client update serves the whole batch.
  const ibc::Height target = cp_.height();
  bool anything_ready = false;
  for (const auto& [p, h] : cp_outgoing_) anything_ready |= (h <= target);
  for (const auto& [p, a, h] : cp_acks_) anything_ready |= (h <= target);
  if (!anything_ready) return;

  update_guest_client(target, [this, target] {
    std::deque<std::pair<ibc::Packet, ibc::Height>> later_packets;
    while (!cp_outgoing_.empty()) {
      auto [packet, ready_at] = cp_outgoing_.front();
      cp_outgoing_.pop_front();
      if (ready_at > target) {
        later_packets.emplace_back(packet, ready_at);
        continue;
      }
      deliver_packet_to_guest(packet, target);
    }
    cp_outgoing_ = std::move(later_packets);

    std::deque<std::tuple<ibc::Packet, ibc::Acknowledgement, ibc::Height>> later_acks;
    while (!cp_acks_.empty()) {
      auto [packet, ack, ready_at] = cp_acks_.front();
      cp_acks_.pop_front();
      if (ready_at > target) {
        later_acks.emplace_back(packet, ack, ready_at);
        continue;
      }
      deliver_ack_to_guest(packet, ack, target);
    }
    cp_acks_ = std::move(later_acks);
  });
}

}  // namespace bmg::relayer
