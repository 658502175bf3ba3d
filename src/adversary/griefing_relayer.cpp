#include "adversary/griefing_relayer.hpp"

#include <algorithm>

#include "guest/instructions.hpp"
#include "ibc/commitment.hpp"
#include "trie/node.hpp"
#include "trie/trie.hpp"

namespace bmg::adversary {

namespace {
constexpr std::uint64_t kGrieferStream = 0x6121'EF3A'11B2ull;
constexpr std::size_t kReplayAmmo = 8;
}  // namespace

GriefingRelayerAgent::GriefingRelayerAgent(
    sim::Simulation& sim, host::Chain& host, guest::GuestContract& contract,
    counterparty::CounterpartyChain& cp, ibc::ClientId guest_client_on_cp,
    crypto::PublicKey payer, const host::FaultPlan& plan, AdversaryCounters& counters,
    std::uint64_t seed, GrieferConfig cfg)
    : CrashableAgent(sim, "griefing-relayer"),
      host_(host),
      contract_(contract),
      cp_(cp),
      client_(std::move(guest_client_on_cp)),
      payer_(std::move(payer)),
      plan_(plan),
      counters_(counters),
      cfg_(std::move(cfg)),
      rng_(crypto::fold_key(seed ^ kGrieferStream, payer_)),
      pipeline_(sim, host,
                Rng(crypto::fold_key(seed ^ kGrieferStream, payer_) ^ 0xA1B2ull),
                cfg_.pipeline) {}

void GriefingRelayerAgent::start() { schedule_poll(); }

void GriefingRelayerAgent::schedule_poll() {
  sim_.after_cancellable(
      cfg_.poll_s,
      [this] {
        if (!running()) return;
        poll();
        schedule_poll();
      },
      timer_owner());
}

void GriefingRelayerAgent::on_crash() {
  pipeline_.reset();
  clobber_in_flight_ = false;
  handled_.clear();
  in_flight_.clear();
  withheld_.clear();
  withheld_pending_requeue_.clear();
  delivered_.clear();
  next_buffer_ = 1;
}

void GriefingRelayerAgent::on_restart() {
  // Durable state is on-chain.  Staged buffers fix the next usable
  // buffer id; a packet received on the guest whose commitment is
  // still pending on the counterparty is a withheld ack we (or a
  // crashed honest relayer) owe — re-derive and release promptly.
  for (const std::uint64_t id : contract_.staging_buffers_of(payer_))
    next_buffer_ = std::max(next_buffer_, id + 1);
  for (const auto& [port, chan] : cp_.ibc().channels()) {
    for (const std::uint64_t seq : cp_.ibc().pending_send_sequences(port, chan)) {
      const ibc::Packet* p = cp_.ibc().sent_packet(port, chan, seq);
      if (p == nullptr) continue;
      if (!contract_.ibc().packet_received(p->dest_port, p->dest_channel, seq))
        continue;
      handled_.insert(seq);
      withheld_.push_back(Withheld{*p, sim_.now()});
    }
  }
  schedule_poll();
}

void GriefingRelayerAgent::poll() {
  const double t = sim_.now();
  try_clobber(t);
  if (const host::FaultWindow* w = plan_.open_window(host::FaultKind::kAckWithhold, t))
    scan_front_run_targets(t, w->interval);
  release_due_acks(t);
  try_stale_replay(t);
}

void GriefingRelayerAgent::try_clobber(double t) {
  if (plan_.open_window(host::FaultKind::kUpdateClobber, t) == nullptr) return;
  if (clobber_in_flight_) return;
  const auto pending = contract_.pending_update_info();
  if (!pending || pending->verified_power == 0) return;
  if (pending->height == last_clobbered_) return;
  const ibc::Height target = pending->height;

  // Rebuild the honest relayer's begin payload for the same header and
  // submit a fresh begin_client_update: the contract's single pending
  // slot is overwritten and every already-verified signature is
  // discarded.  One shot per height — the point is griefing, not a
  // permanent wedge (the honest rebuild budget must win in the end).
  const std::uint64_t buffer_id = next_buffer_++;
  std::vector<host::Transaction> txs = guest::ix::staged_call(
      payer_, cfg_.fee, buffer_id, guest::ix::client_update_payload(cp_.header_at(target)),
      guest::ix::begin_client_update(buffer_id), "griefer:clobber",
      "griefer:clobber:chunk", cfg_.host_max_tx_size);

  clobber_in_flight_ = true;
  pipeline_.submit_sequence(
      std::move(txs),
      [this, target](const relayer::SequenceOutcome& out) {
        clobber_in_flight_ = false;
        if (out.ok) {
          ++counters_.updates_clobbered;
          last_clobbered_ = target;
        }
      },
      "griefer-clobber");
}

void GriefingRelayerAgent::scan_front_run_targets(double /*t*/, double delay_s) {
  const ibc::Height gh = contract_.counterparty_client().latest_height();
  if (gh == 0) return;
  for (const auto& [port, chan] : cp_.ibc().channels()) {
    if (port != "transfer") continue;
    for (const std::uint64_t seq : cp_.ibc().pending_send_sequences(port, chan)) {
      if (handled_.count(seq) > 0) continue;
      const ibc::Packet* p = cp_.ibc().sent_packet(port, chan, seq);
      if (p == nullptr) {
        handled_.insert(seq);
        continue;
      }
      if (contract_.ibc().packet_received(p->dest_port, p->dest_channel, seq)) {
        handled_.insert(seq);
        continue;
      }
      // Deliverable only once the guest's counterparty client has
      // caught up past the commitment.
      const auto key =
          ibc::packet_key(ibc::KeyKind::kPacketCommitment, port, chan, seq);
      bool provable = false;
      try {
        const trie::Proof proof = cp_.prove_at(gh, key);
        provable = trie::verify_proof(cp_.header_at(gh).header.state_root, key,
                                      proof).kind == trie::VerifyOutcome::Kind::kFound;
      } catch (const std::exception&) {
      }
      if (!provable) continue;
      handled_.insert(seq);
      front_run(*p, delay_s);
    }
  }
}

void GriefingRelayerAgent::front_run(const ibc::Packet& packet, double delay_s) {
  const ibc::Height gh = contract_.counterparty_client().latest_height();
  const std::uint64_t seq = packet.sequence;
  in_flight_.insert(seq);
  submit_recv_sequence(packet, gh, "griefer:recv", [this, packet, seq, delay_s](bool ok) {
    in_flight_.erase(seq);
    if (ok) {
      // We are the delivering relayer now.  The honest relayer sees
      // packet_received and drops its ack duty — so nobody relays the
      // ack until we decide to.
      ++counters_.front_runs;
      ++counters_.acks_withheld;
      withheld_.push_back(Withheld{packet, sim_.now() + delay_s});
      delivered_.push_back(packet);
      while (delivered_.size() > kReplayAmmo) delivered_.pop_front();
    } else if (contract_.ibc().packet_received(packet.dest_port, packet.dest_channel,
                                               seq)) {
      // Lost the race — the honest relayer delivered and owns the ack.
      delivered_.push_back(packet);
      while (delivered_.size() > kReplayAmmo) delivered_.pop_front();
    } else {
      handled_.erase(seq);  // neither of us landed it; retry next poll
    }
  });
}

void GriefingRelayerAgent::release_due_acks(double t) {
  std::deque<Withheld> keep;
  for (auto& w : withheld_) {
    if (w.release_at > t)
      keep.push_back(w);
    else
      release_ack(w);
  }
  // release_ack() may have re-queued entries; merge.
  for (auto& w : withheld_pending_requeue_) keep.push_back(w);
  withheld_pending_requeue_.clear();
  withheld_ = std::move(keep);
}

void GriefingRelayerAgent::release_ack(const Withheld& w) {
  const ibc::Packet& p = w.packet;
  if (!cp_.ibc().packet_pending(p.source_port, p.source_channel, p.sequence))
    return;  // acked or timed out through some other path
  const ibc::Height gh = contract_.last_finalised_height();
  if (gh == 0) {
    withheld_pending_requeue_.push_back(
        Withheld{p, sim_.now() + cfg_.poll_s});
    return;
  }
  const auto key = ibc::packet_key(ibc::KeyKind::kPacketAck, p.dest_port,
                                   p.dest_channel, p.sequence);
  bool provable = false;
  trie::Proof proof;
  try {
    proof = contract_.prove_at(gh, key);
    provable = trie::verify_proof(contract_.block_at(gh).header.state_root, key,
                                  proof).kind == trie::VerifyOutcome::Kind::kFound;
  } catch (const std::exception&) {
  }
  const auto ack = contract_.ibc().ack_for(p.dest_port, p.dest_channel, p.sequence);
  if (!provable || !ack) {
    withheld_pending_requeue_.push_back(Withheld{p, sim_.now() + cfg_.poll_s});
    return;
  }
  // The counterparty's guest client may not know this height yet (the
  // honest relayer only pushes headers it has relay duty for).
  try {
    cp_.ibc().update_client(client_, contract_.block_at(gh).to_signed_header().encode());
  } catch (const std::exception&) {
    // Stale or duplicate update — fine as long as consensus exists.
  }
  try {
    cp_.ibc().acknowledge_packet(p, *ack, gh, proof);
    ++counters_.acks_released;
  } catch (const std::exception&) {
    withheld_pending_requeue_.push_back(Withheld{p, sim_.now() + 2.0 * cfg_.poll_s});
  }
}

void GriefingRelayerAgent::try_stale_replay(double t) {
  const double rate = plan_.rate_at(host::FaultKind::kStaleReplay, t);
  if (rate <= 0.0 || delivered_.empty()) return;
  if (!rng_.chance(rate)) return;
  const ibc::Packet p =
      delivered_[static_cast<std::size_t>(rng_.uniform_int(delivered_.size()))];
  const ibc::Height gh = contract_.counterparty_client().latest_height();
  if (gh == 0) return;
  // Replay protection rejects the final instruction on-chain; the
  // chunk uploads still land and burn blockspace + fees, which is the
  // entire point of the attack.
  ++counters_.stale_replays;
  submit_recv_sequence(p, gh, "griefer:replay", [](bool) {});
}

void GriefingRelayerAgent::submit_recv_sequence(const ibc::Packet& packet,
                                                ibc::Height proof_height,
                                                const std::string& label,
                                                std::function<void(bool)> done) {
  const auto key = ibc::packet_key(ibc::KeyKind::kPacketCommitment, packet.source_port,
                                   packet.source_channel, packet.sequence);
  trie::Proof proof;
  try {
    proof = cp_.prove_at(proof_height, key);
  } catch (const std::exception&) {
    if (done) done(false);
    return;
  }
  const std::uint64_t buffer_id = next_buffer_++;
  std::vector<host::Transaction> txs = guest::ix::staged_call(
      payer_, cfg_.fee, buffer_id,
      guest::ix::packet_proof_payload(packet, nullptr, proof_height, proof),
      guest::ix::receive_packet(buffer_id), label, label + ":chunk", cfg_.host_max_tx_size);

  pipeline_.submit_sequence(
      std::move(txs),
      [done = std::move(done)](const relayer::SequenceOutcome& out) {
        if (done) done(out.ok);
      },
      label);
}

}  // namespace bmg::adversary
