#include "relayer/deployment.hpp"

#include <algorithm>
#include <stdexcept>

namespace bmg::relayer {

host::FeePolicy priority_fee_for_usd(double usd, std::uint64_t expected_cu) {
  const double base_usd = host::lamports_to_usd(host::kLamportsPerSignature);
  const double target = usd > base_usd ? usd - base_usd : 0.0;
  const std::uint64_t lamports = host::usd_to_lamports(target);
  if (expected_cu == 0) expected_cu = 1;
  return host::FeePolicy::priority(lamports * 1'000'000 / expected_cu);
}

std::vector<ValidatorProfile> paper_validators() {
  // Table I: (cost cents, median, Q3) per active validator; #1 and #9
  // carry heavy tails (max 35957.6 s and 261.6 s respectively).
  struct Row {
    double cents, med, q3, outage_p, outage_mean;
  };
  // #1's heavy tail is fitted to Table I's mean/stddev (77.4 s / 1373.6
  // with a 35957.6 s max over 1535 signatures => roughly three
  // multi-hour stalls per 1500 blocks).
  const Row rows[17] = {
      {1.00, 5.6, 7.6, 0.004, 12000.0},  // #1
      {1.40, 3.2, 5.2, 0.0, 0.0},        // #2
      {0.25, 3.2, 5.6, 0.0, 0.0},        // #3
      {1.40, 4.0, 6.0, 0.0, 0.0},        // #4
      {0.23, 3.6, 5.2, 0.0, 0.0},        // #5
      {0.23, 3.6, 5.2, 0.0, 0.0},        // #6
      {1.40, 4.0, 6.0, 0.0, 0.0},        // #7
      {0.60, 4.8, 6.4, 0.0, 0.0},        // #8
      {0.23, 3.6, 4.8, 0.02, 240.0},     // #9
      {0.23, 3.2, 5.2, 0.0, 0.0},        // #10
      {1.40, 4.8, 6.4, 0.0, 0.0},        // #11
      {1.40, 3.6, 5.6, 0.0, 0.0},        // #12
      {1.40, 4.4, 6.4, 0.0, 0.0},        // #13
      {1.40, 4.4, 6.0, 0.0, 0.0},        // #14
      {1.40, 3.2, 3.6, 0.0, 0.0},        // #15
      {0.20, 3.2, 4.4, 0.0, 0.0},        // #16
      {0.20, 3.2, 4.8, 0.0, 0.0},        // #17
  };

  std::vector<ValidatorProfile> out;
  // A Sign transaction uses roughly 60k CU (dispatch + pre-compile +
  // contract bookkeeping); fee targets are per Table I.
  constexpr std::uint64_t kSignCu = 60'000;
  for (int i = 0; i < 17; ++i) {
    const Row& r = rows[i];
    ValidatorProfile p;
    p.name = "validator-" + std::to_string(i + 1);
    p.stake = 1'000;
    p.latency = sim::LatencyProfile::from_quantiles(r.med, r.q3, /*floor=*/0.4)
                    .with_outages(r.outage_p, r.outage_mean);
    // Table I's observed stddevs imply thinner tails (CV ~ 0.5) than a
    // pure quantile fit suggests; clamp so per-block finalisation —
    // the max over all 17 active validators — matches Fig. 2's "all
    // but three within 21 s" shape.
    p.latency.sigma = std::min(p.latency.sigma, 0.45);
    p.fee = priority_fee_for_usd(r.cents / 100.0, kSignCu);
    p.active = true;
    out.push_back(std::move(p));
  }
  // The 7 staked-but-silent validators (paper §V-C).
  for (int i = 17; i < 24; ++i) {
    ValidatorProfile p;
    p.name = "validator-" + std::to_string(i + 1);
    p.stake = 1'000;
    p.active = false;
    out.push_back(std::move(p));
  }
  return out;
}

Deployment::Deployment(DeploymentConfig cfg)
    : cfg_(std::move(cfg)),
      seed_(cfg_.rng_stream ? stream_seed(cfg_.seed, *cfg_.rng_stream) : cfg_.seed),
      rng_(seed_),
      host_(sim_, Rng(seed_ ^ 0x1111), cfg_.host),
      cp_(sim_, Rng(seed_ ^ 0x2222), cfg_.counterparty),
      client_payer_(crypto::PrivateKey::from_label("client-payer").public_key()),
      service_payer_(crypto::PrivateKey::from_label("service-payer").public_key()) {
  if (cfg_.validators.empty()) cfg_.validators = paper_validators();

  // Genesis validator set of the guest chain.
  std::vector<ibc::ValidatorInfo> genesis;
  std::vector<crypto::PrivateKey> keys;
  for (const auto& p : cfg_.validators) {
    keys.push_back(crypto::PrivateKey::from_label("guest-" + p.name));
    genesis.push_back({keys.back().public_key(), p.stake});
  }

  auto contract = std::make_unique<guest::GuestContract>(cfg_.guest, genesis,
                                                         cp_.chain_id(), cp_.validators());
  guest_ = contract.get();
  host_.register_program(guest::kProgramName, std::move(contract));

  // Guest light client hosted on the counterparty.
  auto guest_client = std::make_unique<ibc::QuorumLightClient>(
      cfg_.guest.chain_id, guest_->epoch_validators());
  guest_client_on_cp_ = cp_.ibc().add_client(std::move(guest_client));

  // Agents.
  for (std::size_t i = 0; i < cfg_.validators.size(); ++i) {
    validators_.push_back(std::make_unique<ValidatorAgent>(
        sim_, host_, *guest_, keys[i], cfg_.validators[i], rng_.fork()));
    host_.airdrop(keys[i].public_key(), 1'000 * host::kLamportsPerSol);
  }
  crank_ = std::make_unique<CrankAgent>(sim_, host_, *guest_, service_payer_);
  relayer_ = std::make_unique<RelayerAgent>(sim_, host_, *guest_, cp_,
                                            guest_client_on_cp_,
                                            crypto::PrivateKey::from_label("relayer")
                                                .public_key(),
                                            cfg_.relayer);

  // Back genesis stake with vault funds (slashing moves real lamports).
  std::uint64_t total_stake = 0;
  for (const auto& v : genesis) total_stake += v.stake;
  host_.airdrop(guest_->stake_vault(), total_stake);

  host_.airdrop(client_payer_, 10'000 * host::kLamportsPerSol);
  host_.airdrop(service_payer_, 10'000 * host::kLamportsPerSol);
  host_.airdrop(relayer_->payer(), 10'000 * host::kLamportsPerSol);

  // Funded client balances on both chains.
  guest_->bank().mint("alice", "SOL", 1'000'000);
  cp_.bank().mint("bob", "PICA", 1'000'000);

  wire_finalisation_tracker();
}

void Deployment::wire_finalisation_tracker() {
  host_.subscribe(guest::kProgramName, [this](const host::Event& ev) {
    if (ev.name == guest::GuestContract::kEvFinalisedBlock) {
      Decoder d(ev.data);
      const ibc::Height h = d.u64();
      for (const ibc::Packet& p : guest_->block_at(h).packets) {
        const auto it = sent_.find(p.sequence);
        if (it != sent_.end() && !it->second->finalised) {
          it->second->finalised = true;
          it->second->finalised_at = ev.time;
        }
      }
    } else if (ev.name == "ConnOpenInit" || ev.name == "ConnOpenTry" ||
               ev.name == "ChanOpenInit" || ev.name == "ChanOpenTry") {
      last_event_id_.assign(ev.data.begin(), ev.data.end());
    }
  });
  // Rooted-confirmation tracking: on a linear host this fires inline
  // with the processed subscription above (rooted_at == finalised_at);
  // on a fork-aware host it trails by the rooted lag and is never
  // retracted.
  host_.subscribe_rooted(guest::kProgramName, [this](const host::Event& ev) {
    if (ev.name != guest::GuestContract::kEvFinalisedBlock) return;
    Decoder d(ev.data);
    const ibc::Height h = d.u64();
    if (h >= guest_->block_count()) return;
    for (const ibc::Packet& p : guest_->block_at(h).packets) {
      const auto it = sent_.find(p.sequence);
      if (it != sent_.end() && !it->second->rooted) {
        it->second->rooted = true;
        it->second->rooted_at = sim_.now();
      }
    }
  });
}

void Deployment::start() {
  if (started_) return;
  started_ = true;
  host_.start();
  cp_.start();
  for (auto& v : validators_) v->start();
  crank_->start();
  relayer_->start();
  for (auto& v : validators_) crash_ctl_.add(*v);
  crash_ctl_.add(*crank_);
  crash_ctl_.add(*relayer_);
  schedule_crashes();
}

void Deployment::run_for(double seconds) { sim_.run_until(sim_.now() + seconds); }

bool Deployment::run_until(const std::function<bool()>& pred, double timeout_s) {
  const double deadline = sim_.now() + timeout_s;
  while (sim_.now() < deadline) {
    if (pred()) return true;
    if (!sim_.step()) break;
  }
  return pred();
}

ibc::Height Deployment::wait_guest_commit() {
  const Hash32 target = guest_->store().root_hash();
  const bool ok = run_until(
      [&] {
        const auto& head = guest_->head();
        return head.finalised && head.header.state_root == target;
      },
      600.0);
  if (!ok) throw std::runtime_error("deployment: guest block did not finalise in time");
  // Find the first finalised block committing the target root.
  for (ibc::Height h = guest_->head().header.height;; --h) {
    const auto& b = guest_->block_at(h);
    if (b.header.state_root == target && b.finalised) {
      if (h == 0 || guest_->block_at(h - 1).header.state_root != target) return h;
    }
    if (h == 0) break;
  }
  return guest_->head().header.height;
}

ibc::Height Deployment::wait_cp_block() {
  const ibc::Height current = cp_.height();
  (void)run_until([&] { return cp_.height() > current; }, 60.0);
  return cp_.height();
}

void Deployment::guest_handshake_call(ByteView payload) {
  bool done = false, ok = false;
  auto txs = relayer_->staged_call(payload, guest::ix::handshake, "handshake");
  for (auto& tx : txs) tx.payer = service_payer_;
  relayer_->pipeline().submit_sequence(std::move(txs), [&](const SequenceOutcome& out) {
    done = true;
    ok = out.ok;
  });
  if (!run_until([&] { return done; }, 300.0) || !ok)
    throw std::runtime_error("deployment: handshake transaction failed");
}

void Deployment::open_ibc() {
  start();
  run_for(2.0);

  // --- connection handshake -------------------------------------------
  // 1. ConnOpenInit on the guest.
  {
    Encoder e;
    e.u8(static_cast<std::uint8_t>(guest::HandshakeOp::kConnOpenInit));
    e.str(guest_->counterparty_client_id()).str(guest_client_on_cp_);
    guest_handshake_call(e.out());
    guest_conn_ = last_event_id_;
  }
  ibc::Height gh = wait_guest_commit();
  {
    bool pushed = false;
    relayer_->push_guest_header_to_cp(gh, [&] { pushed = true; });
    if (!run_until([&] { return pushed; }, 30.0))
      throw std::runtime_error("deployment: header push failed");
  }

  // 2. ConnOpenTry on the counterparty (direct chain call).  The
  // counterparty validates the guest's client of it — chain id and
  // validator set — against a proven client-state commitment
  // (validate_self_client).
  const ibc::ClientStateCommitment guest_client_state{
      guest_->counterparty_client().tracked_chain_id(),
      guest_->counterparty_client().tracked_validator_set_hash()};
  cp_conn_ = cp_.ibc().conn_open_try(
      guest_client_on_cp_, guest_->counterparty_client_id(), guest_conn_,
      guest_->ibc().connection(guest_conn_), gh,
      guest_->prove_at(gh, ibc::connection_key(guest_conn_)), guest_client_state,
      guest_->prove_at(gh, ibc::client_key(guest_->counterparty_client_id())));

  // 3. ConnOpenAck on the guest (needs the cp client updated first).
  ibc::Height ch = wait_cp_block();
  {
    bool updated = false;
    relayer_->update_guest_client(ch, [&] { updated = true; });
    if (!run_until([&] { return updated; }, 600.0))
      throw std::runtime_error("deployment: guest client update failed");
    Encoder e;
    e.u8(static_cast<std::uint8_t>(guest::HandshakeOp::kConnOpenAck));
    e.str(guest_conn_).str(cp_conn_);
    e.bytes(cp_.ibc().connection(cp_conn_).encode());
    e.u64(ch);
    e.bytes(cp_.prove_at(ch, ibc::connection_key(cp_conn_)).serialize());
    // The guest validates the counterparty's client of the guest chain.
    const auto& cp_guest_client = cp_.ibc().client(guest_client_on_cp_);
    const ibc::ClientStateCommitment cp_client_state{
        cp_guest_client.tracked_chain_id(),
        cp_guest_client.tracked_validator_set_hash()};
    e.boolean(true);
    e.bytes(cp_client_state.encode());
    e.bytes(cp_.prove_at(ch, ibc::client_key(guest_client_on_cp_)).serialize());
    guest_handshake_call(e.out());
  }

  // 4. ConnOpenConfirm on the counterparty.
  gh = wait_guest_commit();
  {
    bool pushed = false;
    relayer_->push_guest_header_to_cp(gh, [&] { pushed = true; });
    (void)run_until([&] { return pushed; }, 30.0);
  }
  cp_.ibc().conn_open_confirm(cp_conn_, guest_->ibc().connection(guest_conn_), gh,
                              guest_->prove_at(gh, ibc::connection_key(guest_conn_)));

  // --- channel handshake -------------------------------------------------
  // 5. ChanOpenInit on the guest.
  {
    Encoder e;
    e.u8(static_cast<std::uint8_t>(guest::HandshakeOp::kChanOpenInit));
    e.str("transfer").str(guest_conn_).str("transfer");
    e.u8(ibc::kUnorderedChannel);
    guest_handshake_call(e.out());
    guest_channel_ = last_event_id_;
  }
  gh = wait_guest_commit();
  {
    bool pushed = false;
    relayer_->push_guest_header_to_cp(gh, [&] { pushed = true; });
    (void)run_until([&] { return pushed; }, 30.0);
  }

  // 6. ChanOpenTry on the counterparty.
  cp_channel_ = cp_.ibc().chan_open_try(
      "transfer", cp_conn_, "transfer", guest_channel_,
      guest_->ibc().channel("transfer", guest_channel_), gh,
      guest_->prove_at(gh, ibc::channel_key("transfer", guest_channel_)));

  // 7. ChanOpenAck on the guest.
  ch = wait_cp_block();
  {
    bool updated = false;
    relayer_->update_guest_client(ch, [&] { updated = true; });
    if (!run_until([&] { return updated; }, 600.0))
      throw std::runtime_error("deployment: guest client update failed");
    Encoder e;
    e.u8(static_cast<std::uint8_t>(guest::HandshakeOp::kChanOpenAck));
    e.str("transfer").str(guest_channel_).str(cp_channel_);
    e.bytes(cp_.ibc().channel("transfer", cp_channel_).encode());
    e.u64(ch);
    e.bytes(cp_.prove_at(ch, ibc::channel_key("transfer", cp_channel_)).serialize());
    guest_handshake_call(e.out());
  }

  // 8. ChanOpenConfirm on the counterparty.
  gh = wait_guest_commit();
  {
    bool pushed = false;
    relayer_->push_guest_header_to_cp(gh, [&] { pushed = true; });
    (void)run_until([&] { return pushed; }, 30.0);
  }
  cp_.ibc().chan_open_confirm("transfer", cp_channel_,
                              guest_->ibc().channel("transfer", guest_channel_), gh,
                              guest_->prove_at(
                                  gh, ibc::channel_key("transfer", guest_channel_)));
}

std::shared_ptr<Deployment::SendRecord> Deployment::send_transfer_from_guest(
    std::uint64_t amount, host::FeePolicy fee, double timeout_after_s) {
  auto record = std::make_shared<SendRecord>();
  record->submitted_at = sim_.now();
  // Sequence the module will assign.
  const std::uint64_t seq =
      guest_->ibc().next_send_sequence("transfer", guest_channel_);
  record->sequence = seq;
  sent_[seq] = record;

  host::Transaction tx;
  tx.payer = client_payer_;
  tx.fee = fee;
  tx.label = "send-transfer";
  tx.instructions.push_back(guest::ix::send_transfer(
      guest_channel_, "SOL", amount, "alice", "bob", 0, sim_.now() + timeout_after_s));
  host_.submit(std::move(tx), [record](const host::TxResult& res) {
    if (res.reorged_out) {
      // The execution was retracted by a host reorg and did not
      // survive onto the winning fork.  Clients do not resubmit: the
      // transfer is gone (the optimistic-confirmation hazard the
      // rooted-latency columns quantify).
      record->executed = false;
      record->failed = true;
      return;
    }
    record->executed = res.executed && res.success;
    record->failed = !record->executed;
    record->executed_at = res.time;
    record->fee_usd = res.fee.usd();
  });
  return record;
}

ibc::Packet Deployment::send_transfer_from_cp(std::uint64_t amount) {
  return cp_.transfer().send_transfer(cp_channel_, "PICA", amount, "bob", "alice", 0,
                                      sim_.now() + 3600.0);
}

}  // namespace bmg::relayer
