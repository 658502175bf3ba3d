// A griefing relayer: permissionless like any relayer, funded like a
// serious one, and hostile.
//
// IBC's any-party-can-relay guarantee cuts both ways — a relayer needs
// no permission to deliver packets, so it needs none to interfere.
// The griefer mounts three attacks from the paper's relayer threat
// surface, each gated by a host::FaultPlan participant window:
//
//  * update clobber — the Guest Contract holds a single pending
//    light-client-update slot, and `begin_client_update` overwrites
//    it.  The griefer watches for a half-verified update and restarts
//    it at the same height, discarding the honest relayer's already
//    paid-for signature verifications (latency + fee griefing; the
//    honest pipeline's rebuild budget recovers).
//
//  * front-run + ack withhold — the griefer races the honest relayer's
//    base-fee delivery with bundle-fee transactions.  Winning makes it
//    the delivering relayer, and the honest relayer (seeing
//    packet_received) drops its own ack duty — so the griefer simply
//    sits on the acknowledgement until the window's delay elapses,
//    keeping the sender's commitment (and escrow) pinned near the
//    timeout.
//
//  * stale replay — re-delivers packets the guest already received;
//    replay protection rejects them, but the chunk uploads land and
//    burn fees/blockspace.
//
// All on-host actions ride a private TxPipeline with bundle fees (the
// griefer pays to win races).  The agent is a CrashableAgent whose
// on_restart() re-derives withheld acks from pure on-chain state:
// a packet received on the guest whose commitment is still pending on
// the counterparty is an ack someone is sitting on.
#pragma once

#include <deque>
#include <set>
#include <string>
#include <vector>

#include "adversary/counters.hpp"
#include "common/rng.hpp"
#include "counterparty/chain.hpp"
#include "guest/contract.hpp"
#include "host/chain.hpp"
#include "host/fault.hpp"
#include "relayer/tx_pipeline.hpp"
#include "sim/agent.hpp"
#include "sim/scheduler.hpp"

namespace bmg::adversary {

struct GrieferConfig {
  double poll_s = 1.0;
  /// Bundle tip per transaction — the griefer buys inclusion priority.
  host::FeePolicy fee = host::FeePolicy::bundle(host::usd_to_lamports(0.01));
  std::size_t host_max_tx_size = host::kMaxTransactionSize;
  relayer::PipelineConfig pipeline;
};

class GriefingRelayerAgent final : public sim::CrashableAgent {
 public:
  GriefingRelayerAgent(sim::Simulation& sim, host::Chain& host,
                       guest::GuestContract& contract,
                       counterparty::CounterpartyChain& cp,
                       ibc::ClientId guest_client_on_cp, crypto::PublicKey payer,
                       const host::FaultPlan& plan, AdversaryCounters& counters,
                       std::uint64_t seed, GrieferConfig cfg = {});

  void start();

  [[nodiscard]] const relayer::TxPipeline& pipeline() const { return pipeline_; }
  [[nodiscard]] const crypto::PublicKey& payer() const noexcept { return payer_; }

 private:
  struct Withheld {
    ibc::Packet packet;
    double release_at = 0;
  };

  void on_crash() override;
  void on_restart() override;
  void schedule_poll();
  void poll();
  void try_clobber(double t);
  void scan_front_run_targets(double t, double delay_s);
  void front_run(const ibc::Packet& packet, double delay_s);
  void release_due_acks(double t);
  void release_ack(const Withheld& w);
  void try_stale_replay(double t);
  void submit_recv_sequence(const ibc::Packet& packet, ibc::Height proof_height,
                            const std::string& label,
                            std::function<void(bool)> done);

  host::Chain& host_;
  guest::GuestContract& contract_;
  counterparty::CounterpartyChain& cp_;
  ibc::ClientId client_;
  crypto::PublicKey payer_;
  const host::FaultPlan& plan_;
  AdversaryCounters& counters_;
  GrieferConfig cfg_;
  Rng rng_;
  relayer::TxPipeline pipeline_;

  std::uint64_t next_buffer_ = 1;
  bool clobber_in_flight_ = false;
  /// Last height whose pending update we clobbered (one shot each).
  ibc::Height last_clobbered_ = 0;
  /// Sequences we already acted on (ephemeral; rebuilt on restart).
  std::set<std::uint64_t> handled_;
  /// Sequences with a recv race in flight.
  std::set<std::uint64_t> in_flight_;
  std::deque<Withheld> withheld_;
  /// Entries release_ack() pushed back for a later retry; merged into
  /// withheld_ at the end of each release sweep.
  std::deque<Withheld> withheld_pending_requeue_;
  /// Packets we know were delivered (replay ammunition), newest last.
  std::deque<ibc::Packet> delivered_;
};

}  // namespace bmg::adversary
