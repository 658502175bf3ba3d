// Chaos suite: the full deployment under scheduled host faults
// (congestion, outages, blackholes, duplicates, fee spikes).  The
// resilient relayer pipeline must achieve 100% eventual packet
// delivery with bounded retries and no stalled sequences, token supply
// must stay conserved (no duplicate mints), and the same seed must
// reproduce the identical event trace.
//
// CI runs this suite under several fixed seeds via BMG_CHAOS_SEED.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "adversary/byzantine.hpp"
#include "audit/auditor.hpp"
#include "relayer/deployment.hpp"
#include "relayer/fisherman_agent.hpp"

namespace bmg::relayer {
namespace {

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("BMG_CHAOS_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 1001;
}

DeploymentConfig chaos_config(std::uint64_t seed) {
  DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.guest.delta_seconds = 60.0;
  for (int i = 0; i < 4; ++i) {
    ValidatorProfile p;
    p.name = "chaos-val-" + std::to_string(i);
    p.stake = 100;
    p.latency = sim::LatencyProfile::from_quantiles(2.0, 3.0, 0.4);
    p.fee = host::FeePolicy::priority(1'000'000);
    cfg.validators.push_back(std::move(p));
  }
  cfg.counterparty.num_validators = 10;
  cfg.counterparty.block_interval_s = 6.0;
  return cfg;
}

/// Installs the composed fault schedule relative to `t0` (handshake is
/// done by then; the faults hit steady-state relaying).  Congestion is
/// global but moderate so validators keep producing blocks; blackholes
/// target the relayer's own labels to force timeout-driven retries.
void install_chaos_plan(host::Chain& host, double t0) {
  host.fault_plan()
      .congestion(t0 + 5, t0 + 60, 0.3)
      .fee_spike(t0 + 5, t0 + 60, 3.0)
      .blackhole(t0 + 10, t0 + 50, 0.7, "recv-packet")
      .blackhole(t0 + 10, t0 + 50, 0.5, "lc-update")
      .duplicate(t0 + 5, t0 + 90, 0.3, "recv-packet")
      .outage(t0 + 65, t0 + 75);
}

std::uint64_t total_faults(const host::FaultCounters& c) {
  return c.congestion_delayed + c.outage_deferred + c.outage_expired + c.blackholed +
         c.duplicated + c.fee_spiked;
}

TEST(Chaos, EventualDeliveryUnderComposedFaults) {
  Deployment d(chaos_config(chaos_seed()));
  // The invariant auditor re-checks conservation / sequences / commit
  // roots / client heights after every block while the faults fire.
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});
  install_chaos_plan(d.host(), d.sim().now());

  // Three counterparty->guest transfers (the direction that crosses
  // the faulty host) staggered into the fault windows, plus one
  // guest->counterparty transfer whose ack must cross back.
  const ibc::Packet p1 = d.send_transfer_from_cp(10);
  d.run_for(15.0);
  const ibc::Packet p2 = d.send_transfer_from_cp(20);
  d.run_for(15.0);
  const ibc::Packet p3 = d.send_transfer_from_cp(30);
  const auto rec = d.send_transfer_from_guest(500, host::FeePolicy::priority(5'000'000));

  const std::string in_voucher = "transfer/" + d.guest_channel() + "/PICA";
  const std::string out_voucher = "transfer/" + d.cp_channel() + "/SOL";

  // 100% eventual delivery, both directions.
  ASSERT_TRUE(d.run_until(
      [&] {
        return d.guest().bank().balance("alice", in_voucher) == 60 &&
               d.cp().bank().balance("bob", out_voucher) == 500;
      },
      4000.0));

  // All acks resolve: no packet left pending on either side.
  ASSERT_TRUE(d.run_until(
      [&] {
        return !d.cp().ibc().packet_pending("transfer", d.cp_channel(), p1.sequence) &&
               !d.cp().ibc().packet_pending("transfer", d.cp_channel(), p2.sequence) &&
               !d.cp().ibc().packet_pending("transfer", d.cp_channel(), p3.sequence) &&
               !d.guest().ibc().packet_pending("transfer", d.guest_channel(),
                                               rec->sequence);
      },
      4000.0));

  // No duplicate mints despite ghost replays: supply is exactly the
  // delivered amounts, and escrow backs the outstanding vouchers.
  EXPECT_EQ(d.guest().bank().total_supply(in_voucher), 60u);
  EXPECT_EQ(d.cp().bank().total_supply(out_voucher), 500u);
  EXPECT_EQ(d.guest().bank().total_supply("SOL"), 1'000'000u);
  EXPECT_EQ(d.cp().bank().total_supply("PICA"), 1'000'000u);

  // The faults actually fired...
  EXPECT_GT(total_faults(d.host().fault_counters()), 0u);
  // ...and the pipeline absorbed them within budget: nothing stalled.
  const TxPipeline& pipe = d.relayer().pipeline();
  EXPECT_EQ(pipe.in_flight(), 0u);
  EXPECT_LT(pipe.retries_total(), 300u);  // bounded, not runaway

  // Every invariant held at every block throughout the fault schedule.
  auditor.check_now("final");
  EXPECT_GT(auditor.checks_run(), 0u);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(Chaos, SameSeedReproducesIdenticalTrace) {
  const auto run_once = [] {
    Deployment d(chaos_config(chaos_seed()));
    d.open_ibc();
    install_chaos_plan(d.host(), d.sim().now());
    (void)d.send_transfer_from_cp(42);
    d.run_for(600.0);
    return std::make_tuple(d.sim().events_processed(),
                           d.guest().bank().balance(
                               "alice", "transfer/" + d.guest_channel() + "/PICA"),
                           d.relayer().pipeline().retries_total(),
                           d.host().fault_counters().blackholed);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Chaos, EmptyPlanMeansZeroFaultsAndZeroRetries) {
  Deployment d(chaos_config(chaos_seed()));
  d.open_ibc();
  ASSERT_TRUE(d.host().fault_plan().empty());

  (void)d.send_transfer_from_cp(99);
  const std::string voucher = "transfer/" + d.guest_channel() + "/PICA";
  ASSERT_TRUE(d.run_until(
      [&] { return d.guest().bank().balance("alice", voucher) == 99; }, 1200.0));

  // The resilient pipeline on a clean host behaves exactly like the
  // naive submitter: no retries, no timeouts, no escalations, and the
  // fault layer never fired.
  EXPECT_EQ(total_faults(d.host().fault_counters()), 0u);
  const TxPipeline& pipe = d.relayer().pipeline();
  EXPECT_EQ(pipe.retries_total(), 0u);
  EXPECT_EQ(pipe.escalations_total(), 0u);
  EXPECT_EQ(pipe.sequences_failed(), 0u);
  EXPECT_EQ(pipe.in_flight(), 0u);
}

// Regression for the silent-evidence bug: the fisherman used to walk
// its transaction chain with bare Chain::submit and simply stop on the
// first lost transaction, so a blackholed upload meant the offender
// kept its stake forever.  Through the pipeline, evidence survives.
TEST(Chaos, FishermanEvidenceSurvivesBlackhole) {
  DeploymentConfig cfg = chaos_config(chaos_seed() + 7);
  cfg.guest.delta_seconds = 30.0;
  Deployment d(std::move(cfg));

  GossipBus bus;
  const crypto::PublicKey fisher_payer =
      crypto::PrivateKey::from_label("chaos-fisher").public_key();
  d.host().airdrop(fisher_payer, 100 * host::kLamportsPerSol);
  FishermanAgent fisherman(d.sim(), d.host(), d.guest(), bus, fisher_payer);
  fisherman.start();
  const host::FaultPlan plan = host::FaultPlan().equivocate(
      0.0, std::numeric_limits<double>::infinity(), /*validators=*/1);
  adversary::AdversaryCounters counters;
  adversary::ByzantineValidatorAgent byzantine(d.sim(), d.host(), d.guest(), bus,
                                               d.validators()[0]->key(), plan,
                                               counters, /*index=*/0, /*seed=*/0);
  byzantine.start();

  // Every fisherman transaction submitted in the first 120 s vanishes.
  d.host().fault_plan().blackhole(0.0, 120.0, 1.0, "fisherman");

  d.start();
  const crypto::PublicKey offender = d.validators()[0]->pubkey();

  // The first equivocation lands around Δ = 30 s, squarely inside the
  // blackhole window; only deadline-driven retries can get it through.
  ASSERT_TRUE(d.run_until([&] { return d.guest().is_banned(offender); }, 1200.0));
  EXPECT_EQ(d.guest().stake_of(offender), 0u);
  EXPECT_GE(fisherman.evidence_submitted(), 1u);
  EXPECT_GE(fisherman.evidence_accepted(), 1u);
  EXPECT_GE(fisherman.pipeline().retries_of(RelayErrorKind::kTimeout), 1u);
  EXPECT_GE(d.host().fault_counters().blackholed, 1u);
  EXPECT_EQ(fisherman.pipeline().in_flight(), 0u);
}

}  // namespace
}  // namespace bmg::relayer
