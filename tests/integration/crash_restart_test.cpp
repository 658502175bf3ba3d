// Crash-restart recovery suite (PR 5).
//
// Kills agents at adversarially-chosen points of the relaying
// protocol and asserts the system converges after restart: every
// transfer still delivers (possibly via pipeline redrive), the
// restarted relayer resyncs from nothing but on-chain state, and the
// invariant auditor — conservation, sequence monotonicity, commit
// roots, client heights — stays clean throughout.  The convergence
// tests additionally require the post-recovery token state to be
// byte-identical to a crash-free run of the same workload.
//
// CI runs this suite under several fixed seeds via BMG_CHAOS_SEED.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "adversary/byzantine.hpp"
#include "audit/auditor.hpp"
#include "ibc/transfer.hpp"
#include "relayer/deployment.hpp"
#include "relayer/fisherman_agent.hpp"

namespace bmg::relayer {
namespace {

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("BMG_CHAOS_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 1001;
}

DeploymentConfig crash_config(std::uint64_t seed) {
  DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.guest.delta_seconds = 60.0;
  for (int i = 0; i < 4; ++i) {
    ValidatorProfile p;
    p.name = "crash-val-" + std::to_string(i);
    p.stake = 100;
    p.latency = sim::LatencyProfile::from_quantiles(2.0, 3.0, 0.4);
    p.fee = host::FeePolicy::priority(1'000'000);
    cfg.validators.push_back(std::move(p));
  }
  cfg.counterparty.num_validators = 10;
  cfg.counterparty.block_interval_s = 6.0;
  return cfg;
}

/// Everything a converged bridge must agree on regardless of how many
/// times its agents died along the way.
struct TokenState {
  std::uint64_t alice_voucher = 0;  ///< delivered PICA vouchers on the guest
  std::uint64_t voucher_supply = 0;
  std::uint64_t escrow = 0;  ///< PICA escrowed on the counterparty
  std::uint64_t sol_supply = 0;
  std::uint64_t pica_supply = 0;

  bool operator==(const TokenState&) const = default;
};

TokenState token_state(Deployment& d) {
  const std::string voucher = "transfer/" + d.guest_channel() + "/PICA";
  return TokenState{
      d.guest().bank().balance("alice", voucher),
      d.guest().bank().total_supply(voucher),
      d.cp().bank().balance(ibc::TokenTransferApp::escrow_account(d.cp_channel()),
                            "PICA"),
      d.guest().bank().total_supply("SOL"),
      d.cp().bank().total_supply("PICA"),
  };
}

// --- restart convergence: kill the relayer at every update phase ------------

enum class CrashPhase { kNone, kPreStaging, kMidChunkUpload, kPreFinalize };

/// Runs one cp->guest transfer, crashing (and 30 s later restarting)
/// the relayer at `phase` of the light-client-update protocol.
/// Returns the converged token state; fails the test if the transfer
/// never delivers or the auditor records a violation.
TokenState run_with_crash(CrashPhase phase, std::uint64_t seed) {
  Deployment d(crash_config(seed));
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  const ibc::Packet packet = d.send_transfer_from_cp(77);
  RelayerAgent& r = d.relayer();

  bool phase_hit = true;
  switch (phase) {
    case CrashPhase::kNone:
      break;
    case CrashPhase::kPreStaging:
      // Crash immediately: the relayer has seen the packet (or will on
      // restart) but staged nothing on-chain yet.
      break;
    case CrashPhase::kMidChunkUpload:
      phase_hit = d.run_until(
          [&] { return !d.guest().staging_buffers_of(r.payer()).empty(); }, 600.0);
      break;
    case CrashPhase::kPreFinalize:
      phase_hit = d.run_until(
          [&] { return d.guest().pending_update_info().has_value(); }, 600.0);
      break;
  }
  EXPECT_TRUE(phase_hit);

  if (phase != CrashPhase::kNone) {
    r.crash();
    EXPECT_FALSE(r.running());
    d.run_for(30.0);
    r.restart();
    EXPECT_TRUE(r.running());
    EXPECT_EQ(r.crash_count(), 1u);
  }

  EXPECT_TRUE(d.run_until(
      [&] {
        return d.guest().ibc().packet_received("transfer", d.guest_channel(),
                                               packet.sequence) &&
               !d.cp().ibc().packet_pending("transfer", d.cp_channel(),
                                            packet.sequence);
      },
      4000.0))
      << "transfer did not converge after crash phase "
      << static_cast<int>(phase);

  auditor.check_now("final");
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  EXPECT_GT(auditor.checks_run(), 0u);
  EXPECT_EQ(d.relayer().pipeline().in_flight(), 0u);
  return token_state(d);
}

TEST(RestartConvergence, RelayerCrashAtEveryUpdatePhaseConverges) {
  const std::uint64_t seed = chaos_seed();
  const TokenState baseline = run_with_crash(CrashPhase::kNone, seed);
  EXPECT_EQ(baseline.alice_voucher, 77u);
  EXPECT_EQ(baseline.voucher_supply, 77u);
  EXPECT_EQ(baseline.escrow, 77u);

  // Whichever phase the crash lands in — before anything was staged,
  // with a half-uploaded staging buffer abandoned on-chain, or with a
  // pending update mid signature-verification — the restarted relayer
  // must resync to the exact same token state.
  EXPECT_EQ(run_with_crash(CrashPhase::kPreStaging, seed), baseline);
  EXPECT_EQ(run_with_crash(CrashPhase::kMidChunkUpload, seed), baseline);
  EXPECT_EQ(run_with_crash(CrashPhase::kPreFinalize, seed), baseline);
}

TEST(RestartConvergence, DoubleCrashStillConverges) {
  // Crash the fresh incarnation again mid-recovery: at-least-once
  // delivery must hold across arbitrarily many restarts.
  Deployment d(crash_config(chaos_seed() + 3));
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  const ibc::Packet packet = d.send_transfer_from_cp(31);
  RelayerAgent& r = d.relayer();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(d.run_until(
        [&] { return !d.guest().staging_buffers_of(r.payer()).empty(); }, 600.0));
    r.crash();
    d.run_for(20.0);
    r.restart();
  }
  EXPECT_EQ(r.crash_count(), 2u);

  ASSERT_TRUE(d.run_until(
      [&] {
        return d.guest().ibc().packet_received("transfer", d.guest_channel(),
                                               packet.sequence);
      },
      4000.0));
  auditor.check_now("final");
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  EXPECT_EQ(token_state(d).alice_voucher, 31u);
}

// --- duplicate delivery ------------------------------------------------------

TEST(CrashChaos, DuplicateDeliveryIsIdempotent) {
  Deployment d(crash_config(chaos_seed() + 11));
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  // Every packet delivery and every ack-producing execution is ghost-
  // replayed: the host re-runs the transaction a second time, exactly
  // the double-delivery an at-least-once relayer can also produce.
  const double t0 = d.sim().now();
  d.host().fault_plan().duplicate(t0, t0 + 900.0, 1.0, "recv-packet");

  const ibc::Packet p1 = d.send_transfer_from_cp(10);
  d.run_for(30.0);
  const ibc::Packet p2 = d.send_transfer_from_cp(25);
  const auto rec = d.send_transfer_from_guest(400, host::FeePolicy::priority(5'000'000));

  const std::string in_voucher = "transfer/" + d.guest_channel() + "/PICA";
  const std::string out_voucher = "transfer/" + d.cp_channel() + "/SOL";
  ASSERT_TRUE(d.run_until(
      [&] {
        return d.guest().bank().balance("alice", in_voucher) >= 35 &&
               d.cp().bank().balance("bob", out_voucher) >= 400 &&
               !d.cp().ibc().packet_pending("transfer", d.cp_channel(), p1.sequence) &&
               !d.cp().ibc().packet_pending("transfer", d.cp_channel(), p2.sequence) &&
               !d.guest().ibc().packet_pending("transfer", d.guest_channel(),
                                               rec->sequence);
      },
      4000.0));

  // Replays actually happened, and none of them minted or acked twice.
  EXPECT_GE(d.host().fault_counters().duplicated, 1u);
  EXPECT_EQ(d.guest().bank().balance("alice", in_voucher), 35u);
  EXPECT_EQ(d.guest().bank().total_supply(in_voucher), 35u);
  EXPECT_EQ(d.cp().bank().total_supply(out_voucher), 400u);
  auditor.check_now("final");
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

// --- scheduled crash windows over every agent type ---------------------------

TEST(CrashChaos, CrashWindowsOverEveryAgentTypeStillDeliver) {
  Deployment d(crash_config(chaos_seed() + 17));
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  // Staggered kill windows touching every agent type: the relayer
  // mid-relay, the crank, and one validator (quorum is 3-of-4, so
  // finalisation survives).  Appended after open_ibc(), so the
  // controller arms them via the cursor-based schedule_crashes().
  const double t0 = d.sim().now();
  d.host()
      .fault_plan()
      .crash(t0 + 5.0, t0 + 45.0, "relayer")
      .crash(t0 + 15.0, t0 + 75.0, "crank")
      .crash(t0 + 10.0, t0 + 120.0, "crash-val-2");
  EXPECT_EQ(d.schedule_crashes(), 3u);
  EXPECT_EQ(d.schedule_crashes(), 0u);  // cursor: nothing re-armed
  EXPECT_FALSE(d.host().fault_plan().has_chain_faults());

  const ibc::Packet p1 = d.send_transfer_from_cp(12);
  d.run_for(20.0);  // lands inside all three windows
  const ibc::Packet p2 = d.send_transfer_from_cp(34);
  const auto rec = d.send_transfer_from_guest(250, host::FeePolicy::priority(5'000'000));

  const std::string in_voucher = "transfer/" + d.guest_channel() + "/PICA";
  const std::string out_voucher = "transfer/" + d.cp_channel() + "/SOL";
  ASSERT_TRUE(d.run_until(
      [&] {
        return d.guest().bank().balance("alice", in_voucher) == 46 &&
               d.cp().bank().balance("bob", out_voucher) == 250 &&
               !d.cp().ibc().packet_pending("transfer", d.cp_channel(), p1.sequence) &&
               !d.cp().ibc().packet_pending("transfer", d.cp_channel(), p2.sequence) &&
               !d.guest().ibc().packet_pending("transfer", d.guest_channel(),
                                               rec->sequence);
      },
      6000.0));

  // Delivery may outrun the longest window's end; pump past it so the
  // last restart event fires, then check every agent died and revived.
  if (d.sim().now() < t0 + 121.0) d.run_for(t0 + 121.0 - d.sim().now());
  EXPECT_EQ(d.crash_controller().crashes(), 3u);
  EXPECT_EQ(d.crash_controller().restarts(), 3u);
  EXPECT_EQ(d.relayer().crash_count(), 1u);
  EXPECT_EQ(d.crank().crash_count(), 1u);
  EXPECT_EQ(d.validators()[2]->crash_count(), 1u);
  EXPECT_TRUE(d.relayer().running());
  EXPECT_TRUE(d.crank().running());
  EXPECT_TRUE(d.validators()[2]->running());

  auditor.check_now("final");
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  EXPECT_EQ(d.relayer().pipeline().in_flight(), 0u);
}

TEST(CrashChaos, ValidatorCrashWithinQuorumSlackKeepsFinalising) {
  Deployment d(crash_config(chaos_seed() + 23));
  d.open_ibc();
  const double t0 = d.sim().now();
  d.host().fault_plan().crash(t0, t0 + 300.0, "crash-val-0");
  ASSERT_EQ(d.schedule_crashes(), 1u);

  const ibc::Height before = d.guest().last_finalised_height();
  const ibc::Packet packet = d.send_transfer_from_cp(9);
  ASSERT_TRUE(d.run_until(
      [&] {
        return d.guest().ibc().packet_received("transfer", d.guest_channel(),
                                               packet.sequence);
      },
      250.0));
  // Finalisation keeps advancing with one of four signers dark: the
  // remaining 300/400 stake still clears the quorum threshold.  Both
  // checks land strictly inside the crash window.
  ASSERT_TRUE(d.run_until(
      [&] { return d.guest().last_finalised_height() > before; }, 150.0));
  EXPECT_LT(d.sim().now(), t0 + 300.0);
  EXPECT_FALSE(d.validators()[0]->running());
  EXPECT_EQ(d.validators()[0]->crash_count(), 1u);
}

// --- fisherman crash-restart -------------------------------------------------

TEST(CrashChaos, FishermanRestartDoesNotDoubleProsecute) {
  DeploymentConfig cfg = crash_config(chaos_seed() + 29);
  cfg.guest.delta_seconds = 30.0;
  Deployment d(std::move(cfg));

  GossipBus bus;
  const crypto::PublicKey fisher_payer =
      crypto::PrivateKey::from_label("crash-fisher").public_key();
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
  d.crash_controller().add(fisherman);
  d.start();

  const crypto::PublicKey offender = d.validators()[0]->pubkey();
  ASSERT_TRUE(d.run_until([&] { return d.guest().is_banned(offender); }, 1200.0));
  const std::uint64_t submitted = fisherman.evidence_submitted();

  // Kill the fisherman, wiping its in-memory prosecuted set, while the
  // byzantine validator keeps equivocating.  The restarted incarnation
  // must recover "already prosecuted" from the chain's ban set rather
  // than burn fees re-submitting evidence against a dead validator.
  fisherman.crash();
  d.run_for(30.0);
  fisherman.restart();
  EXPECT_EQ(fisherman.crash_count(), 1u);
  d.run_for(300.0);

  EXPECT_TRUE(d.guest().is_banned(offender));
  EXPECT_EQ(d.guest().stake_of(offender), 0u);
  EXPECT_EQ(fisherman.evidence_submitted(), submitted);
  EXPECT_EQ(fisherman.pipeline().in_flight(), 0u);
}

// --- the auditor itself ------------------------------------------------------

TEST(InvariantAuditorTest, DetectsAnOutOfThinAirMint) {
  Deployment d(crash_config(chaos_seed() + 41));
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  const ibc::Packet packet = d.send_transfer_from_cp(50);
  ASSERT_TRUE(d.run_until(
      [&] {
        return d.guest().ibc().packet_received("transfer", d.guest_channel(),
                                               packet.sequence);
      },
      2000.0));
  auditor.check_now("pre-tamper");
  ASSERT_TRUE(auditor.clean()) << auditor.report();

  // Mint 1 unbacked voucher behind the bridge's back — exactly the
  // double-mint a buggy recv path (or a double-delivered packet whose
  // receipt check was lost in a crash) would produce.
  const std::string voucher = "transfer/" + d.guest_channel() + "/PICA";
  d.guest().bank().mint("mallory", voucher, 1);
  auditor.check_now("tamper");

  EXPECT_FALSE(auditor.clean());
  EXPECT_GE(auditor.violations_total(), 1u);
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations().front().invariant, "conservation");
  EXPECT_NE(auditor.report().find("conservation"), std::string::npos);
}

}  // namespace
}  // namespace bmg::relayer
